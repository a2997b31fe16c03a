"""Channel representation tests: constructors, Choi round trips, EB detection."""

import dataclasses

import numpy as np
import pytest

from entcost import channels
from entcost.channels import (
    CHOI_TOL,
    QUBIT_FAMILIES,
    KrausChannel,
    SchemaError,
    _check_kraus,
    amplitude_damping,
    apply,
    channel_from_json,
    choi,
    dephasing,
    depolarizing,
    family_choi,
    identity,
    random_channel,
    teleportation_covered,
)
from entcost.entanglement import concurrence_2q
from entcost.linalg import (
    DensityMatrix,
    ValidationError,
    partial_trace,
    random_density_matrix,
    trace_norm,
)

def trace_distance(a, b):
    return 0.5 * trace_norm(a - b)


BELL_PLUS = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
BELL_MINUS = np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2)


def plus_state():
    v = np.array([1, 1], dtype=complex) / np.sqrt(2)
    return DensityMatrix((2,), np.outer(v, v.conj()))


def test_apply_identity():
    rng = np.random.default_rng(0)
    rho = random_density_matrix((2,), 2, rng)
    out = apply(identity(2), rho)
    np.testing.assert_allclose(out.mat, rho.mat, atol=1e-12)


def test_apply_full_dephasing_kills_coherence():
    out = apply(dephasing(0.5), plus_state())
    np.testing.assert_allclose(out.mat, np.eye(2) / 2, atol=1e-12)


def test_apply_damping_resets_excited_state():
    one = DensityMatrix((2,), np.diag([0.0, 1.0]))
    out = apply(amplitude_damping(0.0), one)
    np.testing.assert_allclose(out.mat, np.diag([1.0, 0.0]), atol=1e-12)


def test_apply_preserves_trace_and_positivity():
    rng = np.random.default_rng(1)
    for _ in range(10):
        ch = random_channel(2, 2, int(rng.integers(1, 5)), rng)
        rho = random_density_matrix((2, 3), int(rng.integers(1, 7)), rng)
        out = apply(ch, rho)  # constructor revalidates PSD and trace
        assert abs(out.trace() - 1.0) < 1e-9
        assert np.linalg.eigvalsh(out.mat)[0] > -1e-9


def _lifted_reference(ch, mat, anc):
    """sum_k (K_k (x) I_anc) mat (K_k (x) I_anc)^H, the Kronecker-lifted formula."""
    out = 0
    for k in ch.kraus:
        lifted = np.kron(k, np.eye(anc))
        out = out + lifted @ mat @ lifted.conj().T
    return out


def test_kraus_contraction_matches_lifted_reference():
    rng = np.random.default_rng(12)
    for din, dout in ((2, 2), (2, 3), (3, 2), (3, 3), (2, 4)):
        for count in range(-(-din // dout), 4):   # isometries need count * dout >= din
            ch = random_channel(din, dout, count, rng)
            phi = np.eye(din).reshape(-1) / np.sqrt(din)
            want = _lifted_reference(ch, np.outer(phi, phi), din)
            np.testing.assert_allclose(choi(ch).mat, want, rtol=0, atol=1e-13)
            for anc in (1, 2, 3):
                dims = (din,) if anc == 1 else (din, anc)
                rho = random_density_matrix(dims, din * anc, rng)
                out = apply(ch, rho)
                assert out.dims == (dout,) + dims[1:]
                np.testing.assert_allclose(out.mat, _lifted_reference(ch, rho.mat, anc),
                                           rtol=0, atol=1e-13)


def test_apply_dimension_mismatch():
    rng = np.random.default_rng(2)
    with pytest.raises(ValueError):
        apply(identity(2), random_density_matrix((3,), 2, rng))


def test_choi_identity_is_max_entangled():
    c = choi(identity(2))
    np.testing.assert_allclose(c.mat, np.outer(BELL_PLUS, BELL_PLUS),
                               atol=1e-12)


def test_choi_dephasing_is_bell_mixture():
    p = 0.3
    expected = (1 - p) * np.outer(BELL_PLUS, BELL_PLUS) \
        + p * np.outer(BELL_MINUS, BELL_MINUS)
    np.testing.assert_allclose(choi(dephasing(p)).mat, expected, atol=1e-12)


def test_choi_depolarizing_is_isotropic():
    r = 0.4
    expected = (1 - r) * np.outer(BELL_PLUS, BELL_PLUS) + r * np.eye(4) / 4
    np.testing.assert_allclose(choi(depolarizing(r)).mat, expected, atol=1e-12)


def test_choi_input_marginal_is_maximally_mixed():
    rng = np.random.default_rng(3)
    chans = [identity(2), dephasing(0.2), depolarizing(0.7), amplitude_damping(0.3),
             random_channel(3, 2, 3, rng)]
    for ch in chans:
        marg = partial_trace(choi(ch), keep=1)
        np.testing.assert_allclose(marg.mat, np.eye(ch.dim_in) / ch.dim_in,
                                   atol=1e-9)


def weyl_kraus(probs):
    """Kraus stack sqrt(p_ab) X^a Z^b of the qudit Weyl channel, p a d x d table."""
    d = len(probs)
    x = np.roll(np.eye(d), 1, axis=0)                   # X|j> = |j + 1 mod d>
    z = np.diag(np.exp(2j * np.pi * np.arange(d) / d))  # Z|j> = w^j |j>
    return np.array([np.sqrt(probs[a, b]) * np.linalg.matrix_power(x, a)
                     @ np.linalg.matrix_power(z, b) for a in range(d) for b in range(d)])


def test_teleportation_covered():
    grid = np.linspace(0.0, 1.0, 101)
    covered = [choi(dephasing(0.3)), choi(depolarizing(0.6))]
    for d in (1, 2, 3, 4):
        covered.append(choi(channel_from_json({"type": "identity", "d": d})))
        ops = [[[float(x), 0.0] for x in np.eye(d).ravel()]]
        covered.append(choi(channel_from_json(
            {"type": "kraus", "dim_in": d, "dim_out": d, "ops": ops})))
    for seed in (0, 1, 2):
        probs = np.random.default_rng(seed).dirichlet(np.ones(9)).reshape(3, 3)
        covered.append(choi(KrausChannel(weyl_kraus(probs))))
    for j in covered:
        assert teleportation_covered(j), j.dims
    for kind in ("dephasing", "depolarizing"):
        flags = teleportation_covered(family_choi(kind, grid.reshape(1, -1))[1])
        assert flags.shape == (1, 101) and flags.all(), kind
    # amplitude damping is a Pauli channel only at r = 1, the identity
    flags = teleportation_covered(family_choi("amplitude_damping", grid)[1])
    assert flags.tolist() == [False] * 100 + [True]
    rng = np.random.default_rng(1)
    for ch in (random_channel(3, 3, 2, rng), random_channel(3, 2, 2, rng)):
        assert not teleportation_covered(choi(ch)), (ch.dim_in, ch.dim_out)
    # the tolerance is CHOI_TOL on each off-diagonal Bell-basis entry
    for eps, want in ((0.9 * CHOI_TOL, True), (1.1 * CHOI_TOL, False)):
        off = eps * (np.outer(BELL_PLUS, BELL_MINUS) + np.outer(BELL_MINUS, BELL_PLUS))
        assert teleportation_covered(choi(depolarizing(0.5)).mat + off) == want, eps


def test_dephasing_limits():
    assert trace_distance(choi(dephasing(0.0)).mat,
                          choi(identity(2)).mat) < 1e-12
    c1 = choi(dephasing(1.0))
    np.testing.assert_allclose(c1.mat, np.outer(BELL_MINUS, BELL_MINUS),
                               atol=1e-12)


def test_depolarizing_limits():
    assert trace_distance(choi(depolarizing(0.0)).mat,
                          choi(identity(2)).mat) < 1e-12
    np.testing.assert_allclose(choi(depolarizing(1.0)).mat, np.eye(4) / 4,
                               atol=1e-12)


def test_amplitude_damping_limits():
    assert trace_distance(choi(amplitude_damping(1.0)).mat,
                          choi(identity(2)).mat) < 1e-12
    # full damping: Choi is an even mixture of |00> and |01>, manifestly separable
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[1, 1] = 0.5
    np.testing.assert_allclose(choi(amplitude_damping(0.0)).mat, expected,
                               atol=1e-12)


def test_constructor_rejects_out_of_range():
    for ctor in (dephasing, depolarizing, amplitude_damping):
        with pytest.raises(ValueError):
            ctor(-0.1)
        with pytest.raises(ValueError):
            ctor(1.1)


def test_family_choi_stack_matches_single_channels():
    grid = np.array([0.0, 0.25, 0.5, 2 / 3, 1.0])
    for family in QUBIT_FAMILIES:
        ctor = getattr(channels, family)
        ks, mats = family_choi(family, grid)
        assert ks.shape[::2] == (5, 2) and mats.shape == (5, 4, 4)
        for x, k, mat in zip(grid, ks, mats):
            ch = ctor(float(x))
            np.testing.assert_array_equal(k, ch.kraus)
            np.testing.assert_array_equal(mat, choi(ch).mat)


def test_family_choi_checks_every_point(monkeypatch):
    # a registry entry whose point p = 0.2 loses 1.5e-9 of completeness,
    # which the completeness check (tolerance 1e-9 on sum K^H K) sees first
    key, kraus = QUBIT_FAMILIES["dephasing"]

    def leaky(p):
        return tuple(k * np.sqrt(1.0 - 1.5e-9 * (p == 0.2)) for k in kraus(p))

    with monkeypatch.context() as m:
        m.setitem(QUBIT_FAMILIES, "dephasing", (key, leaky))
        with pytest.raises(ValidationError, match="completeness"):
            family_choi("dephasing", np.array([0.1, 0.2, 0.3]))
    # one bad matrix in the Choi stack, for each state check and the marginal
    good = choi(dephasing(0.1)).mat
    for bad, what in ((np.triu(np.full((4, 4), 0.25)), "Hermitian"),
                      (np.diag([0.6, 0.6, -0.2, 0.0]), "eigenvalue"),
                      (np.eye(4) * 0.3, "trace"),
                      (np.diag([0.7, 0.0, 0.3, 0.0]), "marginal")):
        monkeypatch.setattr(channels, "_choi_gram", lambda ks, bad=bad: np.stack([good, bad]))
        with pytest.raises(ValidationError, match=what):
            family_choi("dephasing", np.array([0.1, 0.2]))


def test_kraus_check_on_stacks():
    good = np.stack([np.eye(2, dtype=complex)])
    _check_kraus(np.stack([good, good]))
    with pytest.raises(ValidationError):
        _check_kraus(np.stack([good, 0.5 * good]))
    with pytest.raises(ValidationError):
        _check_kraus(np.stack([good, np.full_like(good, np.nan)]))


def test_completeness_enforced():
    with pytest.raises(ValidationError):
        KrausChannel((np.eye(2) * 0.5,))


def test_kraus_stack_is_one_read_only_copy():
    ops = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    ch = KrausChannel(ops)
    assert ch.kraus.shape == (2, 2, 2) and ch.kraus.dtype == complex
    assert not ch.kraus.flags.writeable
    ops[0][0, 0] = 5.0
    assert ch.kraus[0, 0, 0] == 1.0
    rng = np.random.default_rng(61)
    for din, dout, count in ((2, 3, 1), (3, 2, 2), (2, 4, 3)):
        assert random_channel(din, dout, count, rng).kraus.shape == (count, dout, din)


def test_kraus_stack_shape_errors():
    for bad in ([np.eye(2)[:, :1], np.eye(2)[:, 1:]],   # a 1 -> 2 stack, incomplete
                [np.eye(2), np.eye(3)]):        # ragged
        with pytest.raises(ValueError):
            KrausChannel(bad)
    # one operator, not a stack of them
    with pytest.raises(ValueError, match=r"shape \(2, 3\), expected \(k >= 1, dim_out, dim_in\)"):
        KrausChannel(np.eye(3)[:2])
    for empty in ((), [], np.zeros((0, 2, 2)), np.zeros((1, 0, 2)), np.zeros((1, 2, 0))):
        with pytest.raises(ValueError, match="k >= 1"):
            KrausChannel(empty)
    with pytest.raises(ValueError, match="must not exceed 64"):
        KrausChannel(np.eye(9)[None])


def test_kraus_channel_sizes_are_the_stack_shape():
    assert [f.name for f in dataclasses.fields(KrausChannel)] == ["kraus"]
    ch = KrausChannel([np.eye(3)])
    assert (ch.dim_in, ch.dim_out) == (3, 3)
    ch = random_channel(3, 2, 2, np.random.default_rng(62))
    assert (ch.dim_in, ch.dim_out) == (3, 2)
    with pytest.raises(AttributeError):
        ch.dim_in = 4


def test_choi_is_a_checked_density_matrix(monkeypatch):
    rho = choi(random_channel(3, 2, 2, np.random.default_rng(63)))
    assert type(rho) is DensityMatrix and rho.dims == (2, 3)
    # a trace-1 PSD gram whose input marginal is not I/2
    monkeypatch.setattr(channels, "_choi_gram", lambda ks: np.diag([0.7, 0.0, 0.3, 0.0]))
    with pytest.raises(ValidationError, match="marginal"):
        choi(dephasing(0.1))


def test_entanglement_breaking_examples():
    # A qubit channel breaks entanglement iff its Choi state is separable,
    # i.e. iff the Choi concurrence vanishes.
    def breaks(ch):
        return concurrence_2q(choi(ch)) == 0.0

    assert breaks(depolarizing(0.7)) is True
    assert breaks(dephasing(0.3)) is False
    assert breaks(identity(2)) is False
    assert breaks(dephasing(0.5)) is True
    assert breaks(amplitude_damping(0.0)) is True


def test_channel_json_constructors():
    assert channel_from_json({"type": "identity", "d": 2}).dim_in == 2
    ch = channel_from_json({"type": "dephasing", "p": 0.3})
    assert trace_distance(choi(ch).mat, choi(dephasing(0.3)).mat) < 1e-12
    ch = channel_from_json({"type": "amplitude_damping", "r": 0.5})
    np.testing.assert_allclose(ch.kraus[0], np.diag([1.0, np.sqrt(0.5)]), atol=1e-12)
    np.testing.assert_allclose(ch.kraus[1], [[0, np.sqrt(0.5)], [0, 0]], atol=1e-12)


def test_channel_json_kraus_form():
    ch = channel_from_json({
        "type": "kraus", "dim_in": 2, "dim_out": 2,
        "ops": [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]],
    })
    assert trace_distance(choi(ch).mat, choi(identity(2)).mat) < 1e-12
    # each [re, im] pair keeps the sign of its zeros
    ch = channel_from_json({
        "type": "kraus", "dim_in": 2, "dim_out": 2,
        "ops": [[[1.0, 0.0], [-0.0, -0.0], [0.0, -0.0], [1.0, 0.0]]],
    })
    k = ch.kraus[0]
    assert np.signbit(k.real).tolist() == [[False, True], [False, False]]
    assert np.signbit(k.imag).tolist() == [[False, True], [True, False]]


def test_channel_json_schema_errors():
    for bad in (
        {"type": "mystery"},
        {"type": "dephasing"},
        {"type": "dephasing", "p": 1.5},
        {"type": "kraus", "dim_in": 2, "dim_out": 2, "ops": []},
        {"type": "kraus", "dim_in": 2, "dim_out": 2, "ops": [[[1, 0]]]},
        {"type": "kraus", "dim_in": True, "dim_out": True, "ops": [[[1, 0]]]},
        {"type": "identity", "d": True},
        ["not", "a", "dict"],
    ):
        with pytest.raises(SchemaError):
            channel_from_json(bad)
    # an integer too large for a float is a schema error naming its field
    for bad, field in (
        ({"type": "dephasing", "p": 10 ** 400}, "'p'"),
        ({"type": "kraus", "dim_in": 1, "dim_out": 1, "ops": [[[10 ** 400, 0]]]}, "'ops'"),
    ):
        with pytest.raises(SchemaError, match=field):
            channel_from_json(bad)


def test_channel_json_unhashable_type():
    with pytest.raises(SchemaError):
        channel_from_json({"type": ["dephasing"], "p": 0.3})


def test_channel_json_completeness_error():
    half = [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.5]]
    with pytest.raises(ValidationError):
        channel_from_json({"type": "kraus", "dim_in": 2, "dim_out": 2, "ops": [half]})
