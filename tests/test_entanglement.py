"""Entanglement measure tests: closed forms, decomposition search, bounds."""

import functools
import math
import warnings

import numpy as np
import pytest

from entcost.channels import apply, choi, dephasing, random_channel
from entcost.entanglement import (
    Decomposition,
    EofResult,
    concurrence_2q,
    eof_2q,
    eof_cq_conditional,
    eof_numeric,
    eof_pure,
    max_entangled,
    one_shot_cost_bounds,
)
from entcost.entropy import binary_h
from entcost.linalg import (
    RANK_RTOL,
    DensityMatrix,
    PureState,
    ValidationError,
    haar_isometry,
    numerical_rank,
    random_density_matrix,
    random_pure_state,
)

BELL_PLUS = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
SY2 = np.kron(np.array([[0, -1j], [1j, 0]]), np.array([[0, -1j], [1j, 0]]))


def concurrence_oracle(rho: DensityMatrix) -> float:
    """Brute force: eigenvalues of rho @ spin_flip(rho), clamped, rooted."""
    flipped = SY2 @ rho.mat.conj() @ SY2
    evals = np.linalg.eigvals(rho.mat @ flipped)
    evals = np.sort(np.clip(evals.real, 0.0, None))[::-1]
    roots = np.sqrt(evals)
    return max(0.0, roots[0] - roots[1] - roots[2] - roots[3])


def purified_distance(rho: DensityMatrix, sig: DensityMatrix) -> float:
    """sqrt(1 - F^2) of normalized states, with the root fidelity
    F = tr sqrt(sqrt(rho) sig sqrt(rho)) from two eigendecompositions."""
    w, v = np.linalg.eigh(rho.mat)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    f = np.sqrt(np.clip(np.linalg.eigvalsh(root @ sig.mat @ root), 0.0, None)).sum()
    return math.sqrt(max(0.0, 1.0 - f * f))


def bell_dm():
    return DensityMatrix((2, 2), np.outer(BELL_PLUS, BELL_PLUS))


def channel_output(key) -> DensityMatrix:
    """3x3 output of a 2-Kraus channel (a Haar Stinespring isometry) at a
    pure input, both drawn from ``default_rng(key)``."""
    rng = np.random.default_rng(key)
    stine = haar_isometry(6, 3, rng)
    kraus = [np.kron(stine[3 * j:3 * j + 3], np.eye(3)) for j in range(2)]
    psi = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    psi /= np.linalg.norm(psi)
    out = sum(k @ np.outer(psi, psi.conj()) @ k.conj().T for k in kraus)
    out = 0.5 * (out + out.conj().T)
    return DensityMatrix((3, 3), out / out.trace().real)


def never(vals, gg, moved):
    """A ``_descend`` stop predicate that never ends the batch."""
    return False


def cc_state():
    mat = np.zeros((4, 4), dtype=complex)
    mat[0, 0] = mat[3, 3] = 0.5
    return DensityMatrix((2, 2), mat)


def test_max_entangled():
    phi = max_entangled(2)
    np.testing.assert_allclose(phi.vec, BELL_PLUS)
    phi3 = max_entangled(3)
    red = np.einsum("ab,cb->ac", phi3.vec.reshape(3, 3), phi3.vec.reshape(3, 3).conj())
    np.testing.assert_allclose(red, np.eye(3) / 3, atol=1e-12)
    with pytest.raises(ValueError, match="dimension must be positive"):
        max_entangled(0)


def test_concurrence_bell():
    assert concurrence_2q(bell_dm()) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError, match="needs a two-qubit state"):
        concurrence_2q(DensityMatrix((2, 3), np.eye(6) / 6))


def test_concurrence_dephasing_choi():
    for p in (0.0, 0.1, 0.25, 0.5, 0.8, 1.0):
        c = concurrence_2q(choi(dephasing(p)))
        assert c == pytest.approx(abs(1 - 2 * p), abs=1e-12)


def test_concurrence_maximally_mixed():
    assert concurrence_2q(DensityMatrix((2, 2), np.eye(4) / 4)) == 0.0


def test_concurrence_matches_brute_force_oracle():
    rng = np.random.default_rng(3)
    for _ in range(30):
        rho = random_density_matrix((2, 2), int(rng.integers(1, 5)), rng)
        assert concurrence_2q(rho) == pytest.approx(concurrence_oracle(rho),
                                                    abs=1e-6)


def test_concurrence_half_damped_choi():
    from entcost.channels import amplitude_damping
    rho = choi(amplitude_damping(0.5))
    c = concurrence_2q(rho)
    assert 0.0 < c < 1.0
    assert c == pytest.approx(concurrence_oracle(rho), abs=1e-6)
    assert c == pytest.approx(np.sqrt(0.5), abs=1e-9)  # corner coherence 2|c03|


def test_concurrence_multiplicative_under_local_channels():
    rng = np.random.default_rng(5)
    for _ in range(30):
        ch = random_channel(2, 2, int(rng.integers(1, 5)), rng)
        psi = random_pure_state((2, 2), rng)
        out = apply(ch, psi.to_density_matrix())
        lhs = concurrence_2q(out)
        rhs = concurrence_2q(choi(ch)) * concurrence_2q(psi.to_density_matrix())
        assert lhs == pytest.approx(rhs, abs=1e-8)


def test_ec1_qubit_kraus_rows_match_eigenvector_rows():
    # ec1_qubit reads the Kraus vectors as the Choi state's factor; eof_2q
    # reads the eigenvectors of the Choi matrix.  k > 4 Kraus operators make
    # the k x k spin-flip product rank deficient.
    from entcost.cost import ec1_qubit
    rng = np.random.default_rng(31)
    for k in range(1, 9):
        for _ in range(20):
            ch = random_channel(2, 2, k, rng)
            j = choi(ch)
            oracle = binary_h(0.5 + 0.5 * math.sqrt(1.0 - concurrence_oracle(j) ** 2))
            assert abs(ec1_qubit(ch) - eof_2q(j)) <= 1e-12, k
            # below rank 4 the oracle takes square roots of eigenvalue dust,
            # about 1e-17, so it is itself only good to about 1e-8 there
            assert abs(ec1_qubit(ch) - oracle) <= (1e-12 if k >= 4 else 1e-6), k


def test_eof_2q_values():
    assert eof_2q(bell_dm()) == pytest.approx(1.0, abs=1e-12)
    got = eof_2q(choi(dephasing(0.25)))
    want = binary_h(0.5 + math.sqrt(3) / 4)
    assert got == pytest.approx(want, abs=1e-12)
    assert want == pytest.approx(0.354579, abs=1e-6)
    assert eof_2q(cc_state()) == 0.0


def test_eof_pure():
    assert eof_pure(max_entangled(2)) == pytest.approx(1.0, abs=1e-12)
    prod = PureState((2, 2), np.array([1, 0, 0, 0], dtype=complex))
    assert eof_pure(prod) == pytest.approx(0.0, abs=1e-12)
    vec = np.array([np.sqrt(0.8), 0, 0, np.sqrt(0.2)], dtype=complex)
    assert eof_pure(PureState((2, 2), vec)) == pytest.approx(binary_h(0.2), abs=1e-12)
    assert binary_h(0.2) == pytest.approx(0.721928, abs=1e-6)
    # one-sided local dimension 1, and the transposed orientation da > db
    for dims in ((1, 3), (3, 1)):
        prod = PureState(dims, np.array([0, 1, 0], dtype=complex))
        assert eof_pure(prod) == pytest.approx(0.0, abs=1e-12)
    vec = np.zeros(6, dtype=complex)
    vec[0], vec[3] = np.sqrt(0.8), np.sqrt(0.2)  # |00> and |11> on dims (3, 2)
    assert eof_pure(PureState((3, 2), vec)) == pytest.approx(binary_h(0.2), abs=1e-12)


def test_eof_continuity_bound():
    # nearby two-qubit states have nearby entanglement of formation
    rng = np.random.default_rng(7)
    for _ in range(20):
        rho = random_density_matrix((2, 2), int(rng.integers(1, 5)), rng)
        noise = random_density_matrix((2, 2), 4, rng)
        t = 0.002 * rng.random()
        sig = DensityMatrix((2, 2), (1 - t) * rho.mat + t * noise.mat)
        eps = purified_distance(rho, sig)
        if eps > 0.05:
            continue
        bound = 8 * eps * 1.0 + 2 * binary_h(min(2 * eps, 1.0))
        assert abs(eof_2q(rho) - eof_2q(sig)) <= bound + 1e-9


def test_decomposition_validation():
    items = ((1.0, max_entangled(2)),)
    d = Decomposition(items, bell_dm())
    assert eof_cq_conditional(d) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        Decomposition(items, cc_state())  # wrong target
    with pytest.raises(ValueError):
        Decomposition(((0.0, max_entangled(2)),), bell_dm())
    with pytest.raises(ValueError, match="dims do not match"):
        Decomposition(((1.0, max_entangled(2)),),
                      DensityMatrix((4,), np.outer(BELL_PLUS, BELL_PLUS)))
    with pytest.raises(ValueError, match="at least one item"):
        Decomposition((), bell_dm())
    # E_F is an infimum over decompositions of any size: a pure target, of
    # rank 1, also has the two-item decomposition that splits its state
    psi = random_pure_state((2, 3), np.random.default_rng(47))
    d = Decomposition(((0.5, psi), (0.5, psi)), psi.to_density_matrix())
    assert len(d.items) == 2
    assert eof_cq_conditional(d) == eof_pure(psi)


def test_eof_result_derives_its_value():
    # the value is read off the decomposition, never passed in, so the two
    # cannot disagree
    psi = random_pure_state((2, 3), np.random.default_rng(53))
    d = Decomposition(((1.0, psi),), psi.to_density_matrix())
    res = EofResult(d, False)
    assert (res.decomposition, res.converged, res.value) == (d, False, eof_cq_conditional(d))
    with pytest.raises(TypeError):
        EofResult(value=1.0, decomposition=d, converged=True)


def test_eof_cq_conditional_examples():
    bell_minus = PureState((2, 2), np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2))
    mix = DensityMatrix((2, 2), 0.5 * bell_dm().mat
                        + 0.5 * bell_minus.to_density_matrix().mat)
    d = Decomposition(((0.5, max_entangled(2)), (0.5, bell_minus)), mix)
    assert eof_cq_conditional(d) == pytest.approx(1.0, abs=1e-12)


def test_eigen_ensemble_is_suboptimal_for_dephasing_choi():
    rho = choi(dephasing(0.25))
    w, v = np.linalg.eigh(rho.mat)
    items = []
    for i in range(4):
        if w[i] > 1e-12:
            items.append((float(w[i]), PureState((2, 2), v[:, i])))
    d = Decomposition(tuple(items), rho)
    assert eof_cq_conditional(d) == pytest.approx(1.0, abs=1e-9)
    assert eof_numeric(rho, restarts=8, seed=0).value < 0.3546


def test_eof_numeric_pure_state(monkeypatch):
    import entcost.entanglement as entanglement

    rng = np.random.default_rng(11)
    psi = random_pure_state((2, 2), rng)
    res = eof_numeric(psi.to_density_matrix(), restarts=3, seed=0)
    assert res.value == pytest.approx(eof_pure(psi), abs=1e-9)
    assert res.converged  # every restart ends at the single decomposition
    # a rank-1 state has a single decomposition, so a lone restart is stationary
    assert eof_numeric(psi.to_density_matrix(), restarts=1, seed=0).converged
    # a lone restart that ends short of stationary has nothing to agree with:
    # on this full-rank 3x3 state it is still at 6.5e-8 after the step cap
    ends = []
    descend = entanglement._descend
    monkeypatch.setattr(entanglement, "_descend", lambda *a: ends.append(descend(*a)) or ends[-1])
    rho = random_density_matrix((3, 3), 9, np.random.default_rng(3000))
    assert not eof_numeric(rho, restarts=1, seed=1).converged
    assert ends[-1][2][0] > entanglement._STATIONARY


def test_eof_numeric_stops_once_the_best_restart_is_stationary(monkeypatch):
    # criterion-3 state 12: the best restart ends exact while the other two
    # polished restarts creep on; the search stops at the best one's
    # certificate instead of the 1000-step cap (1032 evaluations)
    from entcost.entanglement import _EnsembleSearch

    calls = []
    gradient = _EnsembleSearch.eof_gradient

    def counted(self, w):
        calls.append(len(w))
        return gradient(self, w)

    monkeypatch.setattr(_EnsembleSearch, "eof_gradient", counted)
    rho = random_density_matrix((2, 2), 4, np.random.default_rng(2012))
    res = eof_numeric(rho, restarts=20, seed=12)
    assert res.converged
    assert -1e-9 <= res.value - eof_2q(rho) <= 1e-8
    assert len(calls) <= 200, len(calls)


def test_descend_guards_a_kept_step_of_length_zero():
    # the retraction of w - 0.5 w is w bit for bit, and the trial value 0.5
    # passes the Armijo test, so the kept step has s = 0: its Barzilai-Borwein
    # step would be 0/0, and the guard sets it to 0, which ends the restart
    from entcost.entanglement import _descend

    w = np.eye(2, dtype=complex)[None]
    calls = []

    def objective(x):
        calls.append(x.copy())
        return np.array([1.0 if len(calls) == 1 else 0.5]), 0.5 * w

    with np.errstate(all="raise"):
        vals, out = _descend(w.copy(), 10, objective, never)[:2]
    assert len(calls) == 2
    np.testing.assert_array_equal(calls[1], w)
    np.testing.assert_array_equal(out, w)
    assert vals[0] == 0.5


def test_descend_ends_a_restart_whose_kept_step_leaves_it_unchanged():
    # a 3x3 output of a 2-Kraus channel at a pure input: polishing its top-3
    # screen output for up to 1000 steps without the certificate stop warns
    # of no floating-point error and ends no restart above its screen value;
    # no kept step here has length 0, which only
    # test_descend_guards_a_kept_step_of_length_zero reaches
    from entcost.entanglement import _descend, _EnsembleSearch

    search = _EnsembleSearch(channel_output((5, 4012)))
    vals, w = _descend(search.start(8, 12), 30, search.eof_gradient, never)[:2]
    top = np.argsort(vals, kind="stable")[:3]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        polished = _descend(w[top], 1000, search.eof_gradient, never)[0]
    assert np.all(polished <= vals[top])


def test_eof_numeric_certifies_a_restart_at_its_rounding_floor(monkeypatch):
    # under the monotone Armijo test the best restart of these two outputs
    # stalled with squared gradient norm 1.5e-16, just above the certificate,
    # while its value sat at its rounding floor: 101 and 142 evaluations
    from entcost.entanglement import _EnsembleSearch

    calls = []
    gradient = _EnsembleSearch.eof_gradient

    def counted(self, w):
        calls.append(len(w))
        return gradient(self, w)

    monkeypatch.setattr(_EnsembleSearch, "eof_gradient", counted)
    for i, value in ((3, 0.38530025270864365), (4, 0.46215654907861103)):
        calls.clear()
        res = eof_numeric(channel_output((31, 4000 + i)), restarts=8, seed=i)
        assert res.converged, i
        assert len(calls) <= 30, (i, len(calls))
        assert abs(res.value - value) <= 1e-12, (i, res.value - value)


def test_descend_keeps_every_restart_an_isometry():
    # the polar factor from the eigh of X^H X alone leaves W^H W - I at about
    # eps * lambda_max (2e-15 to 4e-15 on these 32 x 16 mixings); its
    # Newton-Schulz step brings every restart to a few ulp (at most 7e-16)
    from entcost.entanglement import _descend, _EnsembleSearch

    search = _EnsembleSearch(werner(4, -0.9))
    for seed in (1, 2):
        w = _descend(search.start(8, seed), 100, search.eof_gradient, never)[1]
        err = np.abs(np.swapaxes(w.conj(), -1, -2) @ w - np.eye(w.shape[-1])).max(axis=(1, 2))
        assert np.all(err <= 1.5e-15), (seed, err)


def test_start_streams_are_one_haar_isometry_per_restart():
    # one batched QR draws restart i >= 1 from its own stream (seed, stream, i),
    # byte for byte what haar_isometry gives; restart 0 is the spectral ensemble
    from entcost.entanglement import _EnsembleSearch

    for dims, rank in (((2, 2), 4), ((2, 3), 2), ((3, 3), 5)):
        search = _EnsembleSearch(random_density_matrix(dims, rank, np.random.default_rng(9)))
        for seed, stream in ((0, 0), (7, 1)):
            w = search.start(5, seed, stream)
            np.testing.assert_array_equal(w[0], np.eye(search.m, search.rank))
            for i in range(1, 5):
                want = haar_isometry(search.m, search.rank, np.random.default_rng((seed, stream, i)))
                assert w[i].tobytes() == want.tobytes(), (dims, seed, stream, i)
        assert search.start(1, 3).tobytes() == search.start(5, 3)[:1].tobytes()


def test_descend_stop_that_holds_at_the_start_takes_no_step():
    # the predicate sees the start values, squared gradient norms and mask
    # before the first step; holding there, it costs one objective call
    from entcost.entanglement import _descend, _EnsembleSearch, _inner

    search = _EnsembleSearch(random_density_matrix((2, 3), 3, np.random.default_rng(71)))
    start = search.start(5, 2)
    vals0, grad0 = search.eof_gradient(start)
    calls, seen = [], []

    def counted(w):
        calls.append(len(w))
        return search.eof_gradient(w)

    def stop(vals, gg, moved):
        seen.append((vals.copy(), gg.copy(), moved.copy()))
        return vals.min() <= vals0.min()

    vals, w, gg, moved = _descend(start.copy(), 50, counted, stop)
    assert calls == [5] and len(seen) == 1
    assert w.tobytes() == start.tobytes()
    np.testing.assert_array_equal(vals, vals0)
    np.testing.assert_array_equal(gg, _inner(grad0, grad0))
    assert not moved.any()
    for got, want in zip(seen[0], (vals, gg, moved)):
        np.testing.assert_array_equal(got, want)


def test_descend_marks_exactly_the_moved_and_the_zero_restarts():
    # restart 0 is the spectral ensemble: on the Werner state a saddle of zero
    # gradient that never steps, on the classically correlated state a
    # product ensemble at value 0; every Haar restart steps
    from entcost.entanglement import _descend, _EnsembleSearch

    for rho, zero_start in ((werner(3, -0.5), False), (cc_state(), True)):
        search = _EnsembleSearch(rho)
        start = search.start(6, 3)
        vals0 = search.eof_gradient(start)[0]
        vals, w, gg, moved = _descend(start.copy(), 5, search.eof_gradient, never)
        stepped = (w != start).any(axis=(1, 2))
        np.testing.assert_array_equal(moved, stepped | (vals0 <= 0.0))
        assert moved[0] == zero_start and not stepped[0]
        assert stepped[1:].all()
        assert np.all(vals[stepped] < vals0[stepped])


def test_negative_seed_is_refused_at_every_restart_count():
    from entcost.cost import ec1_general

    rho = random_density_matrix((2, 2), 3, np.random.default_rng(73))
    channel = random_channel(3, 2, 2, np.random.default_rng(73))
    for restarts in (1, 2):
        for call in (lambda: eof_numeric(rho, restarts=restarts, seed=-1),
                     lambda: one_shot_cost_bounds(rho, 0.1, restarts=restarts, seed=-1),
                     lambda: ec1_general(channel, restarts=restarts, seed=-1)):
            with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
                call()


def test_eof_numeric_separable_mixture():
    res = eof_numeric(cc_state(), restarts=8, seed=0)
    assert res.value <= 1e-6
    # a lone restart that starts at E_F's floor 0 is exact without a step
    assert eof_numeric(cc_state(), restarts=1, seed=0).converged


def test_eof_numeric_separable_qutrit_mixture():
    # E_F = 0, reached only where every branch turns product and the
    # gradient's log2(sigma / p) diverges on the marginals' kernels
    rng = np.random.default_rng(37)
    mat = np.zeros((9, 9), dtype=complex)
    for w in (0.5, 0.3, 0.2):
        v = np.kron(random_pure_state((3,), rng).vec, random_pure_state((3,), rng).vec)
        mat += w * np.outer(v, v.conj())
    rho = DensityMatrix((3, 3), mat)
    assert np.linalg.matrix_rank(rho.mat) == 3
    res = eof_numeric(rho, restarts=4, seed=0)
    assert math.isfinite(res.value)
    assert 0.0 <= res.value <= 1e-9


def test_eof_numeric_matches_closed_form_rank2():
    rng = np.random.default_rng(13)
    for i in range(6):
        rho = random_density_matrix((2, 2), 2, rng)
        res = eof_numeric(rho, restarts=20, seed=i)
        gap = res.value - eof_2q(rho)
        assert -1e-9 <= gap <= 1e-3


def test_eof_numeric_exact_on_lifted_qutrit_states():
    # E_F is invariant under local isometries, so a two-qubit state lifted to
    # 3x3 keeps its Wootters value: an exact oracle for the search call that
    # ec1_general makes, on 3x3 marginals
    for i in range(8):
        rng = np.random.default_rng((7, i))
        small = random_density_matrix((2, 2), 2, rng)
        lift = np.kron(haar_isometry(3, 2, rng), haar_isometry(3, 2, rng))
        rho = DensityMatrix((3, 3), lift @ small.mat @ lift.conj().T)
        res = eof_numeric(rho, restarts=8, seed=i)
        gap = res.value - eof_2q(small)
        assert -1e-9 <= gap <= 1e-9, (i, gap)


def flagged_direct_sum(rng, blocks):
    """(+)_k p_k rho_k with two-qubit block k on A_k (x) B_k, A_k = B_k =
    span{2k, 2k+1}, block ranks 1-2 and Dirichlet weights; returns the state
    and its exact E_F, sum_k p_k E_F(rho_k) from Wootters per block."""
    d = 2 * blocks
    weights = rng.dirichlet(np.ones(blocks))
    mat = np.zeros((d, d, d, d), dtype=complex)
    exact = 0.0
    for k, p in enumerate(weights):
        block = random_density_matrix((2, 2), int(rng.integers(1, 3)), rng)
        sl = slice(2 * k, 2 * k + 2)
        mat[sl, sl, sl, sl] = p * block.mat.reshape(2, 2, 2, 2)
        exact += p * eof_2q(block)
    return DensityMatrix((d, d), mat.reshape(d * d, d * d)), exact


def test_eof_numeric_exact_on_flagged_direct_sums():
    # With the A_k and the B_k mutually orthogonal, a pure state in the
    # support has marginal entropy at least the weighted sum of its block
    # entropies, so E_F adds over the blocks: an exact oracle on 4x4 (two
    # blocks) and 6x6 (three blocks, total dimension MAX_SEARCH_DIM)
    cases = [(2, i, 8) for i in range(8)] + [(3, i, 4) for i in range(3)]
    for blocks, i, restarts in cases:
        rho, exact = flagged_direct_sum(np.random.default_rng((7000, blocks, i)), blocks)
        res = eof_numeric(rho, restarts=restarts, seed=i)
        assert abs(res.value - exact) <= 1e-9, (blocks, i, res.value - exact)


def werner(d, f):
    """Werner state ((d - f) I + (d f - 1) F) / (d (d^2 - 1)), F the swap,
    whose swap expectation is f."""
    swap = np.eye(d * d).reshape(d, d, d, d).transpose(0, 1, 3, 2).reshape(d * d, d * d)
    return DensityMatrix((d, d), ((d - f) * np.eye(d * d) + (d * f - 1) * swap)
                         / (d * (d * d - 1)))


def test_eof_numeric_exact_on_werner_states():
    # E_F = h(1/2 - sqrt(1 - f^2) / 2) for f < 0 (Vollbrecht and Werner,
    # PRA 64, 062307 (2001)).  The degenerate spectrum makes restart 0, the
    # spectral ensemble, a saddle of zero gradient and the lowest start: it
    # may neither stop the search nor count as converged
    for d, f in ((3, -0.9), (3, -0.5), (3, -0.1), (4, -0.5)):
        res = eof_numeric(werner(d, f), restarts=8, seed=1)
        gap = res.value - binary_h(0.5 - math.sqrt(1 - f * f) / 2)
        assert abs(gap) <= 1e-8, (d, f, gap)
    assert not eof_numeric(werner(3, -0.5), restarts=1, seed=1).converged


def test_eof_numeric_upper_bounds_closed_form():
    rng = np.random.default_rng(17)
    for i in range(5):
        rho = random_density_matrix((2, 2), 4, rng)
        res = eof_numeric(rho, restarts=10, seed=i)
        assert res.value >= eof_2q(rho) - 1e-9
        assert 0.0 <= res.value <= 1.0 + 1e-12


def test_eof_numeric_range_checks():
    rng = np.random.default_rng(19)
    rho = random_density_matrix((2, 2), 2, rng)
    with pytest.raises(ValueError):
        eof_numeric(random_density_matrix((7, 7), 2, rng))  # dimension cap
    with pytest.raises(ValueError):
        eof_numeric(rho, sweeps=0)
    with pytest.raises(ValueError, match="expected a bipartite state"):
        eof_numeric(random_density_matrix((2, 2, 2), 2, rng))
    # one restart guard, in the search's start, for both searches
    for restarts in (0, -3):
        with pytest.raises(ValueError, match="restarts must be at least 1"):
            eof_numeric(rho, restarts=restarts)
        with pytest.raises(ValueError, match="restarts must be at least 1"):
            one_shot_cost_bounds(rho, 0.1, restarts=restarts)
    # the options are keyword-only: an old positional max_items fails
    with pytest.raises(TypeError):
        eof_numeric(rho, 4)
    with pytest.raises(TypeError):
        one_shot_cost_bounds(rho, 0.1, 4)


def test_eof_numeric_decomposition_consistency():
    rng = np.random.default_rng(23)
    rho = random_density_matrix((2, 3), 3, rng)
    res = eof_numeric(rho, restarts=6, seed=1)
    assert res.value == pytest.approx(eof_cq_conditional(res.decomposition),
                                      abs=1e-9)
    total = sum(p for p, _ in res.decomposition.items)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_one_shot_pure_rank_equals_schmidt_rank():
    vec = np.array([np.sqrt(0.5), 0, 0, 0, np.sqrt(0.3), 0, 0, 0, np.sqrt(0.2)],
                   dtype=complex)
    rho = PureState((3, 3), vec).to_density_matrix()
    b = one_shot_cost_bounds(rho, 0.0, restarts=2, seed=0)
    assert b.lower == pytest.approx(math.log2(3), abs=1e-12)
    assert b.upper == pytest.approx(math.log2(3), abs=1e-12)


def test_one_shot_bell():
    b = one_shot_cost_bounds(bell_dm(), 0.0, restarts=2, seed=0)
    assert b.lower == b.upper == 1.0


def test_one_shot_classically_correlated_witness():
    b = one_shot_cost_bounds(cc_state(), 0.0, restarts=4, seed=0)
    assert b.upper == 0.0
    assert b.lower <= b.upper
    for _, psi in b.witness.items:
        sq = np.linalg.svd(psi.vec.reshape(2, 2), compute_uv=False) ** 2
        assert numerical_rank(sq) == 1  # product branches certify the bound


def one_shot_batch(search, eps, restarts, seed):
    """Final mixings of both budgets' restarts run as one batch that never
    stops early, as ``one_shot_cost_bounds`` runs them up to its floor stop."""
    from entcost.entanglement import _SMOOTH_STEPS, _descend

    w = np.concatenate([search.start(restarts, seed, stream) for stream in (0, 1)])
    deltas = np.repeat([0.5 * eps, 2.0 * math.sqrt(eps)], restarts)
    return _descend(w, _SMOOTH_STEPS, search.smooth_gradient, never, deltas)[1]


def test_one_shot_batch_equals_per_budget_search():
    # with a stop that never holds, one batch of both budgets' restarts gives
    # the bytes of one descent per budget, since a restart's trajectory
    # depends only on its own rows; the floor stop ends that batch once both
    # budgets are provably optimal, so it keeps both bounds and may change
    # only the witness
    from entcost.entanglement import _SMOOTH_STEPS, _descend, _EnsembleSearch

    rng = np.random.default_rng(37)
    for dims in ((2, 3), (3, 3)):
        rho = random_density_matrix(dims, 3, rng)
        for eps in (0.01, 0.1):
            search = _EnsembleSearch(rho)
            deltas = (0.5 * eps, 2.0 * math.sqrt(eps))
            alone = np.concatenate([
                _descend(search.start(8, 5, stream), _SMOOTH_STEPS,
                         functools.partial(search.smooth_gradient, delta=delta), never)[1]
                for stream, delta in enumerate(deltas)])
            batch = one_shot_batch(search, eps, 8, 5)
            assert batch.tobytes() == alone.tobytes(), (dims, eps)
            rows = batch @ search.base
            b = one_shot_cost_bounds(rho, eps, seed=5)
            assert b.upper == min(search.smooth_value(rows, deltas[0])), (dims, eps)
            assert b.lower == min(search.smooth_value(rows, deltas[1])), (dims, eps)
            items = b.witness.items
            recon = sum(p * np.outer(psi.vec, psi.vec.conj()) for p, psi in items)
            assert np.abs(recon - rho.mat).max() <= 1e-10, (dims, eps)
            witness = np.array([[math.sqrt(p) * psi.vec for p, psi in items]])
            assert search.smooth_value(witness, deltas[0]) == [b.upper], (dims, eps)


def test_one_shot_stops_at_the_support_floor(monkeypatch):
    # both budgets reach their certified floor within a few steps; without
    # the stop the upper-budget restarts run on to the 200-step cap (201
    # evaluations) and lower an excess that never lowers the support.  At
    # eps = 0 the (61, 1) state reports support 2, its Terhal-Horodecki
    # floor, and stops there because the search scores the reported support
    # (a search that counted its branches' rank noise ran on to the cap)
    from entcost.entanglement import _EnsembleSearch, _support_floors

    calls = []
    gradient = _EnsembleSearch.smooth_gradient

    def counted(self, w, delta):
        calls.append(len(w))
        return gradient(self, w, delta)

    for key, eps, seed, budget in ((40, 0.01, 0, 10), ((61, 1), 0.0, 1, 100)):
        rho = random_density_matrix((3, 3), 3, np.random.default_rng(key))
        search = _EnsembleSearch(rho)
        rows = one_shot_batch(search, eps, 8, seed) @ search.base
        deltas = (0.5 * eps, 2.0 * math.sqrt(eps))
        full = [min(search.smooth_value(rows, d)) for d in deltas]
        assert [2 ** v for v in full] == _support_floors(rho, deltas), key  # certified

        calls.clear()
        monkeypatch.setattr(_EnsembleSearch, "smooth_gradient", counted)
        b = one_shot_cost_bounds(rho, eps, seed=seed)
        monkeypatch.undo()
        assert [b.upper, b.lower] == full, key
        assert len(calls) <= budget, (key, len(calls))
    assert full == [1.0, 1.0]  # the eps-0 state: 1 bit at both budgets


def test_one_shot_stop_keeps_the_bounds_of_the_full_batch():
    # each case fails a rejected stop: at eps = 0, (61, 1), (61, 21) and
    # (62, 11) reach their reported support only after 28-45 steps, which
    # stall rules on the support level or on the best value cut off, and
    # (61, 50) loses it if one spent restart ends its budget; the 2x3
    # states reach their floor but lose it to a spent rule at 1e-2 of the
    # excess or to extrapolating the last drop over the remaining steps;
    # (67, 13) ends by the spent clause
    from entcost.entanglement import _EnsembleSearch

    cases = [((3, 3), 3, 0.0, 8, (61, 1), 1), ((3, 3), 3, 0.0, 8, (61, 21), 21),
             ((3, 3), 3, 0.0, 8, (61, 50), 50), ((3, 3), 4, 0.0, 8, (62, 11), 11),
             ((3, 3), 3, 0.05, 8, (67, 13), 0),
             ((2, 3), 2, 0.2, 2, (63, 110), 110), ((2, 3), 2, 0.2, 2, (63, 376), 376)]
    for dims, rank, eps, restarts, key, seed in cases:
        rho = random_density_matrix(dims, rank, np.random.default_rng(key))
        search = _EnsembleSearch(rho)
        rows = one_shot_batch(search, eps, restarts, seed) @ search.base
        full = tuple(min(search.smooth_value(rows, d)) for d in (2.0 * math.sqrt(eps), 0.5 * eps))
        b = one_shot_cost_bounds(rho, eps, restarts=restarts, seed=seed)
        assert (b.lower, b.upper) == full, key


def test_one_shot_stops_once_every_restart_is_spent(monkeypatch):
    # the floor, support 1 at both budgets, is below the support 2 that the
    # upper budget reaches, so only the spent clause can end the batch; 25
    # calls here, 201 (the cap) with the floor stop alone
    from entcost.entanglement import _EnsembleSearch, _support_floors

    rho = random_density_matrix((3, 3), 3, np.random.default_rng((67, 10)))
    eps = 0.05
    deltas = (0.5 * eps, 2.0 * math.sqrt(eps))
    search = _EnsembleSearch(rho)
    rows = one_shot_batch(search, eps, 8, 0) @ search.base
    full = [min(search.smooth_value(rows, d)) for d in deltas]
    assert _support_floors(rho, deltas) == [1, 1] and 2 ** full[0] == 2

    calls = []
    gradient = _EnsembleSearch.smooth_gradient

    def counted(self, w, delta):
        calls.append(len(w))
        return gradient(self, w, delta)

    monkeypatch.setattr(_EnsembleSearch, "smooth_gradient", counted)
    b = one_shot_cost_bounds(rho, eps, seed=0)
    assert [b.upper, b.lower] == full
    assert len(calls) < 201, len(calls)


def test_one_shot_at_eps_zero_stops_once_either_budget_is_at_the_floor(monkeypatch):
    # at eps 0 both budgets search one problem, so one budget's restart at
    # the floor (support 2) ends the batch; waiting for each budget's own
    # restarts ran all five searches to the 200-step cap (201 evaluations)
    from entcost.entanglement import _EnsembleSearch

    calls = []
    gradient = _EnsembleSearch.smooth_gradient

    def counted(self, w, delta):
        calls.append(len(w))
        return gradient(self, w, delta)

    monkeypatch.setattr(_EnsembleSearch, "smooth_gradient", counted)
    for i in (5, 7, 15, 17, 34):
        calls.clear()
        rho = random_density_matrix((4, 3), 5, np.random.default_rng((64, i)))
        b = one_shot_cost_bounds(rho, 0.0, restarts=2, seed=i)
        assert (b.lower, b.upper) == (1.0, 1.0), i
        assert len(calls) < 201, (i, len(calls))


def test_array_holding_dataclasses_compare_by_identity():
    # a generated __eq__ would compare their arrays and raise; == is identity
    from entcost.entropy import ClassicalJoint

    makers = [bell_dm, lambda: PureState((2, 2), BELL_PLUS), lambda: max_entangled(2),
              lambda: dephasing(0.3), lambda: choi(dephasing(0.3)),
              lambda: ClassicalJoint(np.full((2, 2), 0.25)),
              lambda: Decomposition(((1.0, PureState((2, 2), BELL_PLUS)),), bell_dm()),
              lambda: eof_numeric(bell_dm(), restarts=1),
              lambda: one_shot_cost_bounds(bell_dm(), 0.0, restarts=1)]
    for make in makers:
        a, b = make(), make()
        assert a == a and a != b and not a == b
        assert hash(a) == hash(a) and len({a, b}) == 2


def test_support_floor_never_exceeds_the_reported_support():
    # at both budgets, on both marginal orientations' smaller sides 2 and 3;
    # a budget that covers the trace 1 floors the support at 0
    from entcost.entanglement import _support_floors

    rng = np.random.default_rng(43)
    states = [random_density_matrix(dims, rank, rng)
              for dims in ((2, 2), (2, 3), (3, 3), (2, 4)) for rank in (2, 4)]
    for i, rho in enumerate(states):
        for eps in (0.0, 0.01, 0.05, 0.1, 0.5):
            b = one_shot_cost_bounds(rho, eps, restarts=3, seed=i)
            up, low = _support_floors(rho, (0.5 * eps, 2.0 * math.sqrt(eps)))
            assert up <= 2 ** b.upper and low <= 2 ** b.lower, (i, eps)
        assert _support_floors(rho, (2.0 * math.sqrt(0.5),)) == [0], i


def test_support_floor_exact_on_maximally_entangled_and_product_states():
    from entcost.entanglement import _support_floors

    for d in (2, 3, 4):
        assert _support_floors(max_entangled(d).to_density_matrix(), (0.0,)) == [d]
    rng = np.random.default_rng(47)
    for dims in ((2, 2), (2, 3), (3, 3)):
        a, b = (random_pure_state((d,), rng).vec for d in dims)
        product = PureState(dims, np.kron(a, b)).to_density_matrix()
        assert _support_floors(product, (0.0,)) == [1]


def test_support_floor_invariant_under_local_unitaries():
    from entcost.entanglement import _ppt_ccnr_lambda, _support_floors

    rng = np.random.default_rng(53)
    deltas = (0.0, 0.005, 0.025, 0.2, 0.45)
    for dims in ((2, 2), (2, 3), (3, 3), (2, 4)):
        for rank in (1, 3):
            rho = random_density_matrix(dims, rank, rng)
            u = np.kron(haar_isometry(dims[0], dims[0], rng), haar_isometry(dims[1], dims[1], rng))
            turned = DensityMatrix(dims, u @ rho.mat @ u.conj().T)
            assert _ppt_ccnr_lambda(turned) == pytest.approx(_ppt_ccnr_lambda(rho), abs=1e-12)
            assert _support_floors(turned, deltas) == _support_floors(rho, deltas)


def test_one_shot_witness_bytes_repeat_for_a_seed():
    rho = random_density_matrix((3, 3), 3, np.random.default_rng(59))
    for eps in (0.0, 0.05):
        a, b = (one_shot_cost_bounds(rho, eps, seed=3) for _ in range(2))
        assert (a.lower, a.upper) == (b.lower, b.upper)
        assert [(p, psi.vec.tobytes()) for p, psi in a.witness.items] == \
            [(p, psi.vec.tobytes()) for p, psi in b.witness.items]


def test_one_shot_upper_monotone_for_fixed_witness():
    from entcost.entanglement import _EnsembleSearch

    rng = np.random.default_rng(29)
    rho = random_density_matrix((2, 2), 3, rng)
    b = one_shot_cost_bounds(rho, 0.1, restarts=4, seed=0)
    rows = np.array([[math.sqrt(p) * psi.vec for p, psi in b.witness.items]])
    search = _EnsembleSearch(rho)
    vals = [search.smooth_value(rows, e)[0] for e in (0.0, 0.05, 0.1, 0.3, 0.6)]
    assert vals[1] == b.upper  # the upper bound smooths at eps / 2
    assert all(v2 <= v1 + 1e-12 for v1, v2 in zip(vals, vals[1:]))


def test_one_shot_lower_never_exceeds_upper():
    # both marginal orientations and smaller sides of 2 and 3
    rng = np.random.default_rng(31)
    dims = [(2, 2)] * 5 + [(2, 3), (3, 2), (3, 3)] * 2
    for i, d in enumerate(dims):
        rho = random_density_matrix(d, int(rng.integers(1, d[0] * d[1] + 1)), rng)
        eps = float(rng.random() * 0.2)
        b = one_shot_cost_bounds(rho, eps, restarts=3, seed=i)
        assert b.lower <= b.upper + 1e-12


def test_one_shot_drops_rank_noise_branch_weights():
    # support 2 is reachable at eps = 0: the search drives every branch's
    # Schmidt weights beyond the two largest to rank noise, which the rank
    # rule counts as 0, and the reported bound certifies it
    rho = random_density_matrix((3, 3), 4, np.random.default_rng(17))
    b = one_shot_cost_bounds(rho, 0.0, seed=0)
    assert b.upper == 1.0
    for _, psi in b.witness.items:
        sq = np.linalg.svd(psi.vec.reshape(3, 3), compute_uv=False) ** 2
        assert (sq[2:] <= RANK_RTOL * sq.sum()).all()


def test_one_shot_eps_range():
    with pytest.raises(ValueError):
        one_shot_cost_bounds(bell_dm(), -0.1)
    with pytest.raises(ValueError):
        one_shot_cost_bounds(bell_dm(), 1.5)
    # a zero matrix is no state: it is refused before any search
    with pytest.raises(ValidationError, match="trace 0.0"):
        DensityMatrix((2, 2), np.zeros((4, 4)))


def smooth_score_reference(sq, delta):
    """(support, excess) of one decomposition's branch spectra (m, n), branch by
    branch, both with each Schmidt weight up to ``RANK_RTOL`` of its branch
    weight zeroed (the rank rule)."""
    n = sq.shape[1]
    total = np.zeros(n + 1)
    for w in sq:
        srt = np.sort(w)[::-1]
        kept = np.where(srt > RANK_RTOL * srt.sum(), srt, 0.0)
        for s in range(n):
            total[s] += kept[s:].sum()
    s = next(s for s in range(n + 1) if total[s] <= delta)
    return s, (total[s - 1] - delta if s else 0.0)


def average_entropy(rows, dims):
    """Average branch entropy of unnormalized rows (m, D), from an SVD."""
    sq = np.linalg.svd(rows.reshape(-1, *dims), compute_uv=False) ** 2
    p = sq.sum(axis=1)
    return sum(-(w[w > 0] * np.log2(w[w > 0])).sum() for w in sq) + (p * np.log2(p)).sum()


def smooth_score(rows, dims, delta):
    """``2 support + excess`` of unnormalized rows (m, D) from their SVD spectra."""
    sq = np.linalg.svd(rows.reshape(-1, *dims), compute_uv=False) ** 2
    support, excess = smooth_score_reference(sq, delta)
    return 2 * support + excess


def polar(a):
    """Unitary polar factor of a square matrix."""
    u, _, vh = np.linalg.svd(a)
    return u[:, :a.shape[1]] @ vh


def check_gradient(s, w, objective, reference, floor, rng, h=1e-5):
    """Check ``objective(w)`` of the search ``s`` against ``reference`` of the
    rows, and its gradient against central differences: dF(W(t))/dt =
    2 Re tr(g^H xi) at t = 0 along W(t) = polar(W + t xi) for tangent xi.
    Returns the objective values."""
    vals, grad = objective(w)
    for i in range(len(w)):
        assert vals[i] == pytest.approx(reference(w[i] @ s.base), abs=1e-12)
        x = w[i].conj().T @ grad[i]  # tangent: W^H g is skew-Hermitian
        assert np.abs(x + x.conj().T).max() <= 1e-12
        for _ in range(3):
            z = rng.standard_normal(w[i].shape) + 1j * rng.standard_normal(w[i].shape)
            x = w[i].conj().T @ z
            xi = z - w[i] @ (0.5 * (x + x.conj().T))
            f = [reference(polar(w[i] + t * xi) @ s.base) for t in (h, -h)]
            slope = (f[0] - f[1]) / (2 * h)
            want = 2 * np.vdot(grad[i], xi).real
            assert abs(slope - want) <= max(1e-6 * abs(want), floor)
    return vals


def test_eof_gradient_matches_finite_differences():
    # F is the average entropy, recomputed from the rows by an SVD; both
    # marginal orientations, (2, 3) and (3, 2), and smaller sides of 2 and 3
    from entcost.entanglement import _EnsembleSearch

    for dims in ((2, 2), (2, 3), (3, 2), (3, 3), (4, 3)):
        rng = np.random.default_rng(41)
        rho = random_density_matrix(dims, 3, rng)
        s = _EnsembleSearch(rho)
        w = s.start(4, 3)[1:]  # three Haar mixings
        check_gradient(s, w, s.eof_gradient,
                       functools.partial(average_entropy, dims=dims), 1e-12, rng)


def test_smooth_gradient_matches_finite_differences():
    # F is the smooth score 2 support + excess at three budgets, recomputed
    # branch by branch from the rows by an SVD (the excess slope; support 1
    # has gradient 0); the same shapes as the entropy gradient
    from entcost.entanglement import _EnsembleSearch

    supports = set()
    for dims in ((2, 2), (2, 3), (3, 2), (3, 3), (4, 3)):
        rng = np.random.default_rng(41)
        rho = random_density_matrix(dims, 3, rng)
        s = _EnsembleSearch(rho)
        w = s.start(4, 3)[1:]  # three Haar mixings
        for delta in (0.0, 0.05, 0.15):
            vals = check_gradient(s, w, functools.partial(s.smooth_gradient, delta=delta),
                                  functools.partial(smooth_score, dims=dims, delta=delta),
                                  1e-9, rng)
            supports.update(math.floor(v / 2) for v in vals)
    assert supports == {1, 2, 3}

    # The search and smooth_value share the rank rule: a Schmidt weight of
    # 1e-12 is rank noise to both, so the scored support is the reported one
    vec = np.array([math.sqrt(1 - 1e-12), 0, 0, math.sqrt(1e-12)], dtype=complex)
    s = _EnsembleSearch(PureState((2, 2), vec).to_density_matrix())
    w = s.start(1, 0)
    sq = np.linalg.svd((w[0] @ s.base).reshape(-1, 2, 2), compute_uv=False) ** 2
    assert smooth_score_reference(sq, 0.0) == (1, pytest.approx(1.0 - 1e-12, abs=1e-14))
    score = s.smooth_gradient(w, 0.0)[0][0]
    assert score == pytest.approx(3.0 - 1e-12, abs=1e-14)
    assert math.floor(score / 2) == 2 ** s.smooth_value(w @ s.base, 0.0)[0] == 1
