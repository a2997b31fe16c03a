"""Entanglement measure tests: closed forms, decomposition search, bounds."""

import functools
import math

import numpy as np
import pytest

from entcost.channels import apply, choi, dephasing, random_channel
from entcost.entanglement import (
    Decomposition,
    concurrence_2q,
    eof_2q,
    eof_cq_conditional,
    eof_numeric,
    eof_pure,
    max_entangled,
    one_shot_cost_bounds,
)
from entcost.entropy import binary_h, smooth_h0_cond_cq
from entcost.linalg import (
    RANK_RTOL,
    DensityMatrix,
    PureState,
    haar_isometry,
    purified_distance,
    random_density_matrix,
    random_pure_state,
    schmidt,
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


def bell_dm():
    return DensityMatrix((2, 2), np.outer(BELL_PLUS, BELL_PLUS))


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


def test_concurrence_bell():
    assert concurrence_2q(bell_dm()) == pytest.approx(1.0, abs=1e-12)


def test_concurrence_dephasing_choi():
    for p in (0.0, 0.1, 0.25, 0.5, 0.8, 1.0):
        c = concurrence_2q(choi(dephasing(p)).state)
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
    rho = choi(amplitude_damping(0.5)).state
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
        rhs = concurrence_2q(choi(ch).state) * concurrence_2q(psi.to_density_matrix())
        assert lhs == pytest.approx(rhs, abs=1e-8)


def test_eof_2q_values():
    assert eof_2q(bell_dm()) == pytest.approx(1.0, abs=1e-12)
    got = eof_2q(choi(dephasing(0.25)).state)
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


def test_eof_cq_conditional_examples():
    bell_minus = PureState((2, 2), np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2))
    mix = DensityMatrix((2, 2), 0.5 * bell_dm().mat
                        + 0.5 * bell_minus.to_density_matrix().mat)
    d = Decomposition(((0.5, max_entangled(2)), (0.5, bell_minus)), mix)
    assert eof_cq_conditional(d) == pytest.approx(1.0, abs=1e-12)


def test_eigen_ensemble_is_suboptimal_for_dephasing_choi():
    rho = choi(dephasing(0.25)).state
    w, v = np.linalg.eigh(rho.mat)
    items = []
    for i in range(4):
        if w[i] > 1e-12:
            items.append((float(w[i]), PureState((2, 2), v[:, i])))
    d = Decomposition(tuple(items), rho)
    assert eof_cq_conditional(d) == pytest.approx(1.0, abs=1e-9)
    assert eof_numeric(rho, restarts=8, seed=0).value < 0.3546


def test_eof_numeric_pure_state():
    rng = np.random.default_rng(11)
    psi = random_pure_state((2, 2), rng)
    res = eof_numeric(psi.to_density_matrix(), restarts=3, seed=0)
    assert res.value == pytest.approx(eof_pure(psi), abs=1e-9)
    assert res.restarts_used == 3


def test_eof_numeric_separable_mixture():
    res = eof_numeric(cc_state(), restarts=8, seed=0)
    assert res.value <= 1e-6


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
    # ec1_general makes, on 3x3 marginals (the batched eigvalsh branch)
    for i in range(3):
        rng = np.random.default_rng((7, i))
        small = random_density_matrix((2, 2), 2, rng)
        lift = np.kron(haar_isometry(3, 2, rng), haar_isometry(3, 2, rng))
        rho = DensityMatrix((3, 3), lift @ small.mat @ lift.conj().T)
        res = eof_numeric(rho, restarts=8, seed=i, sweeps=3)
        gap = res.value - eof_2q(small)
        assert -1e-9 <= gap <= 1e-6, (i, gap)


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
        eof_numeric(rho, max_items=1)  # below rank
    with pytest.raises(ValueError):
        eof_numeric(rho, max_items=5)  # above rank squared
    with pytest.raises(ValueError):
        eof_numeric(random_density_matrix((7, 7), 2, rng))  # dimension cap


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
        coeffs, _, _ = schmidt(psi)
        assert coeffs.size == 1  # product branches certify the bound


def test_one_shot_upper_monotone_for_fixed_witness():
    rng = np.random.default_rng(29)
    rho = random_density_matrix((2, 2), 3, rng)
    b = one_shot_cost_bounds(rho, 0.1, restarts=4, seed=0)
    ens = b.witness.marginal_ensemble()
    vals = [smooth_h0_cond_cq(ens, e) for e in (0.0, 0.05, 0.1, 0.3, 0.6)]
    assert all(v2 <= v1 + 1e-12 for v1, v2 in zip(vals, vals[1:]))


def test_one_shot_lower_never_exceeds_upper():
    rng = np.random.default_rng(31)
    for i in range(5):
        rho = random_density_matrix((2, 2), int(rng.integers(1, 5)), rng)
        eps = float(rng.random() * 0.2)
        b = one_shot_cost_bounds(rho, eps, restarts=3, seed=i)
        assert b.lower <= b.upper + 1e-12


def test_one_shot_eps_range():
    with pytest.raises(ValueError):
        one_shot_cost_bounds(bell_dm(), -0.1)
    with pytest.raises(ValueError):
        one_shot_cost_bounds(bell_dm(), 1.5)


def smooth_score_reference(sq, delta):
    """(support, excess) of one decomposition's branch spectra (m, n), branch by
    branch: rank-clamped and raw tails of every branch, summed."""
    n = sq.shape[1]
    clamped_total, raw_total = np.zeros(n + 1), np.zeros(n + 1)
    for w in sq:
        srt = np.sort(w)[::-1]
        clamped = np.where(srt > RANK_RTOL * srt.sum(), srt, 0.0)
        for s in range(n):
            clamped_total[s] += clamped[s:].sum()
            raw_total[s] += srt[s:].sum()
    s = next(s for s in range(n + 1) if clamped_total[s] <= delta)
    return s, (raw_total[s - 1] - delta if s else 0.0)


def test_line_objective_matches_direct_rotation():
    # the batched gram-pack line must agree with rotating every restart's rows
    # outright, in both marginal orientations, for both phase directions and
    # for both objectives
    from entcost.entanglement import _EOF, _EnsembleSearch, _smooth_score, _tails

    angles = np.linspace(-np.pi / 4, np.pi / 4, 9)
    delta = 0.15
    smooth_score = functools.partial(_smooth_score, delta=delta)
    supports = set()
    for dims in ((2, 3), (3, 2), (2, 2), (4, 3)):
        rng = np.random.default_rng(5)
        rho = random_density_matrix(dims, 3, rng)
        s = _EnsembleSearch(rho, None)
        rows = s.start_rows(4, 9)[1:]  # three Haar restarts
        t = np.tile(angles, (len(rows), 1))
        for phase in (1.0 + 0j, 1j):
            eof_vals = s._line(rows, s.parts(rows, _EOF[0]), 0, 1, phase, _EOF)(t)
            smooth_vals = s._line(rows, s.parts(rows, _tails), 0, 1, phase,
                                  (_tails, smooth_score))(t)
            for i, row in enumerate(rows):
                for k, theta in enumerate(angles):
                    c, sn = math.cos(theta), math.sin(theta)
                    rot = row.copy()
                    rot[0] = c * row[0] + sn * phase * row[1]
                    rot[1] = -sn * np.conj(phase) * row[0] + c * row[1]
                    sq = np.linalg.svd(rot.reshape(-1, *dims), compute_uv=False) ** 2
                    p = sq.sum(axis=1)
                    direct = sum(-(w[w > 0] * np.log2(w[w > 0])).sum() for w in sq) \
                        + (p * np.log2(p)).sum()
                    assert eof_vals[i, k] == pytest.approx(direct, abs=1e-12)
                    support, excess = smooth_score_reference(sq, delta)
                    got = math.floor(smooth_vals[i, k] / 2)
                    assert got == support
                    assert smooth_vals[i, k] - 2 * got == pytest.approx(excess, abs=1e-12)
                    supports.add(support)
    assert len(supports) > 1
