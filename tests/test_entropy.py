"""Entropy tests, including exhaustive oracles for the exact smoothing."""

import itertools
import math

import numpy as np
import pytest

from entcost.entropy import (
    AepCheck,
    ClassicalJoint,
    CQState,
    aep_check,
    binary_h,
    classical_cond_entropy,
    classical_h0_cond,
    classical_joint_from_csv,
    classical_smooth_h0_cond,
    cond_von_neumann,
    h0,
    h0_cond_cq,
    product_table,
    smooth_h0_cond_cq,
    von_neumann,
)
from entcost.linalg import (
    DensityMatrix,
    ValidationError,
    haar_isometry,
    random_density_matrix,
    tensor,
)

BELL_PLUS = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


def brute_force_smooth_h0(weights: np.ndarray, eps: float) -> float:
    """Exhaustive oracle: enumerate every choice of kept atoms per column.

    A smoothing only helps by zeroing atoms, so the optimum is the smallest
    achievable max-column support over all keep-set combinations whose total
    removed mass fits in eps.
    """
    nx, ny = weights.shape
    per_column = []
    for y in range(ny):
        options = []
        for kept in itertools.product([False, True], repeat=nx):
            cost = sum(weights[x, y] for x in range(nx) if not kept[x])
            supp = sum(1 for x in range(nx) if kept[x] and weights[x, y] > 0.0)
            options.append((cost, supp))
        per_column.append(options)
    best = None
    for combo in itertools.product(*per_column):
        cost = sum(c for c, _ in combo)
        if cost <= eps:
            supp = max(s for _, s in combo)
            if best is None or supp < best:
                best = supp
    if best is None or best == 0:
        return float("-inf") if best == 0 else math.nan
    return math.log2(best)


def cq(branches):
    return CQState(tuple(branches))


def dm(diag):
    return DensityMatrix((len(diag),), np.diag(diag).astype(complex))


def test_von_neumann_pure_and_mixed():
    assert von_neumann(dm([1.0, 0.0])) == pytest.approx(0.0, abs=1e-12)
    assert von_neumann(dm([0.25] * 4)) == pytest.approx(2.0, abs=1e-12)
    expected = -(0.7 * math.log2(0.7) + 0.3 * math.log2(0.3))
    assert von_neumann(dm([0.7, 0.3])) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.88129, abs=1e-5)


def test_von_neumann_unitary_invariance_and_additivity():
    rng = np.random.default_rng(2)
    for _ in range(10):
        rho = random_density_matrix((4,), 3, rng)
        u = haar_isometry(4, 4, rng)
        rotated = DensityMatrix((4,), u @ rho.mat @ u.conj().T)
        assert von_neumann(rotated) == pytest.approx(von_neumann(rho), abs=1e-9)
        sig = random_density_matrix((3,), 2, rng)
        prod = DensityMatrix((4, 3), tensor(rho.mat, sig.mat))
        assert von_neumann(prod) == pytest.approx(
            von_neumann(rho) + von_neumann(sig), abs=1e-9)


def test_cond_von_neumann():
    bell = DensityMatrix((2, 2), np.outer(BELL_PLUS, BELL_PLUS))
    assert cond_von_neumann(bell) == pytest.approx(-1.0, abs=1e-9)
    assert cond_von_neumann(DensityMatrix((2, 2), np.eye(4) / 4)) == pytest.approx(1.0)
    state = cq([(0.5, dm([1.0, 0.0])), (0.5, dm([0.5, 0.5]))]).to_density_matrix()
    assert cond_von_neumann(state) == pytest.approx(0.5, abs=1e-9)


def test_binary_h():
    assert binary_h(0.0) == 0.0
    assert binary_h(1.0) == 0.0
    assert binary_h(0.5) == pytest.approx(1.0)
    direct = -0.11 * math.log2(0.11) - 0.89 * math.log2(0.89)
    assert binary_h(0.11) == pytest.approx(direct, abs=1e-15)
    assert direct == pytest.approx(0.4999159581645, abs=1e-12)
    with pytest.raises(ValueError):
        binary_h(1.2)


def test_h0():
    assert h0(dm([1.0, 0.0])) == 0.0
    assert h0(DensityMatrix((2, 2), np.eye(4) / 4)) == 2.0
    assert h0(dm([0.999, 0.001])) == 1.0


def test_h0_cond_cq():
    assert h0_cond_cq(cq([(1.0, dm([0.5, 0.5]))])) == 1.0
    mixed = cq([(0.5, dm([1.0, 0.0])), (0.5, dm([0.5, 0.5]))])
    assert h0_cond_cq(mixed) == 1.0
    ranks = cq([(0.25, dm([1, 0, 0, 0.0])), (0.25, dm([0.5, 0.5, 0, 0])),
                (0.5, dm([0.25] * 4))])
    assert h0_cond_cq(ranks) == 2.0


def test_classical_h0_cond():
    uniform = ClassicalJoint(4, 1, np.full((4, 1), 0.25))
    assert classical_h0_cond(uniform) == 2.0
    table = ClassicalJoint(3, 2, np.array([[0.2, 0.3], [0.2, 0.0], [0.3, 0.0]]))
    assert classical_h0_cond(table) == pytest.approx(math.log2(3))
    prod = ClassicalJoint(2, 2, np.full((2, 2), 0.25))
    assert classical_h0_cond(prod) == 1.0


def test_support_rules_exact_for_tables_rank_rule_for_spectra():
    # a classical atom counts whenever it is > 0, however small
    table = ClassicalJoint(3, 1, np.array([[0.6], [0.4], [1e-300]]))
    assert classical_h0_cond(table) == math.log2(3)
    assert classical_smooth_h0_cond(table, 0.0) == math.log2(3)
    # a branch eigenvalue at or below 1e-9 * max(lmax, 1) is rank noise
    s = cq([(0.5, dm([1.0 - 1e-12, 1e-12])), (0.5, dm([1.0, 0.0]))])
    assert h0_cond_cq(s) == 0.0
    assert smooth_h0_cond_cq(s, 0.0) == 0.0


def test_classical_smooth_h0_single_column():
    col = ClassicalJoint(4, 1, np.array([[0.5], [0.3], [0.15], [0.05]]))
    assert classical_smooth_h0_cond(col, 0.0) == classical_h0_cond(col)
    assert classical_smooth_h0_cond(col, 0.05) == pytest.approx(math.log2(3))
    assert classical_smooth_h0_cond(col, 0.25) == pytest.approx(1.0)
    assert classical_smooth_h0_cond(col, 0.5) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        classical_smooth_h0_cond(col, -0.1)
    with pytest.raises(ValueError):
        classical_smooth_h0_cond(col, float("nan"))


def test_classical_smooth_h0_monotone_in_eps():
    rng = np.random.default_rng(7)
    for _ in range(20):
        w = rng.random((4, 3))
        w /= w.sum()
        table = ClassicalJoint(4, 3, w)
        vals = [classical_smooth_h0_cond(table, e)
                for e in (0.0, 0.01, 0.05, 0.2, 0.5, 0.9)]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_classical_smooth_h0_matches_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(40):
        nx = int(rng.integers(2, 5))
        ny = int(rng.integers(1, 4))
        w = rng.random((nx, ny))
        w[rng.random((nx, ny)) < 0.25] = 0.0
        total = w.sum()
        if total > 0:
            w /= total
        table = ClassicalJoint(nx, ny, w)
        for eps in (0.0, 0.05, 0.2, 0.5):
            got = classical_smooth_h0_cond(table, eps)
            want = brute_force_smooth_h0(w, eps)
            assert got == pytest.approx(want, abs=1e-12), (w, eps)


def test_smooth_h0_cond_cq_examples():
    s = cq([(0.5, dm([0.9, 0.1])), (0.5, dm([0.6, 0.4]))])
    assert smooth_h0_cond_cq(s, 0.0) == h0_cond_cq(s)
    one = cq([(1.0, dm([0.98, 0.02]))])
    assert smooth_h0_cond_cq(one, 0.05) == 0.0
    two = cq([(0.5, dm([0.7, 0.3])), (0.5, dm([0.7, 0.3]))])
    assert smooth_h0_cond_cq(two, 1e-6) == 1.0


def test_smooth_h0_cond_cq_rejects_nan_budget():
    s = cq([(0.5, dm([0.9, 0.1])), (0.5, dm([0.6, 0.4]))])
    with pytest.raises(ValueError):
        smooth_h0_cond_cq(s, float("nan"))


def test_smooth_h0_cond_cq_matches_classical_oracle():
    # branch eigenvalues define the table, so the classical oracle applies
    rng = np.random.default_rng(13)
    for _ in range(10):
        k = int(rng.integers(1, 4))
        weights = rng.random(k)
        weights /= weights.sum()
        branches = [(float(weights[i]), random_density_matrix((3,), int(rng.integers(1, 4)), rng))
                    for i in range(k)]
        s = cq(branches)
        cols = np.zeros((3, k))
        for i, (p, rho) in enumerate(branches):
            ev = np.linalg.eigvalsh(rho.mat)[::-1]
            ev = np.where(ev > 1e-9, ev, 0.0)
            cols[:, i] = p * ev
        for eps in (0.0, 0.05, 0.3):
            got = smooth_h0_cond_cq(s, eps)
            want = brute_force_smooth_h0(cols, eps)
            assert got == pytest.approx(want, abs=1e-12)


def test_h0_dominates_conditional_entropy_on_cq_states():
    rng = np.random.default_rng(17)
    for _ in range(20):
        k = int(rng.integers(1, 4))
        weights = rng.dirichlet(np.ones(k))
        s = cq([(float(weights[i]), random_density_matrix((4,), int(rng.integers(1, 5)), rng))
                for i in range(k)])
        assert h0_cond_cq(s) >= cond_von_neumann(s.to_density_matrix()) - 1e-9


def test_h0_mixing_subadditivity():
    rng = np.random.default_rng(19)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        weights = rng.dirichlet(np.ones(n))
        parts = [random_density_matrix((4,), int(rng.integers(1, 3)), rng)
                 for _ in range(n)]
        mix = DensityMatrix((4,), sum(w * p.mat for w, p in zip(weights, parts)))
        bound = max(h0(p) for p in parts) + math.log2(n)
        assert h0(mix) <= bound + 1e-12


def test_aep_point_mass():
    table = ClassicalJoint(2, 2, np.array([[1.0, 0.0], [0.0, 0.0]]))
    res = aep_check(table, 0.1, 4)
    assert res.lhs == 0.0
    assert res.holds


def test_aep_uniform_binary():
    table = ClassicalJoint(2, 1, np.array([[0.5], [0.5]]))
    res = aep_check(table, 0.1, 4)
    # 16 uniform atoms of 1/16: a 0.1 budget can drop exactly one of them
    assert res.lhs == pytest.approx(math.log2(15) / 4, abs=1e-12)
    assert res.rhs == pytest.approx(
        1.0 + math.log2(5) * math.sqrt(math.log2(100)) / 2.0, abs=1e-12)
    assert res.holds


def test_aep_random_tables():
    rng = np.random.default_rng(23)
    for _ in range(25):
        nx = int(rng.integers(2, 4))
        ny = int(rng.integers(1, 3))
        w = rng.random((nx, ny))
        w /= w.sum()
        table = ClassicalJoint(nx, ny, w)
        for eps in (0.3, 0.1, 0.01):
            for n in (1, 3, 5):
                res = aep_check(table, eps, n)
                assert isinstance(res, AepCheck)
                assert res.holds, (w, eps, n)


def test_aep_table_size_guard():
    table = ClassicalJoint(3, 2, np.full((3, 2), 1 / 6))
    with pytest.raises(ValueError):
        aep_check(table, 0.1, 9)


def test_product_table():
    table = ClassicalJoint(2, 1, np.array([[0.25], [0.75]]))
    prod = product_table(table, 2)
    np.testing.assert_allclose(prod.weights.reshape(-1),
                               [0.0625, 0.1875, 0.1875, 0.5625])


def test_classical_cond_entropy():
    # independent X uniform given Y: H(X|Y) = 1
    table = ClassicalJoint(2, 2, np.full((2, 2), 0.25))
    assert classical_cond_entropy(table) == pytest.approx(1.0)
    skew = ClassicalJoint(2, 2, np.array([[0.5, 0.0], [0.0, 0.5]]))
    assert classical_cond_entropy(skew) == pytest.approx(0.0)


def test_classical_joint_validation():
    with pytest.raises(ValidationError):
        ClassicalJoint(2, 1, np.array([[0.5], [-0.1]]))
    with pytest.raises(ValidationError):
        ClassicalJoint(2, 1, np.array([[0.9], [0.9]]))


def test_cq_state_validation():
    with pytest.raises(ValidationError):
        cq([(0.0, dm([1.0, 0.0]))])
    with pytest.raises(ValidationError):
        cq([(0.9, dm([1.0, 0.0])), (0.9, dm([1.0, 0.0]))])


def test_csv_round_trip():
    text = "x,y,p\n0,0,0.5\n1,0,0.25\n1,1,0.25\n"
    table = classical_joint_from_csv(text)
    assert (table.nx, table.ny) == (2, 2)
    np.testing.assert_allclose(table.weights, [[0.5, 0.0], [0.25, 0.25]])
    with pytest.raises(ValueError):
        classical_joint_from_csv("a,b,c\n1,2,3\n")
