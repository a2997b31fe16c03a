"""Entropy tests, including exhaustive oracles for the exact smoothing."""

import itertools
import math

import dataclasses
import numpy as np
import pytest

from entcost.channels import dephasing
from entcost.cost import ec1_qubit
from entcost.entropy import (
    AepCheck,
    ClassicalJoint,
    _log2_support,
    aep_check,
    binary_h,
    classical_cond_entropy,
    classical_h0_cond,
    classical_joint_from_csv,
    classical_smooth_h0_cond,
    cond_von_neumann,
    h0,
    product_table,
    von_neumann,
)
from entcost.entanglement import (_EnsembleSearch, eof_2q, eof_cq_conditional,
                                  one_shot_cost_bounds)
from entcost.linalg import (
    RANK_RTOL,
    DensityMatrix,
    ValidationError,
    haar_isometry,
    random_density_matrix,
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


def flagged_rows(branches):
    """Rows sqrt(p_k lam_ki) |ii> (k, n^2) of the flagged ensemble whose branch
    k, of weight p_k, has marginal spectrum lam_k on A (n = len(lam_k))."""
    return np.array([np.diag(np.sqrt(p * np.asarray(lam, dtype=float))).reshape(-1)
                     for p, lam in branches], dtype=complex)


def smooth_h0_cond_cq(rows, dims, eps):
    """The reported smooth conditional max-entropy of the ensemble of ``rows``
    (k, D), each row a branch of weight ``|row|^2``."""
    rows = np.asarray(rows, dtype=complex)
    rho = DensityMatrix(dims, rows.T @ rows.conj())
    return _EnsembleSearch(rho).smooth_value(rows[None], eps)[0]


def h0_cond_cq(branches):
    """Conditional max-entropy of a CQ state from its branch spectra."""
    n = len(branches[0][1])
    return smooth_h0_cond_cq(flagged_rows(branches), (n, n), 0.0)


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
        prod = DensityMatrix((4, 3), np.kron(rho.mat, sig.mat))
        assert von_neumann(prod) == pytest.approx(
            von_neumann(rho) + von_neumann(sig), abs=1e-9)


def test_cond_von_neumann():
    bell = DensityMatrix((2, 2), np.outer(BELL_PLUS, BELL_PLUS))
    assert cond_von_neumann(bell) == pytest.approx(-1.0, abs=1e-9)
    assert cond_von_neumann(DensityMatrix((2, 2), np.eye(4) / 4)) == pytest.approx(1.0)
    # classical on B: 1/2 |0><0| (x) |0><0| + 1/2 I/2 (x) |1><1|
    state = DensityMatrix((2, 2), 0.5 * np.kron(np.diag([1.0, 0.0]), np.diag([1.0, 0.0]))
                          + 0.5 * np.kron(np.eye(2) / 2, np.diag([0.0, 1.0])))
    assert cond_von_neumann(state) == pytest.approx(0.5, abs=1e-9)
    with pytest.raises(ValueError, match="expected a bipartite state"):
        cond_von_neumann(DensityMatrix((2, 2, 2), np.eye(8) / 8))


def test_binary_h():
    assert binary_h(0.0) == 0.0
    assert binary_h(1.0) == 0.0
    assert binary_h(0.5) == pytest.approx(1.0)
    direct = -0.11 * math.log2(0.11) - 0.89 * math.log2(0.89)
    assert binary_h(0.11) == pytest.approx(direct, abs=1e-15)
    assert direct == pytest.approx(0.4999159581645, abs=1e-12)
    with pytest.raises(ValueError):
        binary_h(1.2)


def test_binary_h_is_an_array_function():
    # the argument's shape, and per entry exactly what the scalar call gives
    p = np.linspace(0.0, 1.0, 12).reshape(3, 4)
    h = binary_h(p)
    assert h.shape == (3, 4)
    assert h.tolist() == [[binary_h(x) for x in row] for row in p.tolist()]
    # exactly +0.0 at both ends, also within the 1e-12 clipping margin
    ends = binary_h([0.0, 1.0, -1e-13, 1.0 + 1e-13])
    assert ends.tolist() == [0.0] * 4 and not np.signbit(ends).any()
    # the error names the first entry outside [0, 1], NaN included
    with pytest.raises(ValueError, match=r"argument 1\.5 outside"):
        binary_h([[0.2, 1.5], [-0.5, 0.3]])
    with pytest.raises(ValueError, match=r"argument nan outside"):
        binary_h([0.2, math.nan, 2.0])


def test_log2_support_is_an_array_function():
    s = np.array([[0, 1, 2], [3, 6, 1 << 20]])
    out = _log2_support(s)
    assert out.shape == (2, 3)
    assert out.tolist() == [[_log2_support(k) for k in row] for row in s.tolist()]
    assert out.tolist() == [[-math.inf, 0.0, 1.0], [math.log2(3), math.log2(6), 20.0]]


def test_scalar_arguments_give_python_floats():
    # the CLI's JSON writer takes floats, not 0-d arrays
    assert type(binary_h(0.3)) is float and type(binary_h(np.float64(0.3))) is float
    assert type(_log2_support(3)) is float and _log2_support(0) == -math.inf
    assert type(eof_2q(DensityMatrix((2, 2), np.outer(BELL_PLUS, BELL_PLUS.conj())))) is float
    assert type(ec1_qubit(dephasing(0.2))) is float
    assert type(h0(dm([0.5, 0.5]))) is float


def test_h0():
    assert h0(dm([1.0, 0.0])) == 0.0
    assert h0(DensityMatrix((2, 2), np.eye(4) / 4)) == 2.0
    assert h0(dm([0.999, 0.001])) == 1.0


def test_h0_cond_cq():
    assert h0_cond_cq([(1.0, [0.5, 0.5])]) == 1.0
    assert h0_cond_cq([(0.5, [1.0, 0.0]), (0.5, [0.5, 0.5])]) == 1.0
    ranks = [(0.25, [1, 0, 0, 0.0]), (0.25, [0.5, 0.5, 0, 0]), (0.5, [0.25] * 4)]
    assert h0_cond_cq(ranks) == 2.0


def test_classical_h0_cond():
    uniform = ClassicalJoint(np.full((4, 1), 0.25))
    assert classical_h0_cond(uniform) == 2.0
    table = ClassicalJoint(np.array([[0.2, 0.3], [0.2, 0.0], [0.3, 0.0]]))
    assert classical_h0_cond(table) == pytest.approx(math.log2(3))
    prod = ClassicalJoint(np.full((2, 2), 0.25))
    assert classical_h0_cond(prod) == 1.0


def test_support_rules_exact_for_tables_rank_rule_for_spectra():
    # a classical atom counts whenever it is > 0, however small
    table = ClassicalJoint(np.array([[0.6], [0.4], [1e-300]]))
    assert classical_h0_cond(table) == math.log2(3)
    assert classical_smooth_h0_cond(table, 0.0) == math.log2(3)
    # a branch's Schmidt weight at or below RANK_RTOL of its branch weight is
    # rank noise
    assert h0_cond_cq([(0.5, [1.0 - 1e-12, 1e-12]), (0.5, [1.0, 0.0])]) == 0.0


def test_classical_smooth_h0_single_column():
    col = ClassicalJoint(np.array([[0.5], [0.3], [0.15], [0.05]]))
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
        table = ClassicalJoint(w)
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
        table = ClassicalJoint(w)
        for eps in (0.0, 0.05, 0.2, 0.5):
            got = classical_smooth_h0_cond(table, eps)
            want = brute_force_smooth_h0(w, eps)
            assert got == pytest.approx(want, abs=1e-12), (w, eps)


def test_smooth_h0_cond_cq_examples():
    s = flagged_rows([(0.5, [0.9, 0.1]), (0.5, [0.6, 0.4])])
    assert smooth_h0_cond_cq(s, (2, 2), 0.0) == 1.0
    one = flagged_rows([(1.0, [0.98, 0.02])])
    assert smooth_h0_cond_cq(one, (2, 2), 0.05) == 0.0
    two = flagged_rows([(0.5, [0.7, 0.3]), (0.5, [0.7, 0.3])])
    assert smooth_h0_cond_cq(two, (2, 2), 1e-6) == 1.0


def test_smooth_h0_cond_cq_rejects_nan_budget():
    with pytest.raises(ValueError):
        one_shot_cost_bounds(DensityMatrix((2, 2), np.eye(4) / 4), float("nan"))


def test_smooth_h0_cond_cq_matches_classical_oracle():
    # the weighted squared Schmidt coefficients of the branches, under the
    # rank rule, define the table, so the classical oracle applies; both
    # orientations of the smaller side
    rng = np.random.default_rng(13)
    cases = []
    for dims in ((2, 3), (3, 2), (3, 3)):
        for _ in range(4):
            shape = (int(rng.integers(1, 4)), dims[0] * dims[1])
            rows = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            cases.append((rows / np.linalg.norm(rows), dims))
    # a branch whose second Schmidt weight, 1e-12, is rank noise: 0 bits, not
    # the 1 bit of the raw table
    noisy = flagged_rows([(0.5, [1.0 - 1e-12, 1e-12]), (0.5, [1.0, 0.0])])
    assert smooth_h0_cond_cq(noisy, (2, 2), 0.0) == 0.0
    cases.append((noisy, (2, 2)))
    for rows, dims in cases:
        sq = np.linalg.svd(rows.reshape(-1, *dims), compute_uv=False) ** 2
        cols = np.where(sq > RANK_RTOL * sq.sum(axis=1, keepdims=True), sq, 0.0).T
        for eps in (0.0, 0.05, 0.3):
            got = smooth_h0_cond_cq(rows, dims, eps)
            assert got == pytest.approx(brute_force_smooth_h0(cols, eps), abs=1e-12)


def test_h0_dominates_conditional_entropy_on_cq_states():
    # H0(A|X) >= H(A|X) on the flagged ensemble of every decomposition
    rng = np.random.default_rng(17)
    for dims in ((2, 2), (2, 3), (3, 3)):
        for _ in range(4):
            rho = random_density_matrix(dims, int(rng.integers(1, dims[0] * dims[1] + 1)), rng)
            search = _EnsembleSearch(rho)
            rows = search.start(4, int(rng.integers(100))) @ search.base
            for i, h in enumerate(search.smooth_value(rows, 0.0)):
                assert h >= eof_cq_conditional(search.decomposition(rows[i])) - 1e-9


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
    table = ClassicalJoint(np.array([[1.0, 0.0], [0.0, 0.0]]))
    res = aep_check(table, 0.1, 4)
    assert res.lhs == 0.0
    assert res.holds


def test_aep_uniform_binary():
    table = ClassicalJoint(np.array([[0.5], [0.5]]))
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
        table = ClassicalJoint(w)
        for eps in (0.3, 0.1, 0.01):
            for n in (1, 3, 5):
                res = aep_check(table, eps, n)
                assert isinstance(res, AepCheck)
                assert res.holds, (w, eps, n)


def test_aep_table_size_guard():
    table = ClassicalJoint(np.full((3, 2), 1 / 6))
    with pytest.raises(ValueError):
        aep_check(table, 0.1, 9)
    # eps outside (0, 1] would leave the sqrt(log2(1/eps^2)) term undefined
    for eps in (0.0, -0.1, 1.5, math.nan):
        with pytest.raises(ValueError, match=r"eps in \(0, 1\]"):
            aep_check(table, eps, 2)
    assert aep_check(table, 1.0, 2).holds
    with pytest.raises(ValueError, match="expects a normalized table"):
        aep_check(ClassicalJoint(np.full((2, 1), 0.25)), 0.1, 2)


def test_product_table():
    table = ClassicalJoint(np.array([[0.25], [0.75]]))
    prod = product_table(table, 2)
    np.testing.assert_allclose(prod.weights.reshape(-1),
                               [0.0625, 0.1875, 0.1875, 0.5625])
    with pytest.raises(ValueError, match="n must be at least 1"):
        product_table(table, 0)


def test_classical_cond_entropy():
    # independent X uniform given Y: H(X|Y) = 1
    table = ClassicalJoint(np.full((2, 2), 0.25))
    assert classical_cond_entropy(table) == pytest.approx(1.0)
    skew = ClassicalJoint(np.array([[0.5, 0.0], [0.0, 0.5]]))
    assert classical_cond_entropy(skew) == pytest.approx(0.0)


def test_classical_joint_validation():
    with pytest.raises(ValidationError):
        ClassicalJoint(np.array([[0.5], [-0.1]]))
    with pytest.raises(ValidationError):
        ClassicalJoint(np.array([[0.9], [0.9]]))
    with pytest.raises(ValidationError, match="non-finite"):
        ClassicalJoint(np.array([[np.inf]]))
    for bad in (np.array([0.5, 0.5]), np.zeros((0, 2)), np.zeros((2, 0)), np.full((1, 1, 1), 0.5)):
        with pytest.raises(ValueError, match=r"expected \(nx >= 1, ny >= 1\)"):
            ClassicalJoint(bad)
    # the alphabet sizes are the table's shape, not a second record
    assert [f.name for f in dataclasses.fields(ClassicalJoint)] == ["weights"]
    assert (ClassicalJoint(np.full((3, 2), 1 / 6)).nx, ClassicalJoint(np.zeros((3, 2))).ny) == (3, 2)


def test_csv_round_trip():
    text = "x,y,p\n0,0,0.5\n1,0,0.25\n1,1,0.25\n"
    table = classical_joint_from_csv(text)
    assert (table.nx, table.ny) == (2, 2)
    np.testing.assert_allclose(table.weights, [[0.5, 0.0], [0.25, 0.25]])
    with pytest.raises(ValueError):
        classical_joint_from_csv("a,b,c\n1,2,3\n")
