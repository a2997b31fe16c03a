"""Acceptance suite: one test per criterion, one PASS line each (run with -s).

Each criterion pins its tolerance and, where stated, its runtime budget.
The oracles here are deliberately independent of the library paths they
check: eigenvalue brute force for the concurrence, exhaustive subset
enumeration for the smooth max-entropy, and closed forms evaluated inline.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

import entcost as ec
from entcost.cli import run as cli_run

GRID_101 = np.linspace(0.0, 1.0, 101)
SY2 = np.kron(np.array([[0, -1j], [1j, 0]]), np.array([[0, -1j], [1j, 0]]))


def concurrence_oracle(rho):
    """Brute force off the definition: spectrum of rho times its spin flip."""
    flipped = SY2 @ rho.mat.conj() @ SY2
    evals = np.sort(np.clip(np.linalg.eigvals(rho.mat @ flipped).real, 0.0, None))
    roots = np.sqrt(evals[::-1])
    return max(0.0, roots[0] - roots[1] - roots[2] - roots[3])


def brute_smooth_h0(weights, eps_list):
    """Exhaustive smoothing oracle, vectorized over keep-set combinations."""
    nx, ny = weights.shape
    col_cost, col_supp = [], []
    for y in range(ny):
        costs, supps = [], []
        for kept in itertools.product((False, True), repeat=nx):
            costs.append(sum(weights[x, y] for x in range(nx) if not kept[x]))
            supps.append(sum(1 for x in range(nx) if kept[x] and weights[x, y] > 0))
        col_cost.append(np.array(costs))
        col_supp.append(np.array(supps))
    total_cost = col_cost[0]
    total_supp = col_supp[0]
    for y in range(1, ny):
        total_cost = np.add.outer(total_cost, col_cost[y]).reshape(-1)
        total_supp = np.maximum.outer(total_supp, col_supp[y]).reshape(-1)
    out = []
    for eps in eps_list:
        feasible = total_supp[total_cost <= eps]
        s = int(feasible.min())
        out.append(math.log2(s) if s > 0 else float("-inf"))
    return out


def test_criterion_01_dephasing_closed_form():
    t0 = time.perf_counter()
    for p in GRID_101:
        want = ec.binary_h(0.5 + math.sqrt(p * (1.0 - p)))
        got = ec.ec1_qubit(ec.dephasing(p))
        assert abs(got - want) <= 1e-9, (p, got, want)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f} s"
    print(f"\nPASS criterion 1: dephasing ec1 matches the closed form to 1e-9 "
          f"at 101 points in {elapsed:.2f} s")


def dephasing_choi_q_e(p):
    """(log2 d + S(B) - S(AB)) / 2 on the Choi state of rho -> (1-p) rho + p Z rho Z,
    from its Kraus operators and eigenvalues alone."""
    phi = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
    kraus = (math.sqrt(1 - p) * np.eye(2), math.sqrt(p) * np.diag([1.0, -1.0]))
    vecs = [np.kron(np.eye(2), k) @ phi for k in kraus]
    joint = sum(np.outer(v, v.conj()) for v in vecs)
    out = np.einsum("abac->bc", joint.reshape(2, 2, 2, 2))

    def entropy(m):
        w = np.linalg.eigvalsh(m)
        w = w[w > 1e-15]
        return float(-(w * np.log2(w)).sum())

    return (1.0 + entropy(out) - entropy(joint)) / 2


def test_criterion_02_capacity_sandwich():
    rows = ec.dephasing_curves(np.linspace(0.0, 0.5, 101))
    for row in rows:
        v = row.values
        assert v["ec1"] - v["q_arrow"] >= -1e-12, row
        assert v["q_e"] - v["q_arrow"] >= -1e-12, row
        assert abs(v["q_e"] - dephasing_choi_q_e(row.param)) <= 1e-12, row
    first = rows[0].values
    assert first["q_arrow"] == first["ec1"] == first["q_e"] == 1.0
    assert max(r.values["ec1"] for r in rows) == 1.0
    # at maximal dephasing the channel is entanglement breaking: the cost
    # bound meets the forward capacity at zero while q_e is exactly 1/2
    last = rows[-1].values
    assert last["ec1"] == pytest.approx(0.0, abs=1e-12)
    assert last["q_arrow"] == pytest.approx(0.0, abs=1e-12)
    assert last["q_e"] == pytest.approx(0.5, abs=1e-12)
    print("\nPASS criterion 2: q_arrow <= ec1 and q_arrow <= q_e with slack "
          ">= -1e-12 and q_e equal to its Choi-state value to 1e-12 at 101 "
          "points; curves coincide at p=0")


def test_criterion_03_decomposition_search_vs_closed_form():
    t0 = time.perf_counter()
    worst = -math.inf
    for i in range(50):
        rng = np.random.default_rng(1000 + i)
        rho = ec.random_density_matrix((2, 2), 2, rng)
        res = ec.eof_numeric(rho, restarts=20, seed=i)
        gap = res.value - ec.eof_2q(rho)
        assert -1e-9 <= gap <= 1e-8, (i, gap)
        worst = max(worst, gap)
    for i in range(25):
        rng = np.random.default_rng(2000 + i)
        rho = ec.random_density_matrix((2, 2), 4, rng)
        res = ec.eof_numeric(rho, restarts=20, seed=i)
        gap = res.value - ec.eof_2q(rho)
        assert -1e-9 <= gap <= 1e-8, (i, gap)
        worst = max(worst, gap)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f} s"
    print(f"\nPASS criterion 3: 75 states within [-1e-9, 1e-8] of the closed "
          f"form (worst gap {worst:.2e}) in {elapsed:.1f} s")


def test_criterion_04_concurrence_multiplicativity():
    worst = 0.0
    for i in range(50):
        rng = np.random.default_rng(3000 + i)
        ch = ec.random_channel(2, 2, int(rng.integers(1, 5)), rng)
        psi = ec.random_pure_state((2, 2), rng)
        out = ec.apply(ch, psi.to_density_matrix())
        lhs = ec.concurrence_2q(out)
        rhs = ec.concurrence_2q(ec.choi(ch).state) \
            * ec.concurrence_2q(psi.to_density_matrix())
        assert abs(lhs - rhs) <= 1e-8, (i, lhs, rhs)
        worst = max(worst, abs(lhs - rhs))
    print(f"\nPASS criterion 4: concurrence multiplicativity to 1e-8 on 50 "
          f"pairs (worst {worst:.2e})")


def test_criterion_05_entanglement_breaking_thresholds():
    def choi_c(family, x):
        return ec.concurrence_2q(ec.choi(family(x)).state)

    # depolarizing: concurrence vanishes exactly from r = 2/3 on
    lo, hi = 0.0, 1.0
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        if choi_c(ec.depolarizing, mid) > 1e-9:
            lo = mid
        else:
            hi = mid
    assert abs(hi - 2.0 / 3.0) <= 1e-3, hi
    for r in GRID_101:
        c = choi_c(ec.depolarizing, r)
        assert (c <= 1e-9) == (r >= 2.0 / 3.0 - 1e-9), r
        assert ec.is_entanglement_breaking_qubit(ec.depolarizing(r)) == (c <= 1e-9)
        oracle = concurrence_oracle(ec.choi(ec.depolarizing(r)).state)
        assert abs(c - oracle) <= 1e-6
    # dephasing: breaking only at p = 1/2
    for p in GRID_101:
        c = choi_c(ec.dephasing, p)
        assert (c <= 1e-9) == (abs(p - 0.5) < 1e-12), p
        assert ec.is_entanglement_breaking_qubit(ec.dephasing(p)) == (c <= 1e-9)
    # amplitude damping: breaking only at r = 0
    lo, hi = 0.0, 1.0
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        if choi_c(ec.amplitude_damping, mid) <= 1e-9:
            lo = mid
        else:
            hi = mid
    assert hi <= 1e-3, hi
    for r in GRID_101:
        c = choi_c(ec.amplitude_damping, r)
        assert (c <= 1e-9) == (r == 0.0), r
        assert ec.is_entanglement_breaking_qubit(ec.amplitude_damping(r)) == (c <= 1e-9)
    print("\nPASS criterion 5: breaking thresholds located (depolarizing 2/3 "
          "within 1e-3, dephasing only at 1/2, damping only at 0); PPT test "
          "agrees with vanishing concurrence everywhere")


def test_criterion_06_security_regions():
    assert abs(ec.security_threshold(ec.identity(2)) - 0.5) <= 1e-12
    for family, ctor, ident_param, unbounded in (
        ("dephasing", ec.dephasing, 0.0, lambda x: abs(x - 0.5) < 1e-12),
        ("depolarizing", ec.depolarizing, 0.0, lambda x: x >= 2.0 / 3.0 - 1e-9),
        ("amplitude_damping", ec.amplitude_damping, 1.0, lambda x: x == 0.0),
    ):
        rows = ec.security_region(family, GRID_101)
        assert len(rows) == 101
        for row in rows:
            nu = row.values["nu_max"]
            if unbounded(row.param):
                assert math.isinf(nu), (family, row.param)
            else:
                assert abs(nu - 1.0 / (2.0 * row.values["ec1"])) <= 1e-12
                assert nu >= 0.5 - 1e-12
        at_ident = [r for r in rows if r.param == ident_param][0]
        assert abs(at_ident.values["nu_max"] - 0.5) <= 1e-9, family
    print("\nPASS criterion 6: nu_max = 1/(2 ec1), 0.5 at each identity limit, "
          "unbounded past every breaking threshold")


def test_criterion_07_strong_converse_formulas():
    assert ec.identity_error_bound(2.0, 10) == 1.0 - 2.0 ** -10
    ec1 = ec.ec1_qubit(ec.dephasing(0.25))
    vals = []
    for n in (100, 1000, 10_000, 100_000):
        p = ec.ConverseParams(rate=ec1 + 1.5, delta1=1.0, delta2=1.5,
                              dim_in=2, dim_out=2, n=n)
        vals.append(ec.strong_converse_error_bound(p, ec1))
    assert all(b >= a for a, b in zip(vals, vals[1:])), vals
    assert vals[-1] == pytest.approx(1.0, abs=1e-9)
    n = 1
    while ec.simulation_error(n, 0.5, 2, 2) >= 1e-6:
        n += 1
        assert n < 10 ** 6
    assert ec.simulation_error(n, 0.5, 2, 2) < 1e-6
    print(f"\nPASS criterion 7: identity bound exact, channel bound climbs "
          f"monotonically to 1, simulation error < 1e-6 from n = {n}")


def test_criterion_08_smooth_max_entropy_exactness():
    t0 = time.perf_counter()
    eps_list = (0.0, 0.05, 0.2, 0.5)
    rng = np.random.default_rng(42)
    for i in range(200):
        nx = int(rng.integers(2, 5))
        ny = int(rng.integers(1, 4))
        w = rng.random((nx, ny))
        w[rng.random((nx, ny)) < 0.2] = 0.0
        total = w.sum()
        if total > 0:
            w /= total
        table = ec.ClassicalJoint(nx, ny, w)
        want = brute_smooth_h0(w, eps_list)
        for eps, expected in zip(eps_list, want):
            got = ec.classical_smooth_h0_cond(table, eps)
            assert got == expected, (i, eps, got, expected)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"took {elapsed:.1f} s"
    print(f"\nPASS criterion 8: exact smoothing matches exhaustive enumeration "
          f"on 200 tables x 4 budgets in {elapsed:.1f} s")


def test_criterion_09_classical_aep():
    rng = np.random.default_rng(99)
    checked = 0
    for _ in range(100):
        nx = int(rng.integers(2, 4))
        ny = int(rng.integers(1, 3))
        w = rng.random((nx, ny))
        w /= w.sum()
        table = ec.ClassicalJoint(nx, ny, w)
        for n in range(1, 7):
            for eps in (0.3, 0.1, 0.01):
                res = ec.aep_check(table, eps, n)
                assert res.holds, (w, n, eps, res)
                checked += 1
    print(f"\nPASS criterion 9: equipartition bound holds in all {checked} "
          f"checks (100 tables, n = 1..6, three budgets)")


def test_criterion_10_one_shot_bounds_consistency():
    # pure states: both bounds equal the log of the Schmidt rank at eps = 0
    cases = [
        (ec.max_entangled(2).to_density_matrix(), 1.0),
        (ec.PureState((2, 2), np.array([np.sqrt(0.9), 0, 0, np.sqrt(0.1)],
                                       dtype=complex)).to_density_matrix(), 1.0),
        (ec.max_entangled(3).to_density_matrix(), math.log2(3)),
    ]
    for rho, want in cases:
        b = ec.one_shot_cost_bounds(rho, 0.0, restarts=3, seed=0)
        assert b.lower == pytest.approx(want, abs=1e-12)
        assert b.upper == pytest.approx(want, abs=1e-12)
    mat = np.zeros((4, 4), dtype=complex)
    mat[0, 0] = mat[3, 3] = 0.5
    cc = ec.DensityMatrix((2, 2), mat)
    b = ec.one_shot_cost_bounds(cc, 0.0, restarts=4, seed=0)
    assert b.upper == 0.0
    assert b.lower <= b.upper
    for _, psi in b.witness.items:
        coeffs, _, _ = ec.schmidt(psi)
        assert coeffs.size == 1
    print("\nPASS criterion 10: pure-state bounds equal log Schmidt rank at "
          "eps = 0; the correlated-but-separable witness certifies upper = 0")


def test_criterion_11_cli_determinism(capsys):
    deph = '{"type":"dephasing","p":0.25}'
    cc = json.dumps({"dims": [2, 2],
                     "re": [[0.5, 0, 0, 0], [0, 0, 0, 0],
                            [0, 0, 0, 0], [0, 0, 0, 0.5]]})
    commands = [
        ["ec1", "--channel", deph],
        ["choi", "--channel", '{"type":"amplitude_damping","r":0.5}'],
        ["eof", "--state", cc, "--numeric", "--restarts", "4", "--seed", "0"],
        ["one-shot-cost", "--state", cc, "--eps", "0.05", "--seed", "0"],
        ["security-region", "--family", "depolarizing", "--points", "101",
         "--format", "csv"],
        ["dephasing-curves", "--points", "101", "--format", "csv"],
        ["strong-converse", "--channel", deph, "--delta1", "0.5",
         "--delta2", "1.0", "--n", "1000"],
        ["constants", "--postselection", "--n", "3", "--dimA", "2"],
    ]
    for argv in commands:
        outputs = []
        for _ in range(3):
            assert cli_run(list(argv)) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2], argv
    print("\nPASS criterion 11: 8 CLI commands byte-identical across 3 runs")
