"""Cost calculators: single-letter bounds, security sweeps, converse formulas."""

import math

import numpy as np
import pytest

import entcost.channels
from entcost.channels import (
    QUBIT_FAMILIES,
    amplitude_damping,
    choi,
    dephasing,
    depolarizing,
    identity,
    random_channel,
)
from entcost.cost import (
    _CHUNK,
    ConverseParams,
    UNBOUNDED,
    definetti_count_log2,
    dephasing_curves,
    ec1_general,
    ec1_qubit,
    epsnet_size,
    identity_error_bound,
    postselection_factor_log2,
    security_region,
    security_threshold,
    simulation_error,
    strong_converse_error_bound,
)
from entcost.entanglement import _concurrence, eof_numeric
from entcost.entropy import binary_h


def test_ec1_dephasing_closed_form():
    for p in np.linspace(0.0, 1.0, 21):
        want = binary_h(0.5 + math.sqrt(p * (1 - p)))
        assert ec1_qubit(dephasing(p)) == pytest.approx(want, abs=1e-9)


def test_ec1_identity_and_entanglement_breaking():
    assert ec1_qubit(identity(2)) == pytest.approx(1.0, abs=1e-12)
    assert ec1_qubit(depolarizing(0.7)) == 0.0
    assert ec1_qubit(depolarizing(2 / 3)) == 0.0
    assert ec1_qubit(depolarizing(0.6)) > 0.0
    assert ec1_qubit(dephasing(0.5)) == 0.0
    assert ec1_qubit(dephasing(0.3)) > 0.0
    assert ec1_qubit(amplitude_damping(0.0)) == 0.0


def test_ec1_rejects_non_qubit():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        ec1_qubit(random_channel(3, 3, 2, rng))


def test_ec1_general_delegates_for_qubits():
    est = ec1_general(dephasing(0.3), restarts=2, seed=0)
    assert est.certified
    assert est.value == pytest.approx(binary_h(0.5 + math.sqrt(0.21)), abs=1e-9)
    est = ec1_general(identity(2))
    assert est.certified and est.value == pytest.approx(1.0, abs=1e-12)


def test_ec1_general_never_below_choi_eof():
    from entcost.entanglement import eof_2q
    rng = np.random.default_rng(6)
    for _ in range(10):
        ch = random_channel(2, 2, int(rng.integers(1, 5)), rng)
        est = ec1_general(ch, restarts=2, seed=0)
        assert est.value >= eof_2q(choi(ch)) - 1e-6


def test_ec1_general_qutrit_channel():
    rng = np.random.default_rng(1)
    ch = random_channel(3, 3, 2, rng)
    est = ec1_general(ch, restarts=3, seed=0)
    assert not est.certified
    baseline = eof_numeric(choi(ch), restarts=8, seed=0).value
    assert est.value >= baseline - 1e-6


def test_ec1_general_random_inputs_beat_max_entangled():
    # a Haar input adds 0.0245 over the maximally entangled one and the walk
    # another 0.0188; no later search may return less than today's value
    ch = random_channel(3, 2, 2, np.random.default_rng(52))
    est = ec1_general(ch)
    assert not est.certified
    assert est.value >= 0.762563942662 - 1e-9
    assert est.value > eof_numeric(choi(ch), restarts=8, seed=0).value + 0.04


def test_ec1_general_dimension_cap():
    rng = np.random.default_rng(2)
    with pytest.raises(ValueError):
        ec1_general(random_channel(5, 5, 2, rng))


def test_security_threshold_values():
    assert security_threshold(identity(2)) == pytest.approx(0.5, abs=1e-12)
    assert security_threshold(depolarizing(0.8)) == UNBOUNDED
    want = 1.0 / (2.0 * binary_h(0.5 + math.sqrt(3) / 4))
    assert security_threshold(dephasing(0.25)) == pytest.approx(want, abs=1e-9)
    assert want == pytest.approx(1.410123, abs=1e-6)


def test_security_threshold_floor():
    for ch in (identity(2), dephasing(0.1), amplitude_damping(0.7)):
        assert security_threshold(ch) >= 0.5 - 1e-12


def test_security_region_families():
    grid = np.linspace(0.0, 1.0, 11)
    cols, proven = security_region("depolarizing", grid)
    assert proven is True
    assert list(cols) == ["r", "ec1", "nu_max"]
    assert all(len(col) == 11 for col in cols.values())
    assert cols["nu_max"][0] == pytest.approx(0.5, abs=1e-9)
    assert cols["nu_max"][-1] == UNBOUNDED
    cols, proven = security_region("dephasing", grid)
    assert proven is True
    assert list(cols) == ["p", "ec1", "nu_max"]
    assert cols["nu_max"][5] == UNBOUNDED  # p = 0.5
    assert math.isfinite(cols["nu_max"][4])
    cols, proven = security_region("amplitude_damping", grid)
    # teleportation covers amplitude damping only at r = 1, the identity
    assert proven is False
    assert security_region("amplitude_damping", [1.0])[1] is True
    assert cols["nu_max"][-1] == pytest.approx(0.5, abs=1e-9)
    assert cols["nu_max"][0] == UNBOUNDED  # r = 0 storage is useless
    with pytest.raises(ValueError):
        security_region("mystery", grid)


def test_security_region_matches_per_point_path():
    # the stacked sweep against ec1_qubit on one channel at a time, on a grid
    # with the kinks 1/2 (dephasing) and 2/3 (depolarizing) and both ends
    grid = np.concatenate([np.linspace(0.0, 1.0, 61), [0.0, 0.5, 2 / 3, 1.0]])
    for family in QUBIT_FAMILIES:
        ctor = getattr(entcost.channels, family)
        cols, _ = security_region(family, grid)
        assert cols[QUBIT_FAMILIES[family][0]].tolist() == grid.tolist()
        for i, x in enumerate(grid):
            want = ec1_qubit(ctor(float(x)))
            assert cols["ec1"][i] == want, (family, x)  # one kernel for both
            # nu_max is the unbounded marker exactly where ec1 is zero
            assert (cols["nu_max"][i] == UNBOUNDED) == (want == 0.0), (family, x)


def test_security_region_exact_zero_rows():
    def ec1_at(family, xs):
        return security_region(family, xs)[0]["ec1"].tolist()

    assert ec1_at("dephasing", [0.5]) == [0.0]
    assert ec1_at("depolarizing", [2 / 3, 0.7, 0.9, 1.0]) == [0.0] * 4
    assert ec1_at("amplitude_damping", [0.0]) == [0.0]
    for family, x in (("dephasing", 0.5), ("depolarizing", 2 / 3),
                      ("amplitude_damping", 0.0)):
        assert security_region(family, [x])[0]["nu_max"][0] == UNBOUNDED


def test_family_concurrence_matches_closed_forms():
    # the kernel on each family's Kraus rows, against the Bell-basis closed forms
    grid = np.linspace(0.0, 1.0, 2 ** 16)
    for family, want in (("dephasing", np.abs(1.0 - 2.0 * grid)),
                         ("depolarizing", np.maximum(0.0, 1.0 - 1.5 * grid)),
                         ("amplitude_damping", np.sqrt(grid))):
        ks = entcost.channels._family_kraus(family, grid)
        c = _concurrence(ks.reshape(-1, ks.shape[-3], 4) / math.sqrt(2.0))
        assert np.abs(c - want).max() <= 1e-15, family


def test_security_region_rejects_parameters_outside_unit_interval():
    # the range check itself must fire: NaN compares false both ways, and a
    # value past 1 would otherwise surface only as a non-finite Kraus entry
    for family in QUBIT_FAMILIES:
        for bad in (-0.1, 1.5, math.nan):
            with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
                security_region(family, [0.0, 0.5, bad])
            with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
                getattr(entcost.channels, family)(bad)


def test_dephasing_curves_endpoints():
    cols = dephasing_curves(np.linspace(0.0, 0.5, 101))
    assert list(cols) == ["p", "q_arrow", "ec1", "q_e"]
    assert cols["q_arrow"][0] == cols["ec1"][0] == cols["q_e"][0] == 1.0
    assert cols["ec1"][50] == pytest.approx(binary_h(0.5 + math.sqrt(3) / 4), abs=1e-12)
    assert cols["q_arrow"][-1] == pytest.approx(0.0, abs=1e-12)
    assert cols["ec1"][-1] == pytest.approx(0.0, abs=1e-12)
    assert cols["q_e"][-1] == pytest.approx(1.0 - 0.5 * binary_h(0.5), abs=1e-12)
    assert cols["q_e"][-1] == pytest.approx(0.5, abs=1e-12)
    # the bound attains its maximum 1 only at the noiseless end
    assert max(cols["ec1"]) == 1.0


def test_dephasing_curves_sandwich_everywhere():
    cols = dephasing_curves(np.linspace(0.0, 0.5, 101))
    for i, p in enumerate(cols["p"].tolist()):
        assert cols["q_arrow"][i] <= cols["ec1"][i] + 1e-12
        assert cols["q_arrow"][i] <= cols["q_e"][i] + 1e-12
        # half of log2 d + S(B) - S(AB) on the Choi state J, output B first
        j = choi(dephasing(p)).mat
        out = np.einsum("abcb->ac", j.reshape(2, 2, 2, 2))
        s_b, s_ab = (-sum(w * math.log2(w) for w in np.linalg.eigvalsh(m) if w > 1e-15)
                     for m in (out, j))
        assert cols["q_e"][i] == pytest.approx((1.0 + s_b - s_ab) / 2, abs=1e-12)


def test_curves_across_a_chunk_seam():
    # _CHUNK + 3 points take two pieces: each dephasing column is exactly the
    # per-point formula on both sides of the seam
    grid = np.linspace(0.0, 0.5, _CHUNK + 3)
    cols = dephasing_curves(grid)
    h = [binary_h(p) for p in grid.tolist()]
    assert cols["q_arrow"].tolist() == [1.0 - x for x in h]
    assert cols["ec1"].tolist() == [binary_h(0.5 + math.sqrt(p * (1.0 - p)))
                                    for p in grid.tolist()]
    assert cols["q_e"].tolist() == [1.0 - 0.5 * x for x in h]
    # and the security sweep of the whole grid is its two pieces swept apart
    whole = security_region("depolarizing", grid)[0]["ec1"]
    apart = [security_region("depolarizing", g)[0]["ec1"] for g in (grid[:_CHUNK], grid[_CHUNK:])]
    assert whole.tolist() == np.concatenate(apart).tolist()
    # the proof flag reads every piece: only r = 1, the identity, is covered,
    # and an r = 0 in the second piece alone clears it
    ones = np.ones(_CHUNK + 3)
    assert security_region("amplitude_damping", ones)[1] is True
    assert security_region("amplitude_damping", np.append(ones, 0.0))[1] is False


def test_dephasing_curves_rejects_out_of_range():
    with pytest.raises(ValueError):
        dephasing_curves([0.7])


def test_identity_error_bound():
    assert identity_error_bound(2.0, 10) == 1.0 - 2.0 ** -10
    assert identity_error_bound(1.0, 7) == 0.0
    vals = [identity_error_bound(1.5, n) for n in (1, 5, 20, 100)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    for rate in (0.9, math.nan):
        with pytest.raises(ValueError):
            identity_error_bound(rate, 4)
    with pytest.raises(ValueError, match="n must be nonnegative"):
        identity_error_bound(2.0, -1)


def test_identity_error_bound_no_uses():
    # 1 - 2^0 = 0 at every rate, never 0 * inf = NaN
    for rate in (1.0, 2.0, math.inf):
        assert identity_error_bound(rate, 0) == 0.0
    assert identity_error_bound(math.inf, 1) == 1.0


def test_simulation_error_value():
    want = 8.0 * 2.0 ** (-1.0 / (8.0 * math.log2(5.0) ** 2))
    assert simulation_error(1, 1.0, 2, 2) == pytest.approx(want, rel=1e-12)
    # at delta1 = 0 the decay term disappears
    assert simulation_error(3, 0.0, 2, 2) == pytest.approx(64.0)
    with pytest.raises(ValueError, match="delta1"):
        simulation_error(10, math.nan, 2, 2)
    with pytest.raises(ValueError, match="n must be nonnegative"):
        simulation_error(-1, 0.5, 2, 2)
    for dim_a, dim_b in ((0, 2), (2, 0)):
        with pytest.raises(ValueError, match="dimensions must be positive"):
            simulation_error(10, 0.5, dim_a, dim_b)


def test_simulation_error_scan_reaches_small_values():
    target = 0.01
    n = 1
    while simulation_error(n, 0.5, 2, 2) >= target:
        n += 1
        assert n < 100000
    assert simulation_error(n, 0.5, 2, 2) < target
    assert simulation_error(n - 1, 0.5, 2, 2) >= target
    assert 5000 < n < 20000
    # decays monotonically past the peak
    vals = [simulation_error(k, 0.5, 2, 2) for k in range(n, n + 2000, 400)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_strong_converse_error_bound_limits():
    ec = binary_h(0.5 + math.sqrt(3) / 4)
    vals = []
    for n in (100, 1000, 10_000, 100_000):
        p = ConverseParams(delta1=1.0, delta2=1.5, dim_in=2, dim_out=2, n=n)
        vals.append(strong_converse_error_bound(p, ec))
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert vals[0] < 0.0  # vacuous at small n, not clamped
    assert vals[-1] == pytest.approx(1.0, abs=1e-9)


def test_converse_params_validation():
    with pytest.raises(ValueError):
        ConverseParams(delta1=0.2, delta2=0.2, dim_in=2, dim_out=2, n=10)
    with pytest.raises(ValueError):
        ConverseParams(delta1=-0.1, delta2=0.2, dim_in=2, dim_out=2, n=10)
    with pytest.raises(ValueError):
        ConverseParams(delta1=0.1, delta2=0.2, dim_in=2, dim_out=2, n=0)
    for dim_in, dim_out in ((0, 2), (2, 0)):
        with pytest.raises(ValueError, match="dimensions must be positive"):
            ConverseParams(delta1=0.1, delta2=0.2, dim_in=dim_in, dim_out=dim_out, n=10)
    p = ConverseParams(delta1=0.1, delta2=0.2, dim_in=2, dim_out=2, n=10)
    for ec in (-0.5, math.nan):
        with pytest.raises(ValueError):
            strong_converse_error_bound(p, ec)


def test_postselection_factor():
    assert postselection_factor_log2(3, 2) == pytest.approx(6.0)


def test_definetti_count():
    # with a reference of the input size this is the postselection factor squared
    for n in (1, 2, 5):
        assert definetti_count_log2(n, 2, 2) == pytest.approx(
            2 * postselection_factor_log2(n, 2))


def test_epsnet_size():
    assert epsnet_size(1, 1.0, 1, 1) == pytest.approx(math.log2(9.0))
    assert epsnet_size(2, 0.5, 2, 2) == pytest.approx(2 * epsnet_size(1, 0.5, 2, 2))
    for eps in (0.0, math.nan):
        with pytest.raises(ValueError):
            epsnet_size(1, eps, 2, 2)
    # every counting factor refuses a negative n and a size below 1
    for call in (lambda: epsnet_size(0, 0.5, 2, 2), lambda: epsnet_size(1, 0.5, 0, 2),
                 lambda: epsnet_size(1, 0.5, 2, 0), lambda: postselection_factor_log2(-1, 2),
                 lambda: postselection_factor_log2(3, 0), lambda: definetti_count_log2(-1, 2, 2),
                 lambda: definetti_count_log2(3, 0, 2), lambda: definetti_count_log2(3, 2, 0)):
        with pytest.raises(ValueError, match="need"):
            call()


def test_simulation_error_monotone_on_decade_grid():
    vals = [simulation_error(n, 1.0, 2, 2) for n in (100, 1000, 10_000, 100_000)]
    assert all(b <= a for a, b in zip(vals, vals[1:]))
    assert vals[-1] == pytest.approx(0.0, abs=1e-12)
