"""Cost calculators: single-letter bounds, security sweeps, converse formulas."""

import math

import numpy as np
import pytest

from entcost.channels import (
    amplitude_damping,
    choi,
    dephasing,
    depolarizing,
    identity,
    random_channel,
)
from entcost.cost import (
    ConverseParams,
    CurveSample,
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
from entcost.entanglement import eof_numeric
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
        assert est.value >= eof_2q(choi(ch).state) - 1e-6


def test_ec1_general_qutrit_channel():
    rng = np.random.default_rng(1)
    ch = random_channel(3, 3, 2, rng)
    est = ec1_general(ch, restarts=3, seed=0)
    assert not est.certified
    baseline = eof_numeric(choi(ch).state, restarts=8, seed=0).value
    assert est.value >= baseline - 1e-6


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
    rows = security_region("depolarizing", grid)
    assert len(rows) == 11
    assert rows[0].values["nu_max"] == pytest.approx(0.5, abs=1e-9)
    assert rows[-1].values["nu_max"] == UNBOUNDED
    rows = security_region("dephasing", grid)
    assert rows[5].values["nu_max"] == UNBOUNDED  # p = 0.5
    assert math.isfinite(rows[4].values["nu_max"])
    rows = security_region("amplitude_damping", grid)
    assert rows[-1].values["nu_max"] == pytest.approx(0.5, abs=1e-9)
    assert rows[0].values["nu_max"] == UNBOUNDED  # r = 0 storage is useless
    with pytest.raises(ValueError):
        security_region("mystery", grid)


def test_dephasing_curves_endpoints():
    rows = dephasing_curves(np.linspace(0.0, 0.5, 101))
    first = rows[0].values
    assert first["q_arrow"] == first["ec1"] == first["q_e"] == 1.0
    quarter = rows[50].values
    assert quarter["ec1"] == pytest.approx(binary_h(0.5 + math.sqrt(3) / 4), abs=1e-12)
    last = rows[-1].values
    assert last["q_arrow"] == pytest.approx(0.0, abs=1e-12)
    assert last["ec1"] == pytest.approx(0.0, abs=1e-12)
    assert last["q_e"] == pytest.approx(1.0 - 0.5 * binary_h(0.5), abs=1e-12)
    assert last["q_e"] == pytest.approx(0.5, abs=1e-12)
    # the bound attains its maximum 1 only at the noiseless end
    assert max(r.values["ec1"] for r in rows) == 1.0


def test_dephasing_curves_sandwich_everywhere():
    for row in dephasing_curves(np.linspace(0.0, 0.5, 101)):
        assert row.values["q_arrow"] <= row.values["ec1"] + 1e-12
        assert row.values["q_arrow"] <= row.values["q_e"] + 1e-12
        # half of log2 d + S(B) - S(AB) on the Choi state J, output B first
        j = choi(dephasing(row.param)).state.mat
        out = np.einsum("abcb->ac", j.reshape(2, 2, 2, 2))
        s_b, s_ab = (-sum(w * math.log2(w) for w in np.linalg.eigvalsh(m) if w > 1e-15)
                     for m in (out, j))
        assert row.values["q_e"] == pytest.approx((1.0 + s_b - s_ab) / 2, abs=1e-12)


def test_dephasing_curves_rejects_out_of_range():
    with pytest.raises(ValueError):
        dephasing_curves([0.7])


def test_identity_error_bound():
    assert identity_error_bound(2.0, 10) == 1.0 - 2.0 ** -10
    assert identity_error_bound(1.0, 7) == 0.0
    vals = [identity_error_bound(1.5, n) for n in (1, 5, 20, 100)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        identity_error_bound(0.9, 4)


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
        p = ConverseParams(rate=ec + 1.5, delta1=1.0, delta2=1.5,
                           dim_in=2, dim_out=2, n=n)
        vals.append(strong_converse_error_bound(p, ec))
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert vals[0] < 0.0  # vacuous at small n, not clamped
    assert vals[-1] == pytest.approx(1.0, abs=1e-9)


def test_converse_params_validation():
    with pytest.raises(ValueError):
        ConverseParams(rate=1.0, delta1=0.2, delta2=0.2, dim_in=2, dim_out=2, n=10)
    with pytest.raises(ValueError):
        ConverseParams(rate=1.0, delta1=-0.1, delta2=0.2, dim_in=2, dim_out=2, n=10)
    with pytest.raises(ValueError):
        ConverseParams(rate=0.0, delta1=0.1, delta2=0.2, dim_in=2, dim_out=2, n=10)
    with pytest.raises(ValueError):
        ConverseParams(rate=1.0, delta1=0.1, delta2=0.2, dim_in=2, dim_out=2, n=0)
    p = ConverseParams(rate=1.0, delta1=0.1, delta2=0.2, dim_in=2, dim_out=2, n=10)
    with pytest.raises(ValueError):
        strong_converse_error_bound(p, -0.5)


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
    with pytest.raises(ValueError):
        epsnet_size(1, 0.0, 2, 2)


def test_ec1_zero_iff_entanglement_breaking():
    from entcost.channels import is_entanglement_breaking_qubit
    grid = np.linspace(0.0, 1.0, 101)
    for ctor in (dephasing, depolarizing, amplitude_damping):
        for x in grid:
            ch = ctor(float(x))
            assert (ec1_qubit(ch) == 0.0) == is_entanglement_breaking_qubit(ch), (
                ctor.__name__, x)


def test_simulation_error_monotone_on_decade_grid():
    vals = [simulation_error(n, 1.0, 2, 2) for n in (100, 1000, 10_000, 100_000)]
    assert all(b <= a for a, b in zip(vals, vals[1:]))
    assert vals[-1] == pytest.approx(0.0, abs=1e-12)


def test_curve_sample_rejects_nan():
    with pytest.raises(ValueError):
        CurveSample(0.5, {"v": float("nan")})
    CurveSample(0.5, {"v": UNBOUNDED})  # infinities are the unbounded marker
