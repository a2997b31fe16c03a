"""Channel-level cost calculators and strong-converse formula evaluators.

The single-letter bound ec1 of a qubit channel is closed form: evaluate the
concurrence of the Choi state, from the Kraus vectors that factor it, and push
it through the two-qubit entanglement-of-formation formula.  Everything else
here is arithmetic on top of that bound: noisy-storage security thresholds,
figure sweeps, and the finite-blocklength error bounds, plus the polynomial
counting factors that appear in the proofs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .channels import (QUBIT_FAMILIES, KrausChannel, apply, choi, family_choi,
                       teleportation_covered)
from .entanglement import _concurrence, _eof_from_concurrence, eof_numeric, max_entangled
from .entropy import MAX_TABLE_CELLS, binary_h
from .linalg import PureState, random_pure_state


@dataclass(frozen=True)
class ConverseParams:
    """Slack parameters of a strong-converse evaluation: coding at rate
    ``ec + delta2`` for an entanglement-cost stand-in ``ec``."""

    delta1: float
    delta2: float
    dim_in: int
    dim_out: int
    n: int

    def __post_init__(self):
        if not self.delta2 > self.delta1 > 0.0:
            raise ValueError("need delta2 > delta1 > 0")
        if self.n < 1:
            raise ValueError("blocklength n must be at least 1")
        if self.dim_in < 1 or self.dim_out < 1:
            raise ValueError("dimensions must be positive")


def _ec1_from_kraus(ks: np.ndarray):
    """ec1 of each qubit channel of a Kraus stack ``(..., k, 2, 2)``, read off
    the Choi state's factor rows: the Kraus vectors over sqrt(2)."""
    return _eof_from_concurrence(_concurrence(ks.reshape(ks.shape[:-2] + (4,)) / np.sqrt(2.0)))


def ec1_qubit(ch: KrausChannel) -> float:
    """Single-letter bound ec1 of a qubit channel.

    The maximally entangled input maximizes the output concurrence, so the
    bound is the two-qubit entanglement of formation of the Choi state:
    ``h(1/2 + 1/2 sqrt(1 - C^2))``.  Zero exactly when the Choi concurrence
    vanishes, i.e. when the channel is entanglement breaking.
    """
    if ch.dim_in != 2 or ch.dim_out != 2:
        raise ValueError("ec1_qubit supports 2 -> 2 channels only")
    choi(ch)  # for its checks only: a density matrix with input marginal I/2
    return _ec1_from_kraus(ch.kraus)


class Ec1Estimate(NamedTuple):
    value: float
    certified: bool


def ec1_general(ch: KrausChannel, restarts: int = 6, seed: int = 0) -> Ec1Estimate:
    """Single-letter bound for small channels.

    Qubit channels delegate to the certified closed form.  Otherwise the
    maximum of the decomposition-search entanglement of formation over seeded
    pure inputs (the maximally entangled input is always tried) is returned
    uncertified: the inner value upper-bounds each input's entanglement of
    formation, but the outer maximization is heuristic.  The ``restarts``
    inputs of ``dim_in**2`` entries each share the dense-array cap
    ``MAX_TABLE_CELLS``.
    """
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    if ch.dim_in == 2 and ch.dim_out == 2:
        return Ec1Estimate(ec1_qubit(ch), True)
    if ch.dim_in * ch.dim_out > 16:
        raise ValueError("ec1_general supports dim_in * dim_out <= 16")
    if restarts * ch.dim_in ** 2 > MAX_TABLE_CELLS:
        raise ValueError(f"{restarts} restarts of {ch.dim_in ** 2}-entry inputs "
                         f"exceed {MAX_TABLE_CELLS} array entries")

    def value_at(psi):
        out = apply(ch, psi.to_density_matrix())
        return eof_numeric(out, restarts=8, seed=seed).value

    best_psi = max_entangled(ch.dim_in)
    best = value_at(best_psi)
    for i in range(1, restarts):
        psi = random_pure_state((ch.dim_in, ch.dim_in),
                                np.random.default_rng((seed, 11, i)))
        val = value_at(psi)
        if val > best:
            best, best_psi = val, psi
    # Local ascent around the incumbent input.
    rng = np.random.default_rng((seed, 12))
    step = 0.3
    vec = best_psi.vec.copy()
    for _ in range(12):
        trial = vec + step * (rng.standard_normal(vec.size)
                              + 1j * rng.standard_normal(vec.size))
        trial /= np.linalg.norm(trial)
        val = value_at(PureState(best_psi.dims, trial))
        if val > best:
            best, vec = val, trial
        else:
            step *= 0.7
    return Ec1Estimate(best, False)


UNBOUNDED = math.inf


def _nu_max(ec1) -> np.ndarray:
    """Storage-rate threshold 1 / (2 ec1) of each value, unbounded where ec1 is zero."""
    ec1 = np.asarray(ec1, dtype=float)
    return np.divide(1.0, 2.0 * ec1, out=np.full_like(ec1, UNBOUNDED), where=ec1 != 0.0)


def security_threshold(ch: KrausChannel) -> float:
    """Storage rate 1 / (2 ec1) below which two-party security holds.

    The threshold is proven where ec1 upper-bounds the entanglement cost of
    the storage channel N.  Teleportation with the Choi state J gives
    ``E_C(N) <= E_C(J) <= E_F(J) = ec1`` for the channels it simulates, which
    :func:`entcost.channels.teleportation_covered` tells from J.
    Returns ``math.inf`` (the unbounded marker) when the single-letter bound
    is zero, i.e. for entanglement-breaking storage noise, where security
    holds at every storage rate.
    """
    return float(_nu_max(ec1_qubit(ch)))


# Grid points per piece of a curve sweep: a security-region piece takes about 6 MB.
_CHUNK = 4096


def _sweep(f, grid: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out`` filled along its last axis with ``f`` of each ``_CHUNK``-point piece."""
    for start in range(0, grid.size, _CHUNK):
        out[..., start:start + _CHUNK] = f(grid[start:start + _CHUNK])
    return out


def security_region(family: str, grid: Sequence[float]) -> tuple[dict[str, np.ndarray], bool]:
    """Security boundary nu_max(param) = 1/(2 ec1) for one channel family.

    Returns the columns ``{param: grid, "ec1": ..., "nu_max": ...}``, the
    parameter under its wire name (``QUBIT_FAMILIES[family][0]``), and whether
    :func:`entcost.channels.teleportation_covered` proves the boundary at every
    point (always for dephasing and depolarizing).  Each ``_CHUNK``-point piece
    takes one checked Kraus stack and its Choi stack, which that predicate
    reads, then one stacked SVD of the Kraus rows and one array
    :func:`binary_h`: the kernel of :func:`ec1_qubit`, with its values.
    """
    if family not in QUBIT_FAMILIES:
        raise ValueError(f"unknown channel family {family!r}")
    grid = np.asarray(grid, dtype=float)
    covered = []  # one flag per piece, read off the Choi stack of the Kraus stack ec1 reads
    def piece(part):
        ks, mats = family_choi(family, part)
        covered.append(teleportation_covered(mats).all())
        return _ec1_from_kraus(ks)
    ec1 = _sweep(piece, grid, np.empty(grid.shape))
    return {QUBIT_FAMILIES[family][0]: grid, "ec1": ec1, "nu_max": _nu_max(ec1)}, all(covered)


def dephasing_curves(grid: Sequence[float]) -> dict[str, np.ndarray]:
    """Capacity comparison columns for the qubit dephasing channel.

    Per grid point p: the forward-assisted quantum capacity ``q_arrow = 1 - h(p)``,
    the closed-form single-letter cost bound ``ec1 = h(1/2 + sqrt(p(1-p)))``,
    and the entanglement-assisted quantum capacity ``q_e = 1 - h(p)/2``, half
    of ``log2 d + S(B) - S(AB)`` on the Choi state; returned as the columns
    ``{"p", "q_arrow", "ec1", "q_e"}``, from one array :func:`binary_h` per
    ``_CHUNK``-point piece, with the values it gives point by point.  A point
    with q_arrow > ec1 raises, as that would contradict a theorem.

    The flip probability must lie in [0, 1/2]: dephasing at 1 - p is the
    same channel up to a Z rotation, and the capacity expressions are only
    valid on the canonical half of the range.
    """
    p = np.asarray(grid, dtype=float)
    bad = ~((p >= 0.0) & (p <= 0.5 + 1e-12))
    if bad.any():
        raise ValueError(f"dephasing flip probability {p[bad][0]} outside [0, 1/2]")
    h, ec1 = _sweep(lambda part: binary_h(np.stack([part, 0.5 + np.sqrt(part * (1.0 - part))])),
                    p, np.empty((2,) + p.shape))
    q_e = 1.0 - 0.5 * h
    q_arrow = np.subtract(1.0, h, out=h)  # in place: h is spent
    bad = q_arrow > ec1 + 1e-12
    if bad.any():
        i = int(bad.argmax())
        raise RuntimeError(f"capacity bound q_arrow <= ec1 violated at p={p[i]}: "
                           f"{q_arrow[i]}, {ec1[i]}")
    return {"p": p, "q_arrow": q_arrow, "ec1": ec1, "q_e": q_e}


def identity_error_bound(rate: float, n: int) -> float:
    """Strong-converse error floor 1 - 2^(-n(R-1)) for noiseless qubit lines.

    Holds for every code of rate R >= 1 over n uses, with or without
    classical communication assistance.  With no uses the floor is 1 - 2^0 = 0
    at every rate, including R = inf (where ``n * (R - 1)`` would be NaN).
    """
    if not rate >= 1.0:
        raise ValueError("the bound applies to rates >= 1")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return 0.0
    return 1.0 - 2.0 ** (-n * (rate - 1.0))


def simulation_error(n: int, delta1: float, dim_a: int, dim_b: int) -> float:
    """Diamond-norm error of the blocklength-n channel simulation.

    ``(n+1)^(|A|^2 - 1) * 2^(-n delta1^2 / (8 log2(|B|+3)^2))``, evaluated in
    the log domain; decays to 0 for any fixed delta1 > 0.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not delta1 >= 0.0:
        raise ValueError("delta1 must be nonnegative")
    if dim_a < 1 or dim_b < 1:
        raise ValueError("dimensions must be positive")
    log2_val = postselection_factor_log2(n, dim_a) \
        - n * delta1 * delta1 / (8.0 * math.log2(dim_b + 3.0) ** 2)
    if log2_val > 1023.0:
        return math.inf
    return 2.0 ** log2_val


def strong_converse_error_bound(p: ConverseParams, ec: float) -> float:
    """Error floor for coding at rate ec + delta2 over n channel uses.

    ``1 - (n+1)^(|A|^2-1) 2^(-n d1^2 / (8 log2(|B|+3)^2)) - 2^(-n (d2-d1)/(ec+d1) - 1)``.
    May be negative (vacuous) at small n; the value is never clamped here.
    """
    if not ec >= 0.0:
        raise ValueError("ec must be nonnegative")
    alpha = simulation_error(p.n, p.delta1, p.dim_in, p.dim_out)
    exponent = -p.n * (p.delta2 - p.delta1) / (ec + p.delta1) - 1.0
    return 1.0 - alpha - 2.0 ** exponent


def postselection_factor_log2(n: int, dim_a: int) -> float:
    """log2 of the permutation-covariance overhead (n+1)^(|A|^2 - 1)."""
    if n < 0 or dim_a < 1:
        raise ValueError("need n >= 0 and dim_a >= 1")
    return (dim_a * dim_a - 1) * math.log2(n + 1.0)


def definetti_count_log2(n: int, dim_a: int, dim_r: int) -> float:
    """log2 of the product-state decomposition count (n+1)^(2 |A||R| - 2)."""
    if n < 0 or dim_a < 1 or dim_r < 1:
        raise ValueError("need n >= 0 and positive dimensions")
    return (2 * dim_a * dim_r - 2) * math.log2(n + 1.0)


def epsnet_size(chi: int, eps: float, dim_a: int, dim_b: int) -> float:
    """log2 of the covering-net size (2 sqrt(|B|)/eps + 1)^(2 chi |A||B|).

    Returned in the log domain because the linear value overflows quickly;
    diverges as eps -> 0, which is guarded.
    """
    if chi < 1 or dim_a < 1 or dim_b < 1:
        raise ValueError("need chi >= 1 and positive dimensions")
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    return 2.0 * chi * dim_a * dim_b * math.log2(2.0 * math.sqrt(dim_b) / eps + 1.0)
