"""Entropies: von Neumann, log-rank max-entropy H0, and exact smoothing.

All logarithms are base 2.  The smoothing budget is L1 (trace norm):
zeroing an eigenvalue (or a classical atom) of size ``lam`` costs exactly
``lam``, and for states that are classical on the conditioning system the
optimal smoothing commutes with the state, which reduces the quantum problem
to an exact per-column truncation of a classical table (:func:`_smooth_support`).
For a flagged branch ensemble the columns are the branches' squared Schmidt
coefficients; ``entanglement._EnsembleSearch.smooth_value`` builds them and
is the one place that reports that smooth max-entropy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import (
    DensityMatrix,
    ValidationError,
    numerical_rank,
    partial_trace,
)

MAX_TABLE_CELLS = 1 << 20   # cells of a dense classical table, read or built


@dataclass(frozen=True, eq=False)  # == is identity: the fields reach arrays
class ClassicalJoint:
    """Nonnegative joint weight table P(x, y) of shape (nx, ny); may be
    subnormalized.  ``nx`` and ``ny`` read the table's shape."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        if w.ndim != 2 or not w.size:
            raise ValueError(f"weight table shape {w.shape}, expected (nx >= 1, ny >= 1)")
        if not np.all(np.isfinite(w)):
            raise ValidationError("weight table has non-finite entries")
        if w.min() < 0.0:
            raise ValidationError("weight table has negative entries")
        if w.sum() > 1.0 + 1e-12:
            raise ValidationError(f"total weight {w.sum()} exceeds 1")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    nx = property(lambda self: self.weights.shape[0])
    ny = property(lambda self: self.weights.shape[1])

    def total(self) -> float:
        return float(self.weights.sum())


def binary_h(p):
    """Binary entropy in bits of each entry of ``p`` in [0, 1] (a float for a scalar)."""
    p = np.asarray(p, dtype=float)
    bad = ~((p >= -1e-12) & (p <= 1.0 + 1e-12))
    if bad.any():
        raise ValueError(f"binary entropy argument {p[bad][0]} outside [0, 1]")
    h = _entropy_from_eigs(np.minimum(np.stack([p, 1.0 - p], axis=-1), 1.0))
    return float(h) if h.ndim == 0 else h


def _entropy_from_eigs(evals: np.ndarray):
    """Entropy in bits of each spectrum along the last axis, negative
    eigenvalues counted as 0; an entropy of zero is +0.0."""
    w = np.clip(np.asarray(evals, dtype=float), 0.0, None)
    return 0.0 - (w * np.log2(w, out=np.zeros_like(w), where=w > 0.0)).sum(axis=-1)


def von_neumann(rho: DensityMatrix) -> float:
    """Entropy -tr[rho log rho] in bits of a normalized state."""
    return float(_entropy_from_eigs(np.linalg.eigvalsh(rho.mat)))


def cond_von_neumann(rho: DensityMatrix) -> float:
    """Conditional entropy H(A|B) = H(AB) - H(B) of a bipartite state."""
    if len(rho.dims) != 2:
        raise ValueError(f"expected a bipartite state, got dims {rho.dims}")
    return von_neumann(rho) - von_neumann(partial_trace(rho, keep=1))


def _log2_support(s):
    """log2 of each support count in ``s`` (a float for a scalar); 0 gives -inf."""
    out = np.log2(s, out=np.full(np.shape(s), -np.inf), where=np.greater(s, 0))
    return float(out) if out.ndim == 0 else out


def h0(rho: DensityMatrix) -> float:
    """Alternative max-entropy of an unconditioned state: log2 of its rank."""
    return _log2_support(numerical_rank(np.linalg.eigvalsh(rho.mat)))


def _smooth_support(cols: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """(support, excess) of nonnegative weight columns at L1 budget eps.

    Atoms run along axis 0 and columns along the last axis; any axes in
    between are batches, and both results have their shape.  ``support`` is
    the smallest s such that the mass beyond the s largest atoms of every
    column, summed over the columns, fits in eps; atoms are counted as given,
    so callers apply any rank rule first.  ``excess`` is the mass beyond eps
    that one atom fewer would cost: it lies in [0, 1] for weights of total
    at most 1, and is 0 at support 0.
    """
    tails = np.zeros((cols.shape[0] + 1,) + cols.shape[1:])
    tails[:-1] = np.sort(cols, axis=0).cumsum(axis=0)[::-1]
    tails = tails.sum(axis=-1)  # tails[s]: summed mass beyond the s largest atoms
    support = np.argmax(tails <= eps, axis=0)
    below = np.take_along_axis(tails, np.maximum(support - 1, 0)[None], axis=0)[0]
    return support, np.where(support > 0, below - eps, 0.0)


def classical_h0_cond(p: ClassicalJoint) -> float:
    """Max over y of log2 of the exact support size of column y.

    Support counting is exact (entries > 0): classical tables are caller
    supplied data, and smoothing is the sanctioned way to kill small atoms.
    This is the smoothing at budget 0, which keeps every nonzero atom.
    """
    return classical_smooth_h0_cond(p, 0.0)


def classical_smooth_h0_cond(p: ClassicalJoint, eps: float) -> float:
    """Exact smooth conditional max-entropy under an L1 budget.

    The optimal nearby table only lowers atoms to zero, and the cheapest way
    to push every column support to at most s keeps each column's s largest
    atoms.  The per-column costs add, so the optimum is the smallest s whose
    summed tail mass fits in ``eps``; the returned value is log2(s).
    Nonincreasing in ``eps`` and equal to :func:`classical_h0_cond` at 0.
    """
    if not eps >= 0.0:
        raise ValueError(f"smoothing budget {eps} must be nonnegative")
    return _log2_support(_smooth_support(p.weights, eps)[0])


def classical_cond_entropy(p: ClassicalJoint) -> float:
    """Shannon conditional entropy H(X|Y) of a normalized table, in bits."""
    w = p.weights
    return float(_entropy_from_eigs(w.reshape(-1)) - _entropy_from_eigs(w.sum(axis=0)))


def product_table(p: ClassicalJoint, n: int) -> ClassicalJoint:
    """n-fold product distribution on alphabets of size nx**n and ny**n."""
    if n < 1:
        raise ValueError("n must be at least 1")
    w = p.weights
    for _ in range(n - 1):
        w = np.kron(w, p.weights)
    return ClassicalJoint(w)


class AepCheck(NamedTuple):
    lhs: float
    rhs: float
    holds: bool


def aep_check(p: ClassicalJoint, eps: float, n: int) -> AepCheck:
    """Check the finite-n equipartition bound on the smooth max-entropy rate.

    Evaluates ``(1/n) H0^eps`` of the n-fold product exactly and compares it
    against ``H(X|Y) + log2(nx + 3) * sqrt(log2(1/eps^2)) / sqrt(n)``.
    The inequality is a theorem; a failure indicates a bug.
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"aep_check needs eps in (0, 1], got {eps}")
    if abs(p.total() - 1.0) > 1e-9:
        raise ValueError("aep_check expects a normalized table")
    if n * math.log2(p.nx * p.ny) > math.log2(MAX_TABLE_CELLS) + 1e-9:
        raise ValueError(f"product table would exceed {MAX_TABLE_CELLS} cells")
    lhs = classical_smooth_h0_cond(product_table(p, n), eps) / n
    rhs = classical_cond_entropy(p) + (
        math.log2(p.nx + 3) * math.sqrt(math.log2(1.0 / (eps * eps))) / math.sqrt(n))
    return AepCheck(lhs, rhs, bool(lhs <= rhs + 1e-12))


def classical_joint_from_csv(text: str) -> ClassicalJoint:
    """Parse the table wire format: header ``x,y,p``, one row per atom."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or [c.strip() for c in lines[0].split(",")] != ["x", "y", "p"]:
        raise ValueError("classical table CSV must start with header 'x,y,p'")
    atoms = []
    for ln in lines[1:]:
        parts = [c.strip() for c in ln.split(",")]
        if len(parts) != 3:
            raise ValueError(f"malformed table row {ln!r}")
        try:
            x, y, w = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise ValueError(f"malformed table row {ln!r}") from exc
        if x < 0 or y < 0:
            raise ValueError("table indices must be nonnegative")
        atoms.append((x, y, w))
    if not atoms:
        raise ValueError("classical table has no atoms")
    nx = max(a[0] for a in atoms) + 1
    ny = max(a[1] for a in atoms) + 1
    if nx * ny > MAX_TABLE_CELLS:
        raise ValueError(f"a {nx} x {ny} table exceeds {MAX_TABLE_CELLS} cells")
    weights = np.zeros((nx, ny))
    for x, y, w in atoms:
        weights[x, y] += w
    return ClassicalJoint(weights)
