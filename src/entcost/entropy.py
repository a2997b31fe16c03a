"""Entropies: von Neumann, log-rank max-entropy H0, and exact smoothing.

All logarithms are base 2.  The smoothing model is trace-distance budget:
zeroing an eigenvalue (or a classical atom) of size ``lam`` costs exactly
``lam``, and for states that are classical on the conditioning system the
optimal smoothing commutes with the state, which reduces the quantum problem
to an exact per-column truncation of a classical table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import (
    TRACE_TOL,
    DensityMatrix,
    ValidationError,
    numerical_rank,
    partial_trace,
)


@dataclass(frozen=True)
class ClassicalJoint:
    """Nonnegative joint weight table P(x, y); may be subnormalized."""

    nx: int
    ny: int
    weights: np.ndarray

    def __post_init__(self):
        nx, ny = int(self.nx), int(self.ny)
        if nx < 1 or ny < 1:
            raise ValueError("alphabet sizes must be positive")
        w = np.array(self.weights, dtype=float)
        if w.shape != (nx, ny):
            raise ValueError(f"weight table shape {w.shape}, expected {(nx, ny)}")
        if not np.all(np.isfinite(w)):
            raise ValidationError("weight table has non-finite entries")
        if w.min() < 0.0:
            raise ValidationError("weight table has negative entries")
        if w.sum() > 1.0 + 1e-12:
            raise ValidationError(f"total weight {w.sum()} exceeds 1")
        w.setflags(write=False)
        object.__setattr__(self, "nx", nx)
        object.__setattr__(self, "ny", ny)
        object.__setattr__(self, "weights", w)

    def total(self) -> float:
        return float(self.weights.sum())


@dataclass(frozen=True)
class CQState:
    """Ensemble of states on A indexed by a classical register."""

    branches: tuple[tuple[float, DensityMatrix], ...]

    def __post_init__(self):
        items = []
        total = 0.0
        dims = None
        for p, rho in self.branches:
            p = float(p)
            if p <= 0.0:
                raise ValidationError("branch weights must be strictly positive")
            if dims is None:
                dims = rho.dims
            elif rho.dims != dims:
                raise ValueError("all branches must share the same dimensions")
            total += p * rho.trace()
            items.append((p, rho))
        if not items:
            raise ValueError("a CQ state needs at least one branch")
        if total > 1.0 + 1e-12:
            raise ValidationError(f"total branch weight {total} exceeds 1")
        object.__setattr__(self, "branches", tuple(items))

    @property
    def branch_dims(self) -> tuple[int, ...]:
        return self.branches[0][1].dims

    def to_density_matrix(self) -> DensityMatrix:
        """Block embedding sum_k p_k rho_k (x) |k><k| on dims (dim_A, #branches)."""
        k = len(self.branches)
        da = self.branches[0][1].dim
        mat = np.zeros((da * k, da * k), dtype=complex)
        total = 0.0
        for i, (p, rho) in enumerate(self.branches):
            proj = np.zeros((k, k))
            proj[i, i] = 1.0
            mat += p * np.kron(rho.mat, proj)
            total += p * rho.trace()
        return DensityMatrix(self.branch_dims + (k,), mat,
                             subnormalized=total < 1.0 - TRACE_TOL)


def binary_h(p: float) -> float:
    """Binary Shannon entropy in bits."""
    if not -1e-12 <= p <= 1.0 + 1e-12:
        raise ValueError(f"binary entropy argument {p} outside [0, 1]")
    p = min(max(p, 0.0), 1.0)
    if p == 0.0 or p == 1.0:
        return 0.0
    return float(-p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p))


def _entropy_from_eigs(evals: np.ndarray) -> float:
    w = np.clip(np.asarray(evals, dtype=float), 0.0, None)
    w = w[w > 0.0]
    if w.size == 0:
        return 0.0
    return float(-(w * np.log2(w)).sum())


def von_neumann(rho: DensityMatrix) -> float:
    """Entropy -tr[rho log rho] in bits of a normalized state."""
    if rho.subnormalized and abs(rho.trace() - 1.0) > TRACE_TOL:
        raise ValueError("von Neumann entropy expects a normalized state")
    return _entropy_from_eigs(np.linalg.eigvalsh(rho.mat))


def cond_von_neumann(rho: DensityMatrix) -> float:
    """Conditional entropy H(A|B) = H(AB) - H(B) of a bipartite state."""
    if len(rho.dims) != 2:
        raise ValueError(f"expected a bipartite state, got dims {rho.dims}")
    return von_neumann(rho) - von_neumann(partial_trace(rho, keep=1))


def _log2_support(s: int) -> float:
    """log2 of a support count; the empty support (0) gives -inf."""
    return math.log2(s) if s > 0 else -math.inf


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
    return _log2_support(int(_smooth_support(p.weights, eps)[0]))


def _cq_columns(s: CQState) -> np.ndarray:
    """Eigenvalues of p_k rho_k as table columns, with the eigenvalues that
    :func:`numerical_rank` does not count set to exact 0."""
    cols = np.zeros((s.branches[0][1].dim, len(s.branches)))
    for i, (p, rho) in enumerate(s.branches):
        w = np.linalg.eigvalsh(rho.mat)[::-1]
        rank = numerical_rank(w)
        cols[:rank, i] = p * w[:rank]
    return cols


def h0_cond_cq(s: CQState) -> float:
    """Conditional max-entropy of a CQ state: the largest branch log-rank,
    which is the smoothing at budget 0."""
    return smooth_h0_cond_cq(s, 0.0)


def smooth_h0_cond_cq(s: CQState, eps: float) -> float:
    """Exact smooth conditional max-entropy of a CQ state.

    Smoothing may be restricted to states sharing the eigenbasis of each
    branch without loss, so minimizing the worst branch rank reduces to the
    classical truncation problem on the table of branch eigenvalues, where
    zeroing an eigenvalue lam costs exactly lam in trace distance.
    """
    if not eps >= 0.0:
        raise ValueError(f"smoothing budget {eps} must be nonnegative")
    return _log2_support(int(_smooth_support(_cq_columns(s), eps)[0]))


def classical_cond_entropy(p: ClassicalJoint) -> float:
    """Shannon conditional entropy H(X|Y) of a normalized table, in bits."""
    w = p.weights
    return _entropy_from_eigs(w.reshape(-1)) - _entropy_from_eigs(w.sum(axis=0))


def product_table(p: ClassicalJoint, n: int) -> ClassicalJoint:
    """n-fold product distribution on alphabets of size nx**n and ny**n."""
    if n < 1:
        raise ValueError("n must be at least 1")
    w = p.weights
    for _ in range(n - 1):
        w = np.kron(w, p.weights)
    return ClassicalJoint(p.nx ** n, p.ny ** n, w)


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
    if eps <= 0.0:
        raise ValueError("aep_check needs eps > 0")
    if abs(p.total() - 1.0) > 1e-9:
        raise ValueError("aep_check expects a normalized table")
    if n * math.log2(p.nx * p.ny) > 20.0 + 1e-9:
        raise ValueError("product table would exceed the 20-bit size cap")
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
    weights = np.zeros((nx, ny))
    for x, y, w in atoms:
        weights[x, y] += w
    return ClassicalJoint(nx, ny, weights)
