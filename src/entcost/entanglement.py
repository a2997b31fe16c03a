"""Bipartite entanglement measures and one-shot dilution-cost bounds.

Two routes to the entanglement of formation live side by side: the exact
two-qubit closed form through the concurrence, and a numerical search over
pure-state decompositions that works for any total dimension up to 36.  Every
decomposition the search evaluates is feasible, so the numeric value is always
an upper bound on the true infimum; the closed form doubles as its oracle on
two qubits.

The same decomposition search, scored by the exact smooth max-entropy of the
branch ensemble instead of its average entropy, produces one-shot dilution
cost bounds: a certified upper bound (the witness decomposition is returned)
and a heuristic lower bound.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .entropy import CQState, _log2_support, _smooth_support, binary_h
from .linalg import (
    RANK_RTOL,
    DensityMatrix,
    PureState,
    haar_isometry,
    herm_eig,
    numerical_rank,
    partial_trace,
    psd_sqrt,
    trace_norm,
)

MAX_SEARCH_DIM = 36

_YY = np.array([[0, 0, 0, -1],
                [0, 0, 1, 0],
                [0, 1, 0, 0],
                [-1, 0, 0, 0]], dtype=complex)  # sigma_y (x) sigma_y


def max_entangled(d: int) -> PureState:
    """Maximally entangled pure state sum_i |ii> / sqrt(d) on (d, d)."""
    if d < 1:
        raise ValueError("dimension must be positive")
    return PureState((d, d), np.eye(d, dtype=complex).reshape(-1) / np.sqrt(d))


def concurrence_2q(rho: DensityMatrix) -> float:
    """Two-qubit concurrence max{0, l1 - l2 - l3 - l4}.

    The l_i are the decreasing square roots of the eigenvalues of
    ``rho @ spin_flipped(rho)``; they equal the singular values of
    ``sqrt(rho) (sy (x) sy) conj(sqrt(rho))``, which is how they are computed
    here (the singular-value route avoids the square-root blowup of
    eigenvalue noise on rank-deficient states).
    """
    if rho.dims != (2, 2):
        raise ValueError(f"concurrence needs a two-qubit state, got dims {rho.dims}")
    s = psd_sqrt(rho.mat)
    sv = np.linalg.svd(s @ _YY @ s.conj(), compute_uv=False)
    return float(max(0.0, sv[0] - sv[1] - sv[2] - sv[3]))


def eof_2q(rho: DensityMatrix) -> float:
    """Exact two-qubit entanglement of formation from the concurrence."""
    c = concurrence_2q(rho)
    return binary_h(0.5 + 0.5 * math.sqrt(max(0.0, 1.0 - c * c)))


def _dag(m: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(m, -1, -2))


def _marginal(vecs: np.ndarray, da: int, db: int) -> np.ndarray:
    """Vectors (..., da*db) as matrices (..., n, N) on the smaller side n.

    ``M @ M^H`` is the marginal gram of that side (complex conjugated when
    da > db, which leaves its spectrum unchanged).
    """
    m = vecs.reshape(vecs.shape[:-1] + (da, db))
    return m if da <= db else np.swapaxes(m, -1, -2)


def _gram_spectra(g: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues, clipped at 0, of PSD grams (..., n, n).

    Closed form for n <= 2, one batched ``eigvalsh`` otherwise.
    """
    n = g.shape[-1]
    if n == 1:
        return np.maximum(g[..., 0, :].real, 0.0)
    if n == 2:
        a, d = g[..., 0, 0].real, g[..., 1, 1].real
        mid, rad = 0.5 * (a + d), np.hypot(0.5 * (a - d), np.abs(g[..., 0, 1]))
        return np.stack((np.maximum(mid - rad, 0.0), mid + rad), axis=-1)
    return np.clip(np.linalg.eigvalsh(g), 0.0, None)


def _schmidt_sq(vecs: np.ndarray, da: int, db: int) -> np.ndarray:
    """Squared Schmidt coefficients (..., min(da, db)) of unnormalized vectors."""
    m = _marginal(vecs, da, db)
    return _gram_spectra(m @ _dag(m))


def _xlog2x(x: np.ndarray) -> np.ndarray:
    return x * np.log2(np.where(x > 0.0, x, 1.0))


def eof_pure(psi: PureState) -> float:
    """Entanglement of formation of a pure state: its marginal entropy."""
    if len(psi.dims) != 2:
        raise ValueError(f"expected a bipartite state, got dims {psi.dims}")
    sq = _schmidt_sq(psi.vec, *psi.dims)
    return float(_xlog2x(sq.sum()) - _xlog2x(sq).sum())


@dataclass(frozen=True)
class Decomposition:
    """Weighted pure-state ensemble realizing a mixed bipartite target."""

    items: tuple[tuple[float, PureState], ...]
    target: DensityMatrix

    def __post_init__(self):
        items = []
        recon = np.zeros_like(self.target.mat)
        for p, psi in self.items:
            p = float(p)
            if p <= 0.0:
                raise ValueError("decomposition weights must be strictly positive")
            if psi.dims != self.target.dims:
                raise ValueError("decomposition item dims do not match the target")
            recon = recon + p * np.outer(psi.vec, psi.vec.conj())
            items.append((p, psi))
        if not items:
            raise ValueError("a decomposition needs at least one item")
        rank = numerical_rank(np.linalg.eigvalsh(self.target.mat))
        if len(items) > rank * rank:
            raise ValueError(
                f"{len(items)} items exceed the rank-squared cap {rank * rank}")
        if 0.5 * trace_norm(recon - self.target.mat) > 1e-8:
            raise ValueError(
                "decomposition does not reconstruct the target to 1e-8 trace distance")
        object.__setattr__(self, "items", tuple(items))

    def marginal_ensemble(self) -> CQState:
        """The flagged ensemble (p_i, tr_B psi_i) as a CQ state."""
        return CQState(tuple((p, partial_trace(psi.to_density_matrix(), keep=0))
                             for p, psi in self.items))


def eof_cq_conditional(d: Decomposition) -> float:
    """Average marginal entropy sum_i p_i H(A)_{psi_i} of one decomposition.

    This is the objective the decomposition search minimizes.
    """
    return float(sum(p * eof_pure(psi) for p, psi in d.items))


@dataclass(frozen=True)
class EofResult:
    """Outcome of the numerical entanglement-of-formation search."""

    value: float
    decomposition: Decomposition
    restarts_used: int
    converged: bool

    def __post_init__(self):
        if abs(self.value - eof_cq_conditional(self.decomposition)) > 1e-9:
            raise ValueError("result value is inconsistent with its decomposition")


@dataclass(frozen=True)
class OneShotCostBounds:
    """Bounds on the one-shot dilution cost at error eps.

    ``upper`` is certified: ``witness`` is a feasible decomposition achieving
    it.  ``lower`` is heuristic: it is the best value found for the larger
    smoothing budget, but certifying a true lower bound would need the global
    minimum over all decompositions.
    """

    lower: float
    upper: float
    witness: Decomposition


_SMOOTH_STEPS = 200  # gradient steps per smoothing budget in one_shot_cost_bounds


def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:  # Re tr(a^H b) per matrix
    return np.einsum("rij,rij->r", a.conj(), b).real


class _EnsembleSearch:
    """Shared machinery: decompositions of fixed size as isometry mixings.

    Every size-m decomposition of rho has unnormalized branch vectors
    ``rows = W @ base`` for an m x r isometry W, ``base_j = sqrt(l_j) e_j``.
    Both objectives are spectral sums of the branch marginals, so one
    gradient engine serves them: :meth:`descend` steps stacked restarts of W
    together, with the gradient of the average entropy
    (:meth:`eof_gradient`) or of the smooth max-entropy tiebreak
    (:meth:`smooth_gradient`).
    """

    def __init__(self, rho: DensityMatrix, max_items: int | None):
        if len(rho.dims) != 2:
            raise ValueError(f"expected a bipartite state, got dims {rho.dims}")
        if rho.dim > MAX_SEARCH_DIM:
            raise ValueError(
                f"total dimension {rho.dim} exceeds the search cap {MAX_SEARCH_DIM}")
        self.rho = rho
        self.da, self.db = rho.dims
        w, v = herm_eig(rho.mat)
        self.rank = numerical_rank(w)
        keep = np.clip(w[:self.rank], 0.0, None)
        self.base = (v[:, :self.rank] * np.sqrt(keep)).T  # (rank, D)
        if max_items is None:
            max_items = min(self.rank * self.rank, 2 * self.rank)
        if not self.rank <= max_items <= self.rank * self.rank:
            raise ValueError(
                f"max_items must lie in [{self.rank}, {self.rank * self.rank}]")
        self.m = int(max_items)

    def start(self, restarts: int, seed: int, stream: int = 0) -> np.ndarray:
        """Mixings (restarts, m, rank): restart 0 is the spectral ensemble
        itself, restart i > 0 a Haar isometry from the stream (seed, stream, i)."""
        u = np.zeros((restarts, self.m, self.rank), dtype=complex)
        u[0, :self.rank] = np.eye(self.rank)
        for i in range(1, restarts):
            u[i] = haar_isometry(self.m, self.rank, np.random.default_rng((seed, stream, i)))
        return u

    def _spectra(self, w: np.ndarray):
        """Branch marginals M (R, m, n, N) of mixings w (R, m, rank) and the
        ascending eigenvalues and eigenvectors of their grams, from one
        batched ``eigh``."""
        mat = _marginal(w @ self.base, self.da, self.db)
        lam, vec = np.linalg.eigh(mat @ _dag(mat))
        return mat, lam, vec

    def _tangent(self, w: np.ndarray, mat: np.ndarray, vec: np.ndarray,
                 weight: np.ndarray) -> np.ndarray:
        """Riemannian gradient at w of a sum of f(lam) over the branch
        eigenvalues, given ``weight = f'(lam)`` (broadcastable to (R, m, n)):
        per branch ``dF/dconj(M) = V diag(weight) V^H M``, pulled back by
        ``@ base^H``, projected by ``G - W sym(W^H G)``."""
        grad = (vec * weight[..., None, :]) @ (_dag(vec) @ mat)
        if self.da > self.db:
            grad = np.swapaxes(grad, -1, -2)
        grad = grad.reshape(w.shape[:-1] + (-1,)) @ _dag(self.base)
        sym = _dag(w) @ grad
        return grad - w @ (0.5 * (sym + _dag(sym)))

    def eof_gradient(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Average branch entropies (R,) of mixings w (R, m, rank) and their
        Riemannian gradients, with weight ``-log2(sigma / p)`` per eigenvalue
        sigma of a branch gram of weight p, zeroed on the kernel (eigenvalues
        up to 1e-15 p, where M has no support)."""
        mat, lam, vec = self._spectra(w)
        p = lam.sum(axis=-1, keepdims=True)
        keep = lam > 1e-15 * p
        log = np.log2(np.where(keep, lam, 1.0) / np.where(keep, p, 1.0))
        return -(lam * log).sum(axis=(-2, -1)), self._tangent(w, mat, vec, -log)

    def smooth_gradient(self, w: np.ndarray, delta: float) -> tuple[np.ndarray, np.ndarray]:
        """Smooth scores ``2 support + excess`` (R,) of mixings w at budget
        delta and the Riemannian gradients of their excess.

        The score orders (support, excess) lexicographically because the
        excess lies in [0, 1].  Support is counted on the raw spectra.  The
        excess is the sum over branches of their ``n + 1 - support``
        smallest eigenvalues, less delta, so its weight is 1 on those
        eigenvalues and 0 elsewhere (Ky Fan); the support, piecewise
        constant, has no gradient.
        """
        mat, lam, vec = self._spectra(w)
        support, excess = _smooth_support(np.moveaxis(lam, -1, 0), delta)
        cut = np.where(support > 0, lam.shape[-1] + 1 - support, 0)
        weight = np.arange(lam.shape[-1]) < cut[:, None, None]  # (R, 1, n), broadcast
        return 2.0 * support + excess, self._tangent(w, mat, vec, weight)

    def descend(self, w: np.ndarray, steps: int, objective) -> tuple[np.ndarray, np.ndarray]:
        """Riemannian gradient descent of every mixing in w (R, m, rank), in place.

        ``objective`` maps mixings to their values (R,) and Riemannian
        gradients.  Each of the ``steps`` batched evaluations tries every
        live restart's Barzilai-Borwein step (long and short alternate, at
        most 1e3) through a polar retraction and halves it unless it passes
        the Armijo test (decrease 1e-4 step |g|^2).  A restart stops at a
        gradient norm below 1e-8 or a step below 1e-10.  Returns the final
        values (R,) and mixings.
        """
        vals, grad = objective(w)
        step = np.ones(len(w))
        live = np.arange(len(w))
        for k in range(steps):
            gg = _inner(grad, grad)  # squared gradient norms
            live = live[(gg[live] > 1e-16) & (step[live] >= 1e-10)]
            if live.size == 0:
                break
            u, _, vh = np.linalg.svd(w[live] - step[live, None, None] * grad[live],
                                     full_matrices=False)
            trial = u @ vh
            tv, tg = objective(trial)
            won = tv <= vals[live] - 1e-4 * step[live] * gg[live]
            step[live[~won]] *= 0.5
            acc = live[won]
            s, y = trial[won] - w[acc], tg[won] - grad[acc]
            ss = _inner(s, s)
            sy = np.maximum(_inner(s, y), 1e-3 * ss)  # caps both steps at 1e3
            step[acc] = ss / sy if k % 2 else sy / np.maximum(_inner(y, y), 1e-3 * sy)
            w[acc], vals[acc], grad[acc] = trial[won], tv[won], tg[won]
        return vals, w

    def smooth_value(self, rows: np.ndarray, delta: float) -> list[float]:
        """Smooth conditional max-entropy of each decomposition in ``rows``
        (..., m, D), with Schmidt weights up to ``RANK_RTOL`` of their branch
        weight counted as 0 (the package's rank rule)."""
        sq = _schmidt_sq(rows, self.da, self.db)
        sq = np.where(sq > RANK_RTOL * sq.sum(axis=-1, keepdims=True), sq, 0.0)
        support, _ = _smooth_support(np.moveaxis(sq, -1, 0), delta)
        return [_log2_support(s) for s in support.tolist()]

    def decomposition(self, rows: np.ndarray) -> Decomposition:
        items = []
        for row in rows:
            p = float(np.vdot(row, row).real)
            if p < 1e-12:
                continue
            items.append((p, PureState(self.rho.dims, row / math.sqrt(p))))
        return Decomposition(tuple(items), self.rho)


def eof_numeric(rho: DensityMatrix, max_items: int | None = None,
                restarts: int = 20, seed: int = 0, tol: float = 1e-9,
                sweeps: int = 3) -> EofResult:
    """Upper bound on the entanglement of formation by decomposition search.

    Seeded random-restart Riemannian gradient descent on the mixing
    isometry W of the spectral ensemble (Audenaert, Verstraete and De Moor,
    PRA 64, 052304 (2001)).  All ``restarts`` are screened together for
    ``10 * sweeps`` gradient steps, then the best three (stable sort) are
    polished together until their gradient norm or step vanishes (at most
    1000 steps).  Every evaluated decomposition is feasible and every kept
    step lowers the value, so the result never exceeds the start nor
    undershoots the true infimum.  ``converged`` records restart agreement:
    at least two restarts end within ``tol`` of the best value.  Restart
    streams (seed, restart index) make it deterministic for a fixed ``seed``.
    """
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    search = _EnsembleSearch(rho, max_items)
    vals, w = search.descend(search.start(restarts, seed), 10 * max(1, sweeps),
                             search.eof_gradient)
    top = np.argsort(vals, kind="stable")[:3]
    vals[top], w[top] = search.descend(w[top], 1000, search.eof_gradient)
    best = int(np.argmin(vals))
    decomp = search.decomposition(w[best] @ search.base)
    value = eof_cq_conditional(decomp)
    converged = bool(np.count_nonzero(vals <= vals[best] + tol) >= 2)
    return EofResult(value, decomp, restarts, converged)


def one_shot_cost_bounds(rho: DensityMatrix, eps: float,
                         max_items: int | None = None, restarts: int = 8,
                         seed: int = 0) -> OneShotCostBounds:
    """Bounds on the one-shot dilution cost of ``rho`` at error ``eps``.

    Searches decompositions minimizing the exact smooth conditional
    max-entropy of the branch ensemble, once per smoothing budget: ``eps/2``
    for the achievable (upper) side and ``2 sqrt(eps)`` for the converse
    (lower) side.  The restarts of each budget run together through at most
    ``_SMOOTH_STEPS`` gradient steps of :meth:`_EnsembleSearch.descend`,
    scored by (support, excess) with the excess as the tiebreak within a
    support level.  The search counts support on the raw spectra; the
    reported values apply the ``RANK_RTOL`` rank rule.  Both bounds are
    evaluated on the union of all candidate decompositions, and the larger
    budget can only smooth further, so ``lower <= upper`` holds by
    construction.
    """
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps {eps} outside [0, 1]")
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    search = _EnsembleSearch(rho, max_items)
    delta_up = 0.5 * eps
    delta_low = 2.0 * math.sqrt(eps)
    found = []
    for stream, delta in enumerate((delta_up, delta_low)):
        _, w = search.descend(search.start(restarts, seed, stream), _SMOOTH_STEPS,
                              functools.partial(search.smooth_gradient, delta=delta))
        found.append(w @ search.base)
    rows = np.concatenate(found)
    upper = search.smooth_value(rows, delta_up)
    best = upper.index(min(upper))
    return OneShotCostBounds(min(search.smooth_value(rows, delta_low)), upper[best],
                             search.decomposition(rows[best]))
