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

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .entropy import CQState, _column_tails, _smallest_support, binary_h
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


_ZOOM = 3    # a zoom grid has 2 * _ZOOM points, 1 / (_ZOOM + 1) of the last spacing apart
_LEVELS = 9  # zoom grids per line search: the coarse spacing pi/28 ends at 4.3e-7 rad
_OFFSETS = np.concatenate((np.arange(-_ZOOM, 0), np.arange(1, _ZOOM + 1)))
_GRID = np.linspace(-np.pi / 4, np.pi / 4, 15)


def _line_search(line, size: int):
    """Grid-zoom minimization of ``size`` line objectives at once.

    ``line`` maps an (size, k) array of angles to (size, k) values.  The
    coarse ``_GRID`` spans [-pi/4, pi/4], a full period (rotating a pair by
    pi/2 only swaps its branches); each of the ``_LEVELS`` zoom grids then
    fills the open interval between the incumbent's neighbours, in one
    batched evaluation.  Returns the best angle and value found per line.
    """
    lines = np.arange(size)
    vals = line(np.broadcast_to(_GRID, (size, _GRID.size)))
    j = vals.argmin(axis=1)
    x, best = _GRID[j], vals[lines, j]
    step = _GRID[1] - _GRID[0]
    for _ in range(_LEVELS):
        step /= _ZOOM + 1
        t = x[:, None] + step * _OFFSETS
        vals = line(t)
        j = vals.argmin(axis=1)
        won = vals[lines, j] < best
        x = np.where(won, t[lines, j], x)
        best = np.where(won, vals[lines, j], best)
    return x, best


def _rotate(ra: np.ndarray, rb: np.ndarray, t: np.ndarray, phase: complex):
    """Givens rotation of branch rows (R, D) by angles t (R,) in direction ``phase``."""
    c, s = np.cos(t)[:, None], np.sin(t)[:, None]
    return c * ra + (s * phase) * rb, (-s * np.conj(phase)) * ra + c * rb


def _tails(sq: np.ndarray) -> np.ndarray:
    """Removal-cost tails (..., 2, n+1) of branch spectra (..., n).

    Row 0 uses rank-clamped spectra (dust below ``RANK_RTOL`` of the branch
    weight is zeroed, making support decisions exact); row 1 keeps the raw
    spectra and provides a clamp-free progress signal for the tiebreak, so
    the search cannot chase clamp leakage.
    """
    clamped = np.where(sq > RANK_RTOL * sq.sum(axis=-1, keepdims=True), sq, 0.0)
    atoms = np.moveaxis(np.stack((clamped, sq), axis=-2), -1, 0)
    return np.moveaxis(_column_tails(atoms), 0, -1)


def _smooth_support(total: np.ndarray, delta: float):
    """(support, excess) of branch-summed tails (..., 2, n+1) at budget delta.

    ``support`` is the exact smooth support of the flagged ensemble;
    ``excess`` is the raw mass beyond ``delta`` that one atom fewer would
    cost, which lies in [0, 1] (0 at support 0).
    """
    support = _smallest_support(np.moveaxis(total[..., 0, :], -1, 0), delta)
    below = np.take_along_axis(total[..., 1, :], np.maximum(support - 1, 0)[..., None],
                               axis=-1)[..., 0]
    return support, np.where(support > 0, below - delta, 0.0)


def _smooth_score(total: np.ndarray, delta: float) -> np.ndarray:
    """``2 support + excess``, which orders (support, excess) lexicographically
    because the excess lies in [0, 1]."""
    support, excess = _smooth_support(total, delta)
    return 2.0 * support + excess


_SIGNS = np.array([1.0, -1.0])[:, None, None]  # branch a, branch b of a rotated pair


def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:  # Re tr(a^H b) per matrix
    return np.einsum("rij,rij->r", a.conj(), b).real


class _EnsembleSearch:
    """Shared machinery: decompositions of fixed size as isometry mixings.

    Every size-m decomposition of rho has unnormalized branch vectors
    ``rows = W @ base`` for an m x r isometry W, ``base_j = sqrt(l_j) e_j``.
    Stacked restarts step together: by gradient descent on W for the EoF
    (:meth:`descend_eof`), by two-branch Givens rotations for the smooth
    max-entropy, a score with no gradient (:meth:`descend`).
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

    def eof_gradient(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Average branch entropies (R,) of mixings w (R, m, rank) and their
        Riemannian gradients: ``dF/dconj(M) = -log2(sigma / p) M`` per branch
        marginal M with gram sigma and weight p, the log zeroed on the kernel
        of sigma (eigenvalues up to 1e-15 p, where M has no support), pulled
        back by ``@ base^H``, projected by ``G - W sym(W^H G)``."""
        mat = _marginal(w @ self.base, self.da, self.db)
        lam, vec = np.linalg.eigh(mat @ _dag(mat))
        p = lam.sum(axis=-1, keepdims=True)
        keep = lam > 1e-15 * p
        log = np.log2(np.where(keep, lam, 1.0) / np.where(keep, p, 1.0))
        vals = -(lam * log).sum(axis=(-2, -1))
        grad = -(vec * log[..., None, :]) @ (_dag(vec) @ mat)
        if self.da > self.db:
            grad = np.swapaxes(grad, -1, -2)
        grad = grad.reshape(w.shape[:-1] + (-1,)) @ _dag(self.base)
        sym = _dag(w) @ grad
        return vals, grad - w @ (0.5 * (sym + _dag(sym)))

    def descend_eof(self, w: np.ndarray, steps: int) -> tuple[np.ndarray, np.ndarray]:
        """Riemannian gradient descent of every mixing in w (R, m, rank), in place.

        Each of the ``steps`` batched evaluations tries every live restart's
        Barzilai-Borwein step (long and short alternate, at most 1e3) through
        a polar retraction and halves it unless it passes the Armijo test
        (decrease 1e-4 step |g|^2).  A restart stops at a gradient norm below
        1e-8 or a step below 1e-10.  Returns the final values (R,) and mixings.
        """
        vals, grad = self.eof_gradient(w)
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
            tv, tg = self.eof_gradient(trial)
            won = tv <= vals[live] - 1e-4 * step[live] * gg[live]
            step[live[~won]] *= 0.5
            acc = live[won]
            s, y = trial[won] - w[acc], tg[won] - grad[acc]
            ss = _inner(s, s)
            sy = np.maximum(_inner(s, y), 1e-3 * ss)  # caps both steps at 1e3
            step[acc] = ss / sy if k % 2 else sy / np.maximum(_inner(y, y), 1e-3 * sy)
            w[acc], vals[acc], grad[acc] = trial[won], tv[won], tg[won]
        return vals, w

    def tails(self, rows: np.ndarray) -> np.ndarray:
        """Removal-cost tails (..., m, 2, n+1) of the branches of rows (..., m, D)."""
        return _tails(_schmidt_sq(rows, self.da, self.db))

    def _line(self, rows: np.ndarray, tails: np.ndarray, a: int, b: int,
              phase: complex, delta: float):
        """Smooth score of every restart along the rotation of its branches a and b.

        A rotated pair has marginal grams quadratic in (cos t, sin t), with
        coefficients from the gram pack (A, B, H): ``c^2 A + s^2 B + cs H``
        and ``s^2 A + c^2 B - cs H``.  So one evaluation over all restarts
        and angles costs one small matrix product and one batched spectrum.
        ``tails`` holds the per-branch tails of ``rows``.
        """
        rest = tails[:, [i for i in range(self.m) if i != a and i != b]].sum(axis=1)
        ma = _marginal(rows[:, a], self.da, self.db)
        mb = _marginal(rows[:, b], self.da, self.db)
        ga, gb, x = ma @ _dag(ma), mb @ _dag(mb), np.conj(phase) * (ma @ _dag(mb))
        mean = (0.5 * (ga + gb))[:, None, None]
        # the pair's grams are mean +- (cos 2t (A - B) + sin 2t H) / 2
        arms = np.stack((0.5 * (ga - gb), 0.5 * (x + _dag(x))), axis=1)
        arms = arms.reshape(len(rows), 2, -1).view(np.float64)
        shape = ga.shape[1:]

        def line(t):
            # exp(2it) viewed as real pairs (cos 2t, sin 2t)
            trig = np.exp(2j * t).view(np.float64).reshape(t.shape + (2,))
            arm = (trig @ arms).view(np.complex128).reshape(t.shape + (1,) + shape)
            spec = _gram_spectra(mean + _SIGNS * arm)
            return _smooth_score(rest[:, None] + _tails(spec).sum(axis=2), delta)

        return line

    def descend(self, rows: np.ndarray, delta: float, sweeps: int) -> np.ndarray:
        """Coordinate descent of the smooth score of every restart in ``rows``
        (R, m, D) at once, at smoothing budget ``delta``.

        A sweep visits every branch pair with a real and an imaginary
        rotation, each a batched grid-zoom line search; a move is kept when
        it lowers its restart's score by more than 1e-13, and the moved
        branches' tails are then recomputed from the rotated rows.  A restart
        drops out after the first sweep that lowers its score by no more
        than 1e-12.  Returns the final rows.
        """
        tails = self.tails(rows)
        cur = _smooth_score(tails.sum(axis=1), delta)
        # with a one-dimensional side every branch marginal is pure
        live = np.arange(len(rows) if min(self.da, self.db) > 1 else 0)
        for _ in range(max(1, sweeps)):
            if live.size == 0:
                break
            r, p, c = rows[live], tails[live], cur[live]
            start = c.copy()
            for a, b in itertools.combinations(range(self.m), 2):
                for phase in (1.0 + 0.0j, 1.0j):
                    x, val = _line_search(self._line(r, p, a, b, phase, delta), len(r))
                    acc = np.flatnonzero(val < c - 1e-13)
                    if acc.size:
                        na, nb = _rotate(r[acc, a], r[acc, b], x[acc], phase)
                        r[acc, a], r[acc, b] = na, nb
                        p[acc, a], p[acc, b] = self.tails(na), self.tails(nb)
                        c[acc] = _smooth_score(p[acc].sum(axis=1), delta)
            rows[live], tails[live], cur[live] = r, p, c
            live = live[start - c > 1e-12]
        return rows

    def smooth_value(self, rows: np.ndarray, delta: float) -> list[float]:
        """Smooth conditional max-entropy of each decomposition in ``rows``."""
        support, _ = _smooth_support(self.tails(rows).sum(axis=-3), delta)
        return [math.log2(s) if s > 0 else -math.inf for s in support.tolist()]

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
    vals, w = search.descend_eof(search.start(restarts, seed), 10 * max(1, sweeps))
    top = np.argsort(vals, kind="stable")[:3]
    vals[top], w[top] = search.descend_eof(w[top], 1000)
    best = int(np.argmin(vals))
    decomp = search.decomposition(w[best] @ search.base)
    value = eof_cq_conditional(decomp)
    converged = bool(np.count_nonzero(vals <= vals[best] + tol) >= 2)
    return EofResult(value, decomp, restarts, converged)


def one_shot_cost_bounds(rho: DensityMatrix, eps: float,
                         max_items: int | None = None, restarts: int = 8,
                         seed: int = 0, sweeps: int = 2) -> OneShotCostBounds:
    """Bounds on the one-shot dilution cost of ``rho`` at error ``eps``.

    Searches decompositions minimizing the exact smooth conditional
    max-entropy of the branch ensemble, once per smoothing budget: ``eps/2``
    for the achievable (upper) side and ``2 sqrt(eps)`` for the converse
    (lower) side.  The restarts of each budget run together, scored by
    (support, excess) with the excess as the tiebreak within a support
    level.  Both bounds are evaluated on the union of all candidate
    decompositions, and the larger budget can only smooth further, so
    ``lower <= upper`` holds by construction.
    """
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps {eps} outside [0, 1]")
    search = _EnsembleSearch(rho, max_items)
    delta_up = 0.5 * eps
    delta_low = 2.0 * math.sqrt(eps)
    found = []
    for stream, delta in enumerate((delta_up, delta_low)):
        rows = search.start(max(1, restarts), seed, stream) @ search.base
        found.append(search.descend(rows, delta, sweeps))
    rows = np.concatenate(found)
    upper = search.smooth_value(rows, delta_up)
    best = upper.index(min(upper))
    return OneShotCostBounds(min(search.smooth_value(rows, delta_low)), upper[best],
                             search.decomposition(rows[best]))
