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

import math
from dataclasses import dataclass, field

import numpy as np

from .entropy import (MAX_TABLE_CELLS, _entropy_from_eigs, _log2_support, _smooth_support,
                      binary_h)
from .linalg import (
    RANK_RTOL,
    DensityMatrix,
    PureState,
    _dag,
    _haar_isometries,
    _ruled,
    herm_eig,
    numerical_rank,
    partial_transpose_mat,
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


def _concurrence(rows: np.ndarray) -> np.ndarray:
    """Two-qubit concurrence max{0, l1 - l2 - l3 - l4} of each state of a
    ``(..., k, 4)`` stack of rows r_k with ``rho = sum_k r_k r_k^H``.

    The l_i are the decreasing square roots of the eigenvalues of
    ``rho @ spin_flipped(rho)``.  With A the 4 x k factor whose columns are
    the r_k, so that ``rho = A A^H``, they equal the singular values of the
    k x k matrix ``A^T (sy (x) sy) A``: the missing ones are 0 when k < 4, and
    the product has rank at most 4 when k > 4.  No square root of rho is taken.
    """
    sv = np.linalg.svd(rows @ _YY @ np.swapaxes(rows, -1, -2), compute_uv=False)
    c = sv[..., 0] - sv[..., 1:].sum(axis=-1)
    return np.where(c > 0.0, c, 0.0)


def _eof_from_concurrence(c):
    return binary_h(0.5 + 0.5 * np.sqrt(np.maximum(0.0, 1.0 - c * c)))


def concurrence_2q(rho: DensityMatrix) -> float:
    """Two-qubit concurrence of a single state, from the rows of its factor
    ``V sqrt(w)`` of one eigendecomposition (see :func:`_concurrence`)."""
    if rho.dims != (2, 2):
        raise ValueError(f"concurrence needs a two-qubit state, got dims {rho.dims}")
    w, v = herm_eig(rho.mat)
    # eigenvalue dust (negative, or a few hundred epsilons of the largest) is 0
    w[w < 2e2 * np.finfo(float).eps * w[0]] = 0.0
    return float(_concurrence((v * np.sqrt(w)).T))


def eof_2q(rho: DensityMatrix) -> float:
    """Exact two-qubit entanglement of formation from the concurrence."""
    return _eof_from_concurrence(concurrence_2q(rho))


def _marginal(vecs: np.ndarray, da: int, db: int) -> np.ndarray:
    """Vectors (..., da*db) as matrices (..., n, N) on the smaller side n.

    ``M @ M^H`` is the marginal gram of that side (complex conjugated when
    da > db, which leaves its spectrum unchanged).
    """
    m = vecs.reshape(vecs.shape[:-1] + (da, db))
    return m if da <= db else np.swapaxes(m, -1, -2)


def _schmidt_sq(vecs: np.ndarray, da: int, db: int) -> np.ndarray:
    """Squared Schmidt coefficients (..., min(da, db)) of unnormalized vectors,
    descending, from one batched SVD of their coefficient matrices."""
    return np.linalg.svd(vecs.reshape(vecs.shape[:-1] + (da, db)), compute_uv=False) ** 2


def eof_pure(psi: PureState) -> float:
    """Entanglement of formation of a pure state: its marginal entropy."""
    if len(psi.dims) != 2:
        raise ValueError(f"expected a bipartite state, got dims {psi.dims}")
    sq = _schmidt_sq(psi.vec, *psi.dims)
    return float(_entropy_from_eigs(sq / sq.sum()))


@dataclass(frozen=True, eq=False)  # == is identity: the fields reach arrays
class Decomposition:
    """Weighted pure-state ensemble realizing a mixed bipartite target, of
    any number of items (E_F is an infimum over every size); only
    feasibility is checked."""

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
        if 0.5 * trace_norm(recon - self.target.mat) > 1e-8:
            raise ValueError(
                "decomposition does not reconstruct the target to 1e-8 trace distance")
        object.__setattr__(self, "items", tuple(items))


def eof_cq_conditional(d: Decomposition) -> float:
    """Average marginal entropy sum_i p_i H(A)_{psi_i} of one decomposition.

    This is the objective the decomposition search minimizes.  The items'
    Schmidt spectra come from one batched SVD.
    """
    p, vecs = zip(*((p, psi.vec) for p, psi in d.items))
    sq = _schmidt_sq(np.array(vecs), *d.target.dims)
    return float((np.array(p) * _entropy_from_eigs(sq / sq.sum(axis=-1, keepdims=True))).sum())


@dataclass(frozen=True, eq=False)  # == is identity: the fields reach arrays
class EofResult:
    """Outcome of the numerical entanglement-of-formation search; ``value``
    is derived from ``decomposition`` (:func:`eof_cq_conditional`), not passed."""

    decomposition: Decomposition
    converged: bool
    value: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "value", eof_cq_conditional(self.decomposition))


@dataclass(frozen=True, eq=False)  # == is identity: the fields reach arrays
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
_STATIONARY = 1e-16  # squared gradient norm at which a restart is stationary
_AGREE = 1e-9  # restart values this close to the best agree with it (eof_numeric)
_ETA = 0.85  # weight of the history in _descend's nonmonotone reference (Zhang-Hager)


def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:  # Re tr(a^H b) per matrix
    return np.einsum("rij,rij->r", a.conj(), b).real


class _EnsembleSearch:
    """Shared machinery: decompositions of fixed size as isometry mixings.

    Every size-m decomposition of rho has unnormalized branch vectors
    ``rows = W @ base`` for an m x r isometry W, ``base_j = sqrt(l_j) e_j``;
    the search takes ``m = min(r^2, 2 r)`` for rank r.
    Both objectives are spectral sums of the branch marginals, so one
    gradient engine serves them: :func:`_descend` steps stacked restarts of W
    together, with the gradient of the average entropy
    (:meth:`eof_gradient`) or of the smooth max-entropy tiebreak
    (:meth:`smooth_gradient`).  Their spectral kernel (:meth:`_spectra`,
    :meth:`_tangent`) is one batched ``eigh``, or a closed form when the
    smaller side is a qubit.
    """

    def __init__(self, rho: DensityMatrix):
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
        self.m = min(self.rank * self.rank, 2 * self.rank)
        # on a qubit side, pair[j, (a, b), k] = (M_j M_k^H)[a, b] for the
        # marginals M_j of the base rows (see _spectra)
        mats = _marginal(self.base, self.da, self.db)
        self.pair = None if min(rho.dims) != 2 else np.einsum(
            "jax,kbx->jabk", mats, mats.conj()).reshape(self.rank, -1)

    def start(self, restarts: int, seed: int, stream: int = 0) -> np.ndarray:
        """Mixings (restarts, m, rank): restart 0 is the spectral ensemble
        itself, restart i > 0 a Haar isometry from the stream (seed, stream, i)."""
        if restarts < 1:
            raise ValueError("restarts must be at least 1")
        if seed < 0:
            raise ValueError(f"seed must be nonnegative, got {seed}")
        cells = restarts * self.m * self.rank * (1 if self.pair is None else 4)  # w, or wb
        if cells > MAX_TABLE_CELLS:
            raise ValueError(f"{restarts} restarts of {self.m} x {self.rank} mixings "
                             f"need {cells} array entries, more than {MAX_TABLE_CELLS}")
        u = np.zeros((restarts, self.m, self.rank), dtype=complex)
        u[0, :self.rank] = np.eye(self.rank)
        if restarts > 1:
            u[1:] = _haar_isometries(self.m, self.rank, [
                np.random.default_rng((seed, stream, i)) for i in range(1, restarts)])
        return u

    def _spectra(self, w: np.ndarray):
        """Ascending eigenvalues (R, m, n) of the branch marginal grams of
        mixings w (R, m, rank), and what :meth:`_tangent` needs of them.

        In general one batched ``eigh`` of the grams ``M M^H`` of the branch
        marginals M gives them with their eigenvectors.  On a qubit side
        (n = 2) no eigenvector is formed: ``wb = w @ pair`` is one product,
        ``G_ab = sum_k wb[ab, k] conj(w_k)`` every gram, and its eigenvalues
        are ``mid -+ rad``, with ``mid = (G00 + G11) / 2`` and ``rad =
        hypot((G00 - G11) / 2, |G01|)``.
        """
        if self.pair is None:
            mat = _marginal(w @ self.base, self.da, self.db)
            lam, vec = np.linalg.eigh(mat @ _dag(mat))
            return lam, (mat, vec)
        wb = (w @ self.pair).reshape(w.shape[:-1] + (4, -1))  # (R, m, 4, rank)
        g = (wb @ w.conj()[..., None])[..., 0]  # G00, G01, G10, G11
        mid, h = 0.5 * (g[..., 0] + g[..., 3]).real, 0.5 * (g[..., 0] - g[..., 3]).real
        rad = np.hypot(h, np.abs(g[..., 1]))
        return np.stack([mid - rad, mid + rad], axis=-1), (wb, g[..., 1], h, rad)

    def _tangent(self, w: np.ndarray, spec: tuple, weight: np.ndarray) -> np.ndarray:
        """Riemannian gradient at w of a sum of f(lam) over the branch
        eigenvalues, given ``weight = f'(lam)`` (broadcastable to (R, m, n))
        and the ``spec`` of :meth:`_spectra`: per branch ``dF/dconj(M) =
        f'(G) M``, pulled back by ``@ base^H``, projected by ``G - W sym(W^H
        G)``.  In general ``f'(G) = V diag(weight) V^H``.  On a qubit side
        ``f'(G) = a I + b (G - mid I)``, with ``a = (w+ + w-) / 2`` and ``b =
        (w+ - w-) / (2 rad)`` (0 at rad = 0), whose b term has entries of
        size rad, and the pullback is ``grad_k = sum_ab f'(G)_ba wb[ab, k]``.
        """
        if self.pair is None:
            mat, vec = spec
            grad = (vec * weight[..., None, :]) @ (_dag(vec) @ mat)
            if self.da > self.db:
                grad = np.swapaxes(grad, -1, -2)
            grad = grad.reshape(w.shape[:-1] + (-1,)) @ _dag(self.base)
        else:
            wb, g01, h, rad = spec
            lo, hi = 0.5 * weight[..., 0], 0.5 * weight[..., 1]
            a, b = hi + lo, np.divide(hi - lo, rad, out=np.zeros(rad.shape), where=rad > 0)
            ft = np.stack([a + b * h, b * g01.conj(), b * g01, a - b * h], axis=-1)
            grad = (ft[..., None, :] @ wb)[..., 0, :]
        sym = _dag(w) @ grad
        return grad - w @ (0.5 * (sym + _dag(sym)))

    def eof_gradient(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Average branch entropies (R,) of mixings w (R, m, rank) and their
        Riemannian gradients, with weight ``-log2(sigma / p)`` per eigenvalue
        sigma of a branch gram of weight p, zeroed on the kernel (eigenvalues
        up to 1e-15 p, where M has no support)."""
        lam, spec = self._spectra(w)
        p = lam.sum(axis=-1, keepdims=True)
        keep = lam > 1e-15 * p
        log = np.log2(np.where(keep, lam, 1.0) / np.where(keep, p, 1.0))
        return -(lam * log).sum(axis=(-2, -1)), self._tangent(w, spec, -log)

    def smooth_gradient(self, w: np.ndarray, delta) -> tuple[np.ndarray, np.ndarray]:
        """Smooth scores ``2 support + excess`` (R,) of mixings w at budgets
        delta (scalar or (R,)) and the Riemannian gradients of their excess.

        The score orders (support, excess) lexicographically because the
        excess lies in [0, 1]; both are read from the :func:`_ruled` spectra,
        as in :meth:`smooth_value`.  The excess is the sum over branches of
        their ``n + 1 - support`` smallest eigenvalues, less delta, so its
        weight is 1 on those eigenvalues and 0 elsewhere (Ky Fan); the
        support, piecewise constant, has no gradient.
        """
        lam, spec = self._spectra(w)
        support, excess = _smooth_support(np.moveaxis(_ruled(lam), -1, 0), delta)
        cut = np.where(support > 0, lam.shape[-1] + 1 - support, 0)
        weight = np.arange(lam.shape[-1]) < cut[:, None, None]  # (R, 1, n), broadcast
        return 2.0 * support + excess, self._tangent(w, spec, weight)

    def smooth_value(self, rows: np.ndarray, delta) -> list:
        """Smooth conditional max-entropy of each decomposition in ``rows``
        (R, m, D) on its :func:`_ruled` Schmidt spectra.  A scalar budget
        ``delta`` gives a list of R values; a sequence of budgets gives one
        such list per budget, all from one Schmidt decomposition of the rows."""
        sq = _ruled(_schmidt_sq(rows, self.da, self.db))
        delta = np.asarray(delta, dtype=float)
        cols = np.expand_dims(np.moveaxis(sq, -1, 0), tuple(range(1, 1 + delta.ndim)))
        support, _ = _smooth_support(cols, delta[..., None])
        return _log2_support(support).tolist()

    def decomposition(self, rows: np.ndarray) -> Decomposition:
        items = []
        for row in rows:
            p = float(np.vdot(row, row).real)
            if p < 1e-12:
                continue
            items.append((p, PureState(self.rho.dims, row / math.sqrt(p))))
        return Decomposition(tuple(items), self.rho)


def _certified(vals: np.ndarray, gg: np.ndarray, moved: np.ndarray) -> bool:
    """E_F's certificate: the restart of lowest value is stationary (squared
    gradient norm at most ``_STATIONARY``) and marked in ``moved``."""
    best = np.argmin(vals)
    return bool(moved[best] and gg[best] <= _STATIONARY)


def _descend(w: np.ndarray, steps: int, objective, stop, *per_restart: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Riemannian gradient descent of every mixing in w (R, m, rank), in place.

    ``objective(w, *per_restart)`` maps mixings to their values (R,) and
    Riemannian gradients; the per-restart arrays (R, ...) follow w to the
    live restarts, so a restart's trajectory depends only on its own rows.
    Each of the ``steps`` batched evaluations tries every live restart's
    Barzilai-Borwein step (long and short alternate, at most 1e3) through a
    polar retraction and halves it unless it passes the nonmonotone Armijo
    test of Zhang and Hager (SIAM J. Optim. 14, 1043 (2004)): a value 1e-4
    step |g|^2 below the restart's reference C, which starts at its value
    (weight Q = 1) and moves to ``C' = (eta Q C + v) / Q'``, ``Q' = eta Q +
    1`` (eta = ``_ETA``) on each kept value v.  A kept value may rise, but
    it lies below the C it was tested against, so C never rises and no
    value exceeds the start.  The polar factor of ``X = W - step g`` is
    ``X (X^H X)^(-1/2)`` from one batched r x r ``eigh``; on the tangent
    ``X^H X = I + step^2 g^H g``, so no eigenvalue is below 1.  One
    Newton-Schulz step ``Q (3 I - Q^H Q) / 2`` then takes its isometry error
    from about eps times the largest eigenvalue down to rounding (Higham,
    Functions of Matrices, SIAM 2008, ch. 8).  A restart stops at a
    gradient norm below 1e-8 or a step below 1e-10, or when a kept step
    leaves it unchanged.
    The whole batch stops before the first step at which ``stop(vals, gg,
    moved)`` holds, on the values, squared gradient norms and the ``moved``
    mask (R,), which marks every restart that took an accepted step or has
    value 0, the floor of both objectives: an unmarked start of zero
    gradient may be a saddle.  Returns the final values, mixings, squared
    gradient norms and mask.
    """
    vals, grad = objective(w, *per_restart)
    gg = _inner(grad, grad)  # squared gradient norms
    ref, weight = vals.copy(), np.ones(len(w))  # Zhang-Hager references C, weights Q
    moved = vals <= 0.0
    step = np.ones(len(w))
    live = np.arange(len(w))
    for k in range(steps):
        if stop(vals, gg, moved):
            break
        live = live[(gg[live] > _STATIONARY) & (step[live] >= 1e-10)]
        if live.size == 0:
            break
        x = w[live] - step[live, None, None] * grad[live]
        lam, v = np.linalg.eigh(_dag(x) @ x)  # I + step^2 g^H g on the tangent: lam >= 1
        trial = x @ ((v / np.sqrt(lam)[:, None, :]) @ _dag(v))
        trial = 1.5 * trial - 0.5 * trial @ (_dag(trial) @ trial)  # Newton-Schulz
        tv, tg = objective(trial, *(a[live] for a in per_restart))
        won = tv <= ref[live] - 1e-4 * step[live] * gg[live]
        step[live[~won]] *= 0.5
        acc = live[won]
        s, y = trial[won] - w[acc], tg[won] - grad[acc]
        ss = _inner(s, s)
        sy = np.maximum(_inner(s, y), 1e-3 * ss)  # caps both steps at 1e3
        num, den = (ss, sy) if k % 2 else (sy, np.maximum(_inner(y, y), 1e-3 * sy))
        step[acc] = np.divide(num, den, out=np.zeros_like(ss), where=ss > 0)  # not 0/0
        w[acc], vals[acc], grad[acc] = trial[won], tv[won], tg[won]
        gg[acc] = _inner(tg[won], tg[won])
        weight[acc] = _ETA * weight[acc] + 1.0
        ref[acc] += (tv[won] - ref[acc]) / weight[acc]  # (eta Q C + value) / Q'
        moved[acc] = True
    return vals, w, gg, moved


def _ppt_ccnr_lambda(rho: DensityMatrix) -> float:
    """``Lambda = max(||rho^{T_A}||_1, ||R(rho)||_1) / tr rho``, R the
    realignment ``R(rho)_{(i k),(j l)} = rho_{(i j),(k l)}``.

    Both norms are convex and equal ``(sum_j s_j)^2`` on a normalized pure
    state of Schmidt coefficients s_j, so Lambda bounds the trace-weighted
    average of that sum over every decomposition of rho (Chen, Albeverio and
    Fei, PRL 95, 210501 (2005)).
    """
    da, db = rho.dims
    realigned = rho.mat.reshape(da, db, da, db).transpose(0, 2, 1, 3).reshape(da * da, db * db)
    return max(trace_norm(partial_transpose_mat(rho.mat, rho.dims, 0)),
               trace_norm(realigned)) / rho.trace()


def _support_floors(rho: DensityMatrix, deltas) -> list[int]:
    """Certified lower bounds on the smooth support of every decomposition
    of ``rho`` at each L1 budget in ``deltas``.

    A normalized branch whose k largest Schmidt weights hold mass mu has
    ``(sum_j s_j)^2 <= G_k(mu) = (sqrt(k mu) + sqrt((n - k)(1 - mu)))^2``
    (Cauchy-Schwarz on both parts), n = min(da, db).  G_k is concave with
    its maximum n at mu = k/n, below which no top-k mass lies, and falls
    beyond it.  Support at most k at budget delta means an average top-k
    mass of at least ``1 - delta / t``, t = tr rho, so by Jensen
    ``Lambda <= G_k(max(1 - delta / t, k/n))``.  The floor is the smallest k
    that passes, 0 once delta covers t; at delta = 0 it is ``ceil(Lambda)``,
    the Schmidt-number bound of Terhal and Horodecki (PRA 61, 040301
    (2000)).  Each budget is widened by ``n RANK_RTOL t``, the most the rank
    rule can remove, and Lambda lowered by 1e-9 against round-off, so the
    floors also bound the support the reported values count.
    """
    lam = _ppt_ccnr_lambda(rho) - 1e-9
    n, t = min(rho.dims), rho.trace()
    floors = []
    for delta in deltas:
        mu = 1.0 - delta / t - n * RANK_RTOL
        k = 0 if mu <= 0.0 else 1
        while 0 < k < n:
            m = max(mu, k / n)
            if lam <= (math.sqrt(k * m) + math.sqrt((n - k) * (1.0 - m))) ** 2:
                break
            k += 1
        floors.append(k)
    return floors


def eof_numeric(rho: DensityMatrix, *, restarts: int = 20, seed: int = 0,
                sweeps: int = 3) -> EofResult:
    """Upper bound on the entanglement of formation by decomposition search.

    Seeded random-restart Riemannian gradient descent on the mixing
    isometry W of the spectral ensemble (Audenaert, Verstraete and De Moor,
    PRA 64, 052304 (2001)), over decompositions of ``min(r^2, 2 r)`` items
    for rank r.  All ``restarts`` are screened together for ``10 * sweeps``
    gradient steps; unless the screen ends certified, the best three
    (stable sort) are then polished together (at most 1000 steps).  Both
    phases stop on the certificate :func:`_certified`: the best restart
    has a gradient norm below 1e-8 and has taken an accepted step or sits
    at value 0, the floor of E_F.  A start of zero gradient, such as the
    spectral ensemble of a degenerate spectrum, may be a saddle, so it does
    not certify.  Every evaluated decomposition is feasible and
    :func:`_descend`'s nonmonotone test keeps no value above the start, so
    the result never exceeds the start nor undershoots the true infimum.
    ``converged`` means the certificate holds at the end, or the state has
    rank 1 (its decomposition is unique), or at least two restarts end
    within 1e-9 (``_AGREE``) of the best value.  Restart streams
    (seed, restart index) make it deterministic for a fixed nonnegative ``seed``.
    """
    if sweeps < 1:
        raise ValueError("sweeps must be at least 1")
    search = _EnsembleSearch(rho)
    vals, w, gg, moved = _descend(search.start(restarts, seed), 10 * sweeps,
                                  search.eof_gradient, _certified)
    if not _certified(vals, gg, moved):
        top = np.argsort(vals, kind="stable")[:3]
        vals[top], w[top], gg[top], moved[top] = _descend(w[top], 1000, search.eof_gradient,
                                                          _certified)
    best = int(np.argmin(vals))
    converged = bool(_certified(vals, gg, moved) or search.rank == 1  # one decomposition
                     or np.count_nonzero(vals <= vals[best] + _AGREE) >= 2)
    return EofResult(search.decomposition(w[best] @ search.base), converged)


def one_shot_cost_bounds(rho: DensityMatrix, eps: float, *, restarts: int = 8,
                         seed: int = 0) -> OneShotCostBounds:
    """Bounds on the one-shot dilution cost of ``rho`` at error ``eps``.

    Searches decompositions of ``min(r^2, 2 r)`` items (rank r) minimizing
    the exact smooth conditional max-entropy of the branch ensemble at two
    L1 budgets on the branch spectra: ``eps/2`` for the achievable (upper)
    side and ``2 sqrt(eps)`` for the converse (lower) side; the metric of
    ``eps`` itself is open.
    ``restarts`` restarts per budget (streams 0 and 1) run as one batch,
    each at its own budget, through at most ``_SMOOTH_STEPS`` gradient
    steps of :func:`_descend`, scored by (support, excess) with the excess
    as the tiebreak within a support level, both under the :func:`_ruled`
    rank rule of the reported values.  Both bounds are evaluated on the
    union of all candidate decompositions, and the larger budget can only
    smooth further, so ``lower <= upper`` holds by construction.

    The batch stops once each budget is done.  A budget is done when its
    best restart reaches that budget's support floor
    (:func:`_support_floors`), the smallest k with ``Lambda <= G_k(1 -
    delta / t)`` (Chen, Albeverio and Fei, PRL 95, 210501 (2005); at delta
    = 0 the Schmidt-number bound of Terhal and Horodecki, PRA 61, 040301
    (2000)); no decomposition goes below it, so this clause keeps both
    bounds.  At eps 0 both budgets search one problem, so the best restart
    of either counts for both.  A budget is also done when every one of its
    restarts is spent: stationary, or the last step that lowered its score
    lowered it by less than 1e-4 of its excess (score less twice the
    support), a rate that needs over 1e4 steps, 50 times the step cap, to
    reach the next support level.  That clause is a heuristic: ``upper``
    stays certified by its witness but may sit above what the full
    ``_SMOOTH_STEPS`` would reach.  Neither budget stops alone, since each
    bound is taken over both budgets' candidates.  The floor is internal
    and not reported.  ``seed`` must be nonnegative.
    """
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps {eps} outside [0, 1]")
    search = _EnsembleSearch(rho)
    delta_up = 0.5 * eps
    delta_low = 2.0 * math.sqrt(eps)
    w = np.concatenate([search.start(restarts, seed, stream) for stream in (0, 1)])
    caps = np.array([2 * f + 1 for f in _support_floors(rho, (delta_up, delta_low))])
    prev, drop = np.full((2, len(w)), np.inf)  # values before a step, last positive drops
    pools = 1 if delta_up == delta_low else 2  # at eps 0 both halves search one problem

    def stop(v, gg, moved):
        np.subtract(prev, v, out=drop, where=v < prev)
        prev[:] = v
        spent = (gg <= _STATIONARY) | (drop < 1e-4 * (v % 2))  # v % 2 is the excess
        return bool(((v.reshape(pools, -1).min(axis=1) <= caps)
                     | spent.reshape(2, -1).all(axis=1)).all())

    w = _descend(w, _SMOOTH_STEPS, search.smooth_gradient, stop,
                 np.repeat([delta_up, delta_low], restarts))[1]
    rows = w @ search.base
    upper, lower = search.smooth_value(rows, (delta_up, delta_low))
    best = upper.index(min(upper))
    return OneShotCostBounds(min(lower), upper[best], search.decomposition(rows[best]))
