"""Dense complex linear algebra kernel for small multipartite operators.

Everything in this package runs on plain ``numpy`` complex arrays at total
dimension <= 64, so the kernel favours clarity and strict validation over
asymptotic cleverness.  Conventions fixed here and relied on everywhere else:

- subsystem 0 is the leftmost tensor factor and the slowest-varying index
  (``numpy.kron`` order),
- logarithms are base 2 (see :mod:`entcost.entropy`),
- one rank rule (:func:`_ruled`) for every spectrum: a weight up to
  ``RANK_RTOL`` of the spectrum's total counts as 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# Global tolerances (absolute unless noted).
HERM_TOL = 1e-10          # max-entry Hermiticity deviation for states
PSD_TOL = 1e-9            # eigenvalues above -PSD_TOL count as nonnegative
TRACE_TOL = 1e-9          # |tr(rho) - 1| for normalized states
NORM_TOL = 1e-10          # |  ||psi|| - 1 | for pure states
RANK_RTOL = 1e-9          # relative rank threshold, see _ruled()
EIG_HERM_TOL = 1e-8       # Hermiticity tolerance accepted by herm_eig()


class ValidationError(ValueError):
    """An operator violates a numerical contract beyond tolerance."""


def _as_complex(mat) -> np.ndarray:
    arr = np.array(mat, dtype=complex)
    arr.setflags(write=False)
    return arr


def _check_finite(arr: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise ValidationError(f"{what} contains non-finite entries")


def _dag(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return np.conj(np.swapaxes(m, -1, -2))


def _check_density(mat: np.ndarray) -> None:
    """The density-matrix contract on a matrix or a ``(..., n, n)`` stack.

    Every matrix must be finite, Hermitian to ``HERM_TOL``, PSD to
    ``PSD_TOL`` and of trace 1 within ``TRACE_TOL``; an error reports the
    worst value in the stack.
    """
    _check_finite(mat, "density matrix")
    if np.max(np.abs(mat - _dag(mat))) > HERM_TOL:
        raise ValidationError("density matrix is not Hermitian to 1e-10")
    low = np.linalg.eigvalsh(mat)[..., 0].min()
    if low < -PSD_TOL:
        raise ValidationError(f"density matrix has eigenvalue {low:.3e} < -{PSD_TOL}")
    tr = np.trace(mat, axis1=-2, axis2=-1).real
    if np.abs(tr - 1.0).max() > TRACE_TOL:
        worst = tr.flat[np.abs(tr - 1.0).argmax()]
        raise ValidationError(f"normalized state has trace {float(worst)}")


def _is_int(x) -> bool:
    """A Python or numpy integer, never a float or a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _dims(dims: Iterable[int]) -> tuple[int, ...]:
    """Subsystem dimensions: integers >= 1 (:func:`_is_int`)."""
    dims = tuple(dims)
    if not dims or not all(_is_int(d) and d >= 1 for d in dims):
        raise ValidationError(f"invalid subsystem dimensions {dims}")
    return tuple(int(d) for d in dims)


@dataclass(frozen=True, eq=False)  # == is identity: the fields reach arrays
class DensityMatrix:
    """Normalized state on a product of finite subsystems: a Hermitian PSD
    operator of trace 1 within ``TRACE_TOL``.  Only classical tables
    (``entropy.ClassicalJoint``) may sum below 1.

    Parameters
    ----------
    dims : sequence of int
        Subsystem dimensions, leftmost factor first.
    mat : array_like
        The operator, shape ``(prod(dims), prod(dims))``.
    """

    dims: tuple[int, ...]
    mat: np.ndarray

    def __post_init__(self):
        dims = _dims(self.dims)
        mat = _as_complex(self.mat)
        dim = int(np.prod(dims))
        if mat.shape != (dim, dim):
            raise ValidationError(
                f"matrix shape {mat.shape} does not match dims {dims}")
        _check_density(mat)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "mat", mat)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def trace(self) -> float:
        return float(self.mat.trace().real)


@dataclass(frozen=True, eq=False)  # == is identity: the fields reach arrays
class PureState:
    """Unit vector on a product of finite subsystems."""

    dims: tuple[int, ...]
    vec: np.ndarray

    def __post_init__(self):
        dims = _dims(self.dims)
        vec = _as_complex(self.vec).reshape(-1)
        if vec.shape != (int(np.prod(dims)),):
            raise ValidationError(
                f"vector length {vec.shape[0]} does not match dims {dims}")
        _check_finite(vec, "state vector")
        if abs(np.linalg.norm(vec) - 1.0) > NORM_TOL:
            raise ValidationError("state vector is not normalized to 1e-10")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "vec", vec)

    def to_density_matrix(self) -> DensityMatrix:
        return DensityMatrix(self.dims, np.outer(self.vec, self.vec.conj()))


def _keep_indices(keep, n: int) -> tuple[int, ...]:
    """Sorted subsystem indices in [0, n) from one index or a sequence of
    them, each an integer (:func:`_is_int`)."""
    keep = tuple(keep) if isinstance(keep, Iterable) else (keep,)
    if not all(map(_is_int, keep)):
        raise ValueError(f"subsystem indices {keep} must be integers")
    keep = tuple(int(k) for k in keep)
    if not keep:
        raise ValueError("keep must name at least one subsystem")
    if len(set(keep)) != len(keep):
        raise ValueError(f"duplicate subsystem indices in {keep}")
    if any(k < 0 or k >= n for k in keep):
        raise ValueError(f"subsystem indices {keep} out of range for {n} factors")
    return tuple(sorted(keep))


def partial_trace_mat(mat: np.ndarray, dims: Sequence[int], keep) -> np.ndarray:
    """Partial trace on a raw matrix or a ``(..., n, n)`` stack; kept
    subsystems stay in original order."""
    dims = _dims(dims)
    n = len(dims)
    keep = _keep_indices(keep, n)
    t = np.asarray(mat, dtype=complex)
    lead = t.shape[:-2]
    t = t.reshape(lead + dims + dims)
    # Trace the discarded factors from the right so earlier axis numbers stay valid.
    traced = 0
    for idx in range(n - 1, -1, -1):
        if idx in keep:
            continue
        cur_n = n - traced
        t = np.trace(t, axis1=len(lead) + idx, axis2=len(lead) + idx + cur_n)
        traced += 1
    d_keep = int(np.prod([dims[k] for k in keep]))
    return t.reshape(lead + (d_keep, d_keep))


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduce to the named subsystems; trace is preserved."""
    keep = _keep_indices(keep, len(rho.dims))
    out = partial_trace_mat(rho.mat, rho.dims, keep)
    return DensityMatrix(tuple(rho.dims[k] for k in keep), out)


def partial_transpose_mat(mat: np.ndarray, dims: Sequence[int], sys: int) -> np.ndarray:
    """Transpose one tensor factor of a square operator."""
    dims = _dims(dims)
    n = len(dims)
    if sys < 0 or sys >= n:
        raise ValueError(f"subsystem {sys} out of range")
    t = np.asarray(mat, dtype=complex).reshape(dims + dims)
    t = np.swapaxes(t, sys, sys + n)
    d = int(np.prod(dims))
    return t.reshape(d, d)


def herm_eig(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix (or a stack), eigenvalues descending.

    Returns ``(w, V)`` with ``h == V @ diag(w) @ V.conj().T`` and the columns
    of ``V`` orthonormal, per matrix of a ``(..., n, n)`` stack.  Raises
    :class:`ValidationError` when any input deviates from Hermitian by more
    than 1e-8 in any entry.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    if np.max(np.abs(h - _dag(h))) > EIG_HERM_TOL:
        raise ValidationError("matrix is not Hermitian to 1e-8")
    w, v = np.linalg.eigh((h + _dag(h)) / 2.0)   # ascending
    return w[..., ::-1], v[..., ::-1]


def _ruled(w: np.ndarray) -> np.ndarray:
    """Weights (..., n) with each one up to ``RANK_RTOL`` of its spectrum's
    total (along the last axis) set to 0: the package's one rank rule, for
    eigenvalues of a state and Schmidt weights of a branch alike."""
    return np.where(w > RANK_RTOL * w.sum(axis=-1, keepdims=True), w, 0.0)


def numerical_rank(evals: np.ndarray) -> int:
    """Number of eigenvalues that the rank rule :func:`_ruled` keeps."""
    return int(np.count_nonzero(_ruled(np.asarray(evals, dtype=float))))


def trace_norm(m: np.ndarray) -> float:
    """Sum of singular values of a matrix (rectangular ones too, such as a
    realignment)."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {m.shape}")
    return float(np.linalg.svd(m, compute_uv=False).sum())


def _haar_isometries(rows: int, cols: int, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """Haar-distributed isometries (len(rngs), rows, cols), one complex
    Gaussian matrix drawn from each generator, from one batched QR with the
    phases of R's diagonal moved into Q."""
    if cols > rows:
        raise ValueError("isometry needs rows >= cols")
    g = np.array([rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
                  for rng in rngs])
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def haar_isometry(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed isometry (rows x cols, orthonormal columns) from Gaussian QR."""
    return _haar_isometries(rows, cols, [rng])[0]


def random_pure_state(dims: Iterable[int], rng: np.random.Generator) -> PureState:
    """Haar-random pure state on the given subsystem dimensions."""
    dims = _dims(dims)
    n = int(np.prod(dims))
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return PureState(dims, v / np.linalg.norm(v))


def random_density_matrix(dims: Iterable[int], rank: int,
                          rng: np.random.Generator) -> DensityMatrix:
    """Random mixed state of the requested rank (Wishart construction)."""
    dims = _dims(dims)
    n = int(np.prod(dims))
    if not 1 <= rank <= n:
        raise ValueError(f"rank must lie in [1, {n}]")
    g = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    rho = g @ g.conj().T
    return DensityMatrix(dims, rho / rho.trace().real)
