"""Quantum channels: Kraus form, the standard qubit noise models, JSON wire formats.

Channels live in Kraus form; :func:`apply` and :func:`choi` each contract
the stacked Kraus operators once.  The Choi state J, ``(E (x) I)(phi)`` for
phi maximally entangled, is the Kraus gram ``sum_k vec(K_k) vec(K_k)^H / dim_in``
(row-major ``vec``) on ``[dim_out, dim_in]``.  :func:`teleportation_covered`
tells from J, to ``CHOI_TOL``, whether teleportation with J simulates the
channel, so that ``ec1`` bounds its entanglement cost.  :func:`channel_from_json`
and :func:`state_from_json` parse the wire formats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DensityMatrix,
    ValidationError,
    _check_density,
    _check_finite,
    _dag,
    haar_isometry,
    partial_trace_mat,
)

COMPLETENESS_TOL = 1e-9   # max-entry deviation of sum K^dag K from identity
MAX_CHANNEL_DIM = 64      # dim_in * dim_out cap
CHOI_TOL = 1e-9           # Choi input-marginal and Bell-basis off-diagonal tolerance

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_ID2 = np.eye(2, dtype=complex)
_KET0_BRA0 = np.array([[1, 0], [0, 0]], dtype=complex)
_KET0_BRA1 = np.array([[0, 1], [0, 0]], dtype=complex)
_KET1_BRA1 = np.array([[0, 0], [0, 1]], dtype=complex)


class SchemaError(ValueError):
    """A channel or state description violates the wire format."""


def _check_kraus(ks: np.ndarray) -> None:
    """Finite entries and completeness ``sum_k K_k^H K_k = I`` to
    ``COMPLETENESS_TOL`` for a Kraus stack ``(..., k, dim_out, dim_in)``."""
    _check_finite(ks, "Kraus operator")
    acc = (_dag(ks) @ ks).sum(axis=-3)
    if np.max(np.abs(acc - np.eye(ks.shape[-1]))) > COMPLETENESS_TOL:
        raise ValidationError("Kraus operators violate completeness beyond 1e-9")


def _check_choi_marginal(mat: np.ndarray, dim_out: int, dim_in: int) -> None:
    """Input marginal I/dim_in to 1e-9 for a Choi matrix or a stack of them."""
    marg = partial_trace_mat(mat, (dim_out, dim_in), keep=1)
    if np.max(np.abs(marg - np.eye(dim_in) / dim_in)) > CHOI_TOL:
        raise ValidationError("Choi input marginal deviates from I/dim_in beyond 1e-9")


@dataclass(frozen=True, eq=False)  # == is identity: the fields reach arrays
class KrausChannel:
    """CPTP map given by a read-only Kraus stack ``kraus`` of shape
    (k, dim_out, dim_in), k >= 1; any sequence of k operators is copied into
    it, and ``dim_in`` and ``dim_out`` read its shape."""

    kraus: np.ndarray

    def __post_init__(self):
        ks = np.array(self.kraus, dtype=complex)
        if ks.ndim != 3 or not ks.size:
            raise ValueError(f"Kraus stack shape {ks.shape}, expected (k >= 1, dim_out, dim_in)")
        if ks.shape[1] * ks.shape[2] > MAX_CHANNEL_DIM:
            raise ValueError(f"dim_in * dim_out must not exceed {MAX_CHANNEL_DIM}")
        _check_kraus(ks)
        ks.setflags(write=False)
        object.__setattr__(self, "kraus", ks)

    dim_in = property(lambda self: self.kraus.shape[2])
    dim_out = property(lambda self: self.kraus.shape[1])


def apply(ch: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """Apply the channel to subsystem 0 of ``rho``; other factors pass through.

    ``out[oa, pb] = sum_k sum_ij K_k[o, i] rho[ia, jb] conj(K_k[p, j])``, with
    ``a, b`` the ancilla (all other factors): one matmul for the left factor
    of every Kraus operator, one tensordot for the right factor and the sum.
    """
    din, dout = ch.dim_in, ch.dim_out
    if rho.dims[0] != din:
        raise ValueError(
            f"channel input dimension {din} does not match subsystem 0 of {rho.dims}")
    anc = rho.dim // din
    ks = ch.kraus
    left = (ks.reshape(-1, din) @ rho.mat.reshape(din, -1)).reshape(
        len(ks), dout * anc, din, anc)
    out = np.tensordot(left, ks.conj(), axes=([0, 2], [0, 2]))   # [oa, b, p]
    return DensityMatrix((dout,) + rho.dims[1:],
                         out.transpose(0, 2, 1).reshape(dout * anc, dout * anc))


def _choi_gram(ks: np.ndarray) -> np.ndarray:
    """Choi matrix of a Kraus stack ``(..., k, dim_out, dim_in)``: the gram of
    the row-major Kraus vectors, each over sqrt(dim_in)."""
    vecs = ks.reshape(ks.shape[:-2] + (-1,)) / np.sqrt(ks.shape[-1])
    return np.einsum("...ka,...kb->...ab", vecs, vecs.conj())


def choi(ch: KrausChannel) -> DensityMatrix:
    """Choi state of the channel on ``(dim_out, dim_in)`` (see
    :func:`_choi_gram`), checked to have input marginal I/dim_in."""
    rho = DensityMatrix((ch.dim_out, ch.dim_in), _choi_gram(ch.kraus))
    _check_choi_marginal(rho.mat, ch.dim_out, ch.dim_in)
    return rho


def identity(d: int = 2) -> KrausChannel:
    """Identity channel on a d-dimensional system."""
    return KrausChannel(np.eye(d, dtype=complex)[None])


# Each qubit family's Kraus operators, defined once for parameters x of shape
# (..., 1, 1) so that every operator broadcasts to (..., 2, 2).
def _dephasing_kraus(p):
    return np.sqrt(1.0 - p) * _ID2, np.sqrt(p) * SIGMA_Z


def _depolarizing_kraus(r):
    q = np.sqrt(0.25 * r)
    return np.sqrt(1.0 - 0.75 * r) * _ID2, q * SIGMA_X, q * SIGMA_Y, q * SIGMA_Z


def _amplitude_damping_kraus(r):
    return _KET0_BRA0 + np.sqrt(r) * _KET1_BRA1, np.sqrt(1.0 - r) * _KET0_BRA1


def _family_kraus(kind: str, x, error=ValueError) -> np.ndarray:
    """Kraus stack ``(..., k, 2, 2)`` of family ``kind`` at each parameter of ``x``.

    A parameter outside [0, 1], NaN included, raises ``error``.
    """
    x = np.asarray(x, dtype=float)
    bad = ~((x >= 0.0) & (x <= 1.0))
    if bad.any():
        raise error(f"{kind} parameter {float(x[bad][0])} outside [0, 1]")
    return np.stack(QUBIT_FAMILIES[kind][1](x[..., None, None]), axis=-3)


def _family_channel(kind: str, x, error=ValueError) -> KrausChannel:
    return KrausChannel(_family_kraus(kind, x, error))


def family_choi(kind: str, x) -> tuple[np.ndarray, np.ndarray]:
    """Kraus stack ``(..., k, 2, 2)`` and Choi matrices ``(..., 4, 4)`` of
    family ``kind`` at each parameter of ``x``, with every check that
    :class:`KrausChannel` and :func:`choi` make on a single channel."""
    ks = _family_kraus(kind, x)
    _check_kraus(ks)
    mats = _choi_gram(ks)
    _check_density(mats)
    _check_choi_marginal(mats, 2, 2)
    return ks, mats


def dephasing(p: float) -> KrausChannel:
    """Qubit dephasing rho -> (1-p) rho + p Z rho Z."""
    return _family_channel("dephasing", p)


def depolarizing(r: float) -> KrausChannel:
    """Qubit depolarizing rho -> (1-r) rho + r I/2 (r=1 is the constant channel)."""
    return _family_channel("depolarizing", r)


def amplitude_damping(r: float) -> KrausChannel:
    """Qubit amplitude damping with survival amplitude sqrt(r) on |1>.

    Kraus operators diag(1, sqrt(r)) and sqrt(1-r) |0><1|, so r=1 is the
    identity and r=0 measures and resets to |0>.
    """
    return _family_channel("amplitude_damping", r)


def random_channel(dim_in: int, dim_out: int, kraus_count: int,
                   rng: np.random.Generator) -> KrausChannel:
    """Haar-random channel from a random Stinespring isometry."""
    v = haar_isometry(dim_out * kraus_count, dim_in, rng)
    return KrausChannel(v.reshape(kraus_count, dim_out, dim_in))


# Parametrized qubit families:
# name -> (wire-format parameter key, Kraus stack of a parameter array).
QUBIT_FAMILIES = {
    "dephasing": ("p", _dephasing_kraus),
    "depolarizing": ("r", _depolarizing_kraus),
    "amplitude_damping": ("r", _amplitude_damping_kraus),
}


def teleportation_covered(j) -> np.ndarray:
    """True where teleportation with J simulates the channel, so E_C(N) <= E_F(J):
    J (a Choi state or a ``(..., d^2, d^2)`` stack) is of a d -> d channel and at most
    ``CHOI_TOL`` off the diagonal in the generalized Bell basis ``vec(X^a Z^b)/sqrt(d)``."""
    mats = getattr(j, "mat", j)
    d = math.isqrt(mats.shape[-1])
    if getattr(j, "dims", (d, d)) != (d, d):
        return np.False_
    k = np.arange(d)
    shift = np.eye(d)[(k - k[:, None]) % d]            # X^a [i, l] = [i == l + a]
    phase = np.exp(2j * np.pi / d * np.outer(k, k))    # Z^b [l, l] = w^(b l)
    bell = (shift[:, None] * phase[:, None]).reshape(d * d, d * d).T / np.sqrt(d)
    off = (bell.conj().T @ mats @ bell)[..., ~np.eye(d * d, dtype=bool)]
    return (np.abs(off) <= CHOI_TOL).all(axis=-1)


def _count(x) -> bool:
    """A JSON positive integer: an int, not a bool, at least 1."""
    return isinstance(x, int) and not isinstance(x, bool) and x >= 1


def _numbers(obj, shape: tuple[int, ...], what: str) -> np.ndarray:
    """Nested JSON number lists of exactly ``shape`` as a float array.

    Every list length is checked before any number is read, so a wrong shape
    builds nothing of the declared size.  Booleans and oversized ints fail.
    """
    form = "x".join(map(str, shape)) + " array of numbers" if shape else "number"
    flat = [obj]
    for n in shape:
        if not all(isinstance(x, list) and len(x) == n for x in flat):
            raise SchemaError(f"{what} must be a {form}")
        flat = [y for x in flat for y in x]
    if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in flat):
        raise SchemaError(f"{what} must be a {form}")
    try:
        return np.array(flat, dtype=float).reshape(shape)
    except OverflowError:
        raise SchemaError(f"{what} holds an integer too large for a float") from None


def channel_from_json(obj) -> KrausChannel:
    """Build a channel from its wire-format description.

    Accepted forms: ``{"type": "identity", "d": 2}``,
    ``{"type": "dephasing", "p": 0.3}``, ``{"type": "depolarizing", "r": 0.5}``,
    ``{"type": "amplitude_damping", "r": 0.5}``, and
    ``{"type": "kraus", "dim_in": 2, "dim_out": 2, "ops": [...]}`` where each
    operator is a row-major flat list of ``[re, im]`` pairs.

    Malformed descriptions raise :class:`SchemaError`; well-formed operator
    lists that fail completeness raise :class:`ValidationError`.
    """
    if not isinstance(obj, dict):
        raise SchemaError("channel description must be a JSON object")
    kind = obj.get("type")
    if kind == "identity":
        d = obj.get("d")
        if not _count(d):
            raise SchemaError("identity channel needs a positive integer 'd'")
        if d * d > MAX_CHANNEL_DIM:
            raise SchemaError(f"identity dimension {d} exceeds the supported range")
        return identity(d)
    if isinstance(kind, str) and kind in QUBIT_FAMILIES:
        key = QUBIT_FAMILIES[kind][0]
        val = _numbers(obj.get(key), (), f"{kind} channel parameter '{key}'")
        return _family_channel(kind, val, SchemaError)
    if kind == "kraus":
        din, dout = obj.get("dim_in"), obj.get("dim_out")
        ops = obj.get("ops")
        if not (_count(din) and _count(dout)):
            raise SchemaError("kraus channel needs positive integer dim_in and dim_out")
        if din * dout > MAX_CHANNEL_DIM:
            raise SchemaError("dim_in * dim_out exceeds the supported range")
        if not isinstance(ops, list) or not ops:
            raise SchemaError("kraus channel needs a nonempty 'ops' list")
        # each [re, im] pair is one complex128 in memory, signed zeros included
        pairs = _numbers(ops, (len(ops), dout * din, 2),
                         "kraus 'ops' (row-major [re, im] pairs)")
        return KrausChannel(pairs.view(complex).reshape(-1, dout, din))
    raise SchemaError(f"unknown channel type {kind!r}")


def state_from_json(obj) -> DensityMatrix:
    """Parse {"dims": [...], "re": [[...]], "im": [[...]]} (im optional)."""
    if not isinstance(obj, dict):
        raise SchemaError("state description must be a JSON object")
    dims = obj.get("dims")
    if not isinstance(dims, list) or not dims or not all(_count(d) for d in dims):
        raise SchemaError("state needs a 'dims' list of positive integers")
    dim = math.prod(dims)
    re = _numbers(obj.get("re"), (dim, dim), "state 're'")
    im = _numbers(obj["im"], (dim, dim), "state 'im'") if "im" in obj else 0.0
    return DensityMatrix(tuple(dims), re + 1j * im)
