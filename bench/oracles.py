"""Reference values for checking entcost outputs, computed without entcost.

Standard library and numpy only; this module never imports entcost, so a
fault in the package cannot hide by agreeing with itself.  Conventions match
the package: logarithms are base 2, subsystem 0 is the slow (left) tensor
factor, and the Choi state of a qubit channel is ``(E (x) I)(phi)`` on
(out, in).  :func:`selfcheck` tests every oracle on known answers and runs
before any measurement.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

_SY = np.array([[0, -1j], [1j, 0]])
SYSY = np.kron(_SY, _SY)
LOG2_3 = math.log2(3.0)


def binary_h(p: float) -> float:
    p = min(max(p, 0.0), 1.0)
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def shannon(probs) -> float:
    w = np.asarray(probs, dtype=float).ravel()
    w = w[w > 0.0]
    return float(-(w * np.log2(w)).sum())


def von_neumann(mat: np.ndarray) -> float:
    return shannon(np.clip(np.linalg.eigvalsh(mat), 0.0, None))


def reduce(mat: np.ndarray, dims, keep: int) -> np.ndarray:
    """Marginal of a bipartite operator on factor ``keep`` (0 or 1)."""
    da, db = dims
    t = np.asarray(mat).reshape(da, db, da, db)
    return np.einsum("ijkj->ik", t) if keep == 0 else np.einsum("ijil->jl", t)


def cond_entropy(mat: np.ndarray, dims) -> float:
    """H(A|B) = H(AB) - H(B)."""
    return von_neumann(mat) - von_neumann(reduce(mat, dims, 1))


def hashing_floor(mat: np.ndarray, dims) -> float:
    """max(0, -H(A|B), -H(B|A)): a lower bound on every entanglement of formation."""
    h_ab = von_neumann(mat)
    return max(0.0, von_neumann(reduce(mat, dims, 1)) - h_ab,
               von_neumann(reduce(mat, dims, 0)) - h_ab)


def log2_rank(mat: np.ndarray) -> float:
    w = np.linalg.eigvalsh(mat)
    return math.log2(int(np.count_nonzero(w > 1e-9 * max(w.max(), 1.0))))


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.linalg.eigvalsh(a - b)).sum())


# -- two-qubit closed forms -------------------------------------------------

def wootters_roots(mat: np.ndarray) -> np.ndarray:
    """Square roots of the eigenvalues of rho (sy x sy) conj(rho) (sy x sy), descending.

    With rho = W W^dag on its support, the nonzero eigenvalues of rho rho~ are
    those of (W^T Y W)^dag (W^T Y W), so the roots are the singular values of
    the rank x rank matrix W^T Y W.  This avoids taking square roots of the
    eigenvalue noise of a rank-deficient rho rho~.
    """
    w, v = np.linalg.eigh(mat)
    keep = w > 1e-12 * w.max()
    big_w = v[:, keep] * np.sqrt(w[keep])
    roots = np.zeros(4)
    sv = np.linalg.svd(big_w.T @ SYSY @ big_w, compute_uv=False)
    roots[:sv.size] = sv
    return roots


def concurrence_brute(mat: np.ndarray) -> float:
    """The textbook route: eigenvalues of rho rho~ straight from numpy.linalg.eig."""
    flipped = SYSY @ np.conj(mat) @ SYSY
    ev = np.sort(np.clip(np.linalg.eigvals(mat @ flipped).real, 0.0, None))[::-1]
    r = np.sqrt(ev)
    return max(0.0, r[0] - r[1] - r[2] - r[3])


def concurrence(mat: np.ndarray) -> float:
    r = wootters_roots(mat)
    return max(0.0, float(r[0] - r[1] - r[2] - r[3]))


def eof_from_concurrence(c: float) -> float:
    return binary_h(0.5 + 0.5 * math.sqrt(max(0.0, 1.0 - c * c)))


def wootters_eof(mat: np.ndarray) -> float:
    return eof_from_concurrence(concurrence(mat))


# -- decompositions ---------------------------------------------------------

def schmidt_probs(vec: np.ndarray, dims) -> np.ndarray:
    """Squared Schmidt coefficients by SVD of the coefficient matrix."""
    return np.linalg.svd(np.asarray(vec).reshape(dims), compute_uv=False) ** 2


def ensemble_matrix(items) -> np.ndarray:
    """sum_i p_i |v_i><v_i| for items (p_i, v_i)."""
    return sum(p * np.outer(v, np.conj(v)) for p, v in items)


def average_schmidt_entropy(items, dims) -> float:
    return float(sum(p * shannon(schmidt_probs(v, dims)) for p, v in items))


def spectral_ensemble_entropy(mat: np.ndarray, dims) -> float:
    """Average entanglement entropy of the eigen-ensemble of ``mat``."""
    w, v = np.linalg.eigh(mat)
    keep = w > 1e-12 * w.max()
    return average_schmidt_entropy(zip(w[keep], v[:, keep].T), dims)


# -- smoothing --------------------------------------------------------------

def truncation_support(cols: np.ndarray, delta: float) -> int:
    """Smallest s such that keeping the s largest atoms of every column of
    ``cols`` removes at most ``delta`` in total."""
    srt = np.sort(cols, axis=0)[::-1]
    for s in range(cols.shape[0] + 1):
        if srt[s:].sum() <= delta:
            return s
    raise ValueError(f"no support fits budget {delta}")


def branch_columns(items, dims, cut: float = 1e-9) -> np.ndarray:
    """Table of weighted branch marginal spectra; a normalized Schmidt
    weight at or below ``cut`` is rank noise and counts as 0 (the package's
    documented rank rule)."""
    cols = []
    for p, v in items:
        lam = schmidt_probs(v, dims)
        cols.append(p * np.where(lam > cut, lam, 0.0))
    return np.array(cols).T


def exhaustive_smoothing(weights: np.ndarray):
    """Every way to zero atoms of a table: (cost, largest column support) arrays."""
    nx, ny = weights.shape
    costs, supps = np.zeros(1), np.zeros(1, dtype=int)
    for y in range(ny):
        cc, ss = [], []
        for kept in itertools.product((False, True), repeat=nx):
            cc.append(sum(weights[x, y] for x in range(nx) if not kept[x]))
            ss.append(sum(1 for x in range(nx) if kept[x] and weights[x, y] > 0))
        costs = np.add.outer(costs, np.array(cc)).ravel()
        supps = np.maximum.outer(supps, np.array(ss)).ravel()
    return costs, supps


def smooth_h0_exhaustive(weights: np.ndarray, eps: float) -> float:
    costs, supps = exhaustive_smoothing(weights)
    s = int(supps[costs <= eps].min())
    return math.log2(s) if s > 0 else -math.inf


def h0_cond_classical(weights: np.ndarray) -> float:
    s = int((weights > 0).sum(axis=0).max())
    return math.log2(s) if s > 0 else -math.inf


# -- qubit channel families -------------------------------------------------

def family_concurrence(family: str, x: float) -> float:
    """Concurrence of the Choi state, from its X-shape in the Bell basis."""
    if family == "dephasing":
        return abs(1.0 - 2.0 * x)
    if family == "depolarizing":
        return max(0.0, 1.0 - 1.5 * x)
    if family == "amplitude_damping":
        return math.sqrt(x)
    raise ValueError(family)


def family_ec1(family: str, x: float) -> float:
    return eof_from_concurrence(family_concurrence(family, x))


def family_choi(family: str, x: float) -> np.ndarray:
    """Choi matrix on (out, in), basis order |00>, |01>, |10>, |11>."""
    m = np.zeros((4, 4))
    if family == "dephasing":
        m[0, 0] = m[3, 3] = 0.5
        m[0, 3] = m[3, 0] = 0.5 * (1.0 - 2.0 * x)
    elif family == "depolarizing":
        m[0, 0] = m[3, 3] = 0.5 - 0.25 * x
        m[1, 1] = m[2, 2] = 0.25 * x
        m[0, 3] = m[3, 0] = 0.5 * (1.0 - x)
    elif family == "amplitude_damping":
        m[0, 0] = 0.5
        m[0, 3] = m[3, 0] = 0.5 * math.sqrt(x)
        m[3, 3] = 0.5 * x
        m[1, 1] = 0.5 * (1.0 - x)
    else:
        raise ValueError(family)
    return m


def dephasing_row(p: float) -> dict:
    """q_arrow = 1 - h(p), ec1 = h(1/2 + sqrt(p(1-p))), q_e = 1 - h(p/2)/2."""
    return {"q_arrow": 1.0 - binary_h(p),
            "ec1": binary_h(0.5 + math.sqrt(p * (1.0 - p))),
            "q_e": 1.0 - 0.5 * binary_h(0.5 * p)}


# -- strong converse and counting factors -----------------------------------

def identity_error(rate: float, n: int) -> float:
    return 1.0 - 2.0 ** (-n * (rate - 1.0))


def simulation_error(n: int, d1: float, da: int, db: int) -> float:
    return (n + 1.0) ** (da * da - 1) * 2.0 ** (-n * d1 * d1 / (8.0 * math.log2(db + 3.0) ** 2))


def converse_raw(n: int, d1: float, d2: float, da: int, db: int, ec: float) -> float:
    return 1.0 - simulation_error(n, d1, da, db) - 2.0 ** (-n * (d2 - d1) / (ec + d1) - 1.0)


def postselection_log2(n: int, da: int) -> float:
    return math.log2((n + 1.0) ** (da * da - 1))


def definetti_log2(n: int, da: int, dr: int) -> float:
    return math.log2((n + 1.0) ** (2 * da * dr - 2))


def epsnet_log2(chi: int, eps: float, da: int, db: int) -> float:
    return math.log2((2.0 * math.sqrt(db) / eps + 1.0) ** (2 * chi * da * db))


# -- self-check -------------------------------------------------------------

def _bell() -> np.ndarray:
    v = np.array([1, 0, 0, 1]) / math.sqrt(2.0)
    return np.outer(v, v)


def selfcheck() -> None:
    """Known answers for every oracle; raises ValueError on the first miss."""
    problems = []

    def near(what, got, want, tol=1e-12):
        if not abs(got - want) <= tol:
            problems.append(f"{what}: got {got!r}, want {want!r}")

    bell = _bell()
    near("bell concurrence", concurrence(bell), 1.0)
    near("bell E_F", wootters_eof(bell), 1.0)
    near("bell hashing floor", hashing_floor(bell, (2, 2)), 1.0)
    near("bell H(A|B)", cond_entropy(bell, (2, 2)), -1.0)
    prod = np.zeros((4, 4))
    prod[0, 0] = 1.0
    near("product concurrence", concurrence(prod), 0.0)
    near("product E_F", wootters_eof(prod), 0.0)
    near("product spectral entropy", spectral_ensemble_entropy(prod, (2, 2)), 0.0)
    # Werner state F |bell><bell| + (1-F)(I - |bell><bell|)/3: C = max(0, 2F - 1).
    for f in (0.2, 0.5, 0.7, 0.9):
        werner = f * bell + (1.0 - f) * (np.eye(4) - bell) / 3.0
        c = max(0.0, 2.0 * f - 1.0)
        near(f"werner F={f} concurrence", concurrence(werner), c)
        near(f"werner F={f} brute concurrence", concurrence_brute(werner), c, 1e-9)
        near(f"werner F={f} E_F", wootters_eof(werner), eof_from_concurrence(c))
    near("E_F at C=0.5", eof_from_concurrence(0.5), binary_h(0.5 + 0.25 * math.sqrt(3.0)))
    near("max mixed qutrit entropy", von_neumann(np.eye(3) / 3.0), LOG2_3)
    bell_vec = np.array([1, 0, 0, 1]) / math.sqrt(2.0)
    near("bell ensemble entropy", average_schmidt_entropy([(1.0, bell_vec)], (2, 2)), 1.0)
    near("rank", log2_rank(np.diag([0.5, 0.5, 0.0, 1e-12])), 1.0)
    for family in ("dephasing", "depolarizing", "amplitude_damping"):
        for x in (0.0, 0.3, 0.5, 1.0):
            m = family_choi(family, x)
            near(f"{family}({x}) choi trace", float(np.trace(m)), 1.0)
            near(f"{family}({x}) choi input marginal",
                 float(np.abs(reduce(m, (2, 2), 1) - np.eye(2) / 2).max()), 0.0)
            near(f"{family}({x}) concurrence", concurrence(m), family_concurrence(family, x))
    near("dephasing ec1 at 0.25", family_ec1("dephasing", 0.25), 0.354578902665, 1e-12)
    near("identity error", identity_error(2.0, 10), 1.0 - 2.0 ** -10)
    near("postselection", postselection_log2(3, 2), 6.0)
    # Exhaustive smoothing of small tables against hand-computed answers and
    # against per-column truncation.
    table = np.array([[0.4, 0.1], [0.3, 0.05], [0.1, 0.05]])
    near("h0 of table", h0_cond_classical(table), LOG2_3)
    for eps, want in ((0.0, LOG2_3), (0.1, LOG2_3), (0.2, 1.0), (0.6, 0.0), (1.5, -math.inf)):
        got = smooth_h0_exhaustive(table, eps)
        if got != want:
            problems.append(f"exhaustive smoothing at eps={eps}: got {got}, want {want}")
    rng = np.random.default_rng(7)
    for i in range(20):
        w = rng.random((3, 2))
        w /= w.sum()
        for eps in (0.05, 0.2):
            s = truncation_support(w, eps)
            want = smooth_h0_exhaustive(w, eps)
            if (math.log2(s) if s else -math.inf) != want:
                problems.append(f"truncation vs exhaustive, table {i}, eps={eps}")
    if problems:
        raise ValueError("oracle self-check failed: " + "; ".join(problems))
