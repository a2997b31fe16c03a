"""Kernel tests: partial traces, eigensolver, norms, Schmidt spectra."""

import numpy as np
import pytest

from entcost.entanglement import _YY, _EnsembleSearch, _schmidt_sq, eof_pure
from entcost.linalg import (
    DensityMatrix,
    PureState,
    ValidationError,
    haar_isometry,
    herm_eig,
    numerical_rank,
    partial_trace,
    partial_trace_mat,
    partial_transpose_mat,
    random_density_matrix,
    random_pure_state,
    trace_norm,
)

SY = np.array([[0, -1j], [1j, 0]])
SX = np.array([[0, 1], [1, 0]], dtype=complex)
BELL_PLUS = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
BELL_MINUS = np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2)


def bell_dm(vec=BELL_PLUS):
    return DensityMatrix((2, 2), np.outer(vec, vec.conj()))


def test_tensor_sigma_y_pair():
    # hand expansion: kron flips both bits and picks up signs on the corners
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 3] = -1
    expected[1, 2] = 1
    expected[2, 1] = 1
    expected[3, 0] = -1
    np.testing.assert_allclose(np.kron(SY, SY), expected, atol=1e-15)
    np.testing.assert_array_equal(_YY, expected)  # the concurrence's spin flip


def test_partial_trace_bell():
    red = partial_trace(bell_dm(), keep=0)
    np.testing.assert_allclose(red.mat, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_product():
    rng = np.random.default_rng(3)
    rho = random_density_matrix((2,), 2, rng)
    sig = random_density_matrix((3,), 3, rng)
    joint = DensityMatrix((2, 3), np.kron(rho.mat, sig.mat))
    np.testing.assert_allclose(partial_trace(joint, keep=0).mat, rho.mat, atol=1e-10)
    np.testing.assert_allclose(partial_trace(joint, keep=1).mat, sig.mat, atol=1e-10)


def test_partial_trace_amplitude_damping_choi():
    # hand-built Choi matrix of the damping channel at r = 0.5, output factor first
    r = 0.5
    c = np.zeros((4, 4), dtype=complex)
    c[0, 0] = 0.5
    c[1, 1] = (1 - r) / 2
    c[3, 3] = r / 2
    c[0, 3] = c[3, 0] = np.sqrt(r) / 2
    choi = DensityMatrix((2, 2), c)
    np.testing.assert_allclose(partial_trace(choi, keep=0).mat,
                               np.diag([0.75, 0.25]), atol=1e-12)
    np.testing.assert_allclose(partial_trace(choi, keep=1).mat,
                               np.eye(2) / 2, atol=1e-12)


def test_partial_trace_three_factors():
    rng = np.random.default_rng(11)
    rho = random_density_matrix((2, 2, 2), 5, rng)
    # tracing in two steps agrees with tracing in one
    two_step = partial_trace(partial_trace(rho, keep=(0, 2)), keep=1)
    one_step = partial_trace(rho, keep=2)
    np.testing.assert_allclose(two_step.mat, one_step.mat, atol=1e-12)
    assert abs(one_step.trace() - 1.0) < 1e-10


def test_partial_trace_bad_index():
    with pytest.raises(ValueError):
        partial_trace(bell_dm(), keep=2)
    with pytest.raises(ValueError):
        partial_trace(bell_dm(), keep=())
    # indices follow the rule of dimensions: never truncated floats or bools
    for keep in ([1.9], [0.2], True, [False]):
        with pytest.raises(ValueError, match="must be integers"):
            partial_trace(bell_dm(), keep=keep)
    with pytest.raises(ValueError, match="duplicate subsystem indices"):
        partial_trace(bell_dm(), keep=(0, 0))


def test_herm_eig_diagonal():
    w, v = herm_eig(np.diag([3.0, 1.0, 2.0]))
    np.testing.assert_allclose(w, [3, 2, 1])
    np.testing.assert_allclose(np.abs(v), np.eye(3)[:, [0, 2, 1]], atol=1e-12)


def test_herm_eig_pauli_x():
    w, v = herm_eig(SX)
    np.testing.assert_allclose(w, [1, -1], atol=1e-12)
    np.testing.assert_allclose(np.abs(v), np.full((2, 2), 1 / np.sqrt(2)), atol=1e-12)


def test_herm_eig_dephasing_choi_spectrum():
    p = 0.3
    mat = (1 - p) * np.outer(BELL_PLUS, BELL_PLUS) + p * np.outer(BELL_MINUS, BELL_MINUS)
    w, v = herm_eig(mat)
    np.testing.assert_allclose(w, [0.7, 0.3, 0, 0], atol=1e-12)
    assert abs(np.vdot(v[:, 0], BELL_PLUS)) == pytest.approx(1.0, abs=1e-9)
    assert abs(np.vdot(v[:, 1], BELL_MINUS)) == pytest.approx(1.0, abs=1e-9)


def test_herm_eig_reconstruction():
    rng = np.random.default_rng(5)
    for dim in (2, 5, 16):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h = g + g.conj().T
        w, v = herm_eig(h)
        np.testing.assert_allclose(v @ np.diag(w) @ v.conj().T, h, atol=1e-8)
        np.testing.assert_allclose(v.conj().T @ v, np.eye(dim), atol=1e-8)
        assert np.all(np.diff(w) <= 1e-12)


def test_herm_eig_reverses_eigh_on_exact_ties():
    # the descending order is eigh's ascending one reversed, tied columns
    # included: _EnsembleSearch.base takes its rows in this order
    swap = np.eye(9).reshape(3, 3, 3, 3).transpose(0, 1, 3, 2).reshape(9, 9)
    werner = (3.0 * np.eye(9) - swap) / 24.0     # spectrum 1/12 (x6), 1/6 (x3)
    for h in (np.eye(4) / 4, werner, np.stack([np.eye(4) / 4, np.diag([0.5, 0.5, 0, 0])])):
        w, v = herm_eig(h)
        w_up, v_up = np.linalg.eigh(np.asarray(h, dtype=complex))
        np.testing.assert_array_equal(w, w_up[..., ::-1])
        np.testing.assert_array_equal(v, v_up[..., ::-1])


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="expected a square matrix"):
        herm_eig(np.zeros((2, 3)))


def test_trace_norm():
    assert trace_norm(np.diag([1.0, -1.0])) == pytest.approx(2.0)
    rng = np.random.default_rng(9)
    rho = random_density_matrix((2, 2), 3, rng)
    assert trace_norm(rho.mat) == pytest.approx(1.0, abs=1e-9)
    diff = np.outer(BELL_PLUS, BELL_PLUS) - np.outer(BELL_MINUS, BELL_MINUS)
    assert trace_norm(diff) == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(ValueError, match="expected a matrix"):
        trace_norm(np.ones(4))


def schmidt_sq(vec, dims=(2, 2)):
    return _schmidt_sq(np.asarray(vec, dtype=complex), *dims)


def test_schmidt_bell():
    np.testing.assert_allclose(schmidt_sq(BELL_PLUS), [0.5, 0.5], atol=1e-12)


def test_schmidt_product_state():
    np.testing.assert_allclose(schmidt_sq([1, 0, 0, 0]), [1.0, 0.0])


def test_schmidt_ratio_state():
    r = 0.25
    vec = np.array([1, 0, 0, np.sqrt(r)]) / np.sqrt(1 + r)
    np.testing.assert_allclose(schmidt_sq(vec), [0.8, 0.2], atol=1e-12)


def test_schmidt_uses_package_rank_rule():
    # a Schmidt weight counts iff it passes the package rank rule, as in h0,
    # where the one-shot bounds count branch support: 1e-8 does, 1e-10 and
    # 1e-14 do not
    for weight, want in ((1e-8, 1.0), (1e-10, 0.0), (1e-14, 0.0)):
        psi = PureState((2, 2), [np.sqrt(1 - weight), 0, 0, np.sqrt(weight)])
        search = _EnsembleSearch(psi.to_density_matrix())
        assert search.smooth_value(psi.vec[None, None], 0.0) == [want], weight


def test_numerical_rank_is_scale_invariant():
    # one rank rule: a weight counts iff it exceeds RANK_RTOL of the
    # spectrum's total, so rescaling a spectrum never changes its rank, and
    # a 1e-12 tail never counts
    rng = np.random.default_rng(43)
    for _ in range(20):
        head = 10.0 ** rng.uniform(-7.0, 0.0, size=rng.integers(1, 6))
        tail = 1e-12 * rng.uniform(size=rng.integers(1, 4))
        w = rng.permutation(np.concatenate([head / head.sum(), tail]))
        for c in (1e-6, 1.0, 1e6):
            assert numerical_rank(c * w) == head.size, (w, c)


def test_schmidt_reconstruction_and_normalization():
    # the squared coefficients are the spectrum of either marginal, in both
    # orientations of the smaller side
    rng = np.random.default_rng(29)
    for dims in ((2, 3), (3, 3), (4, 2)):
        psi = random_pure_state(dims, rng)
        sq = schmidt_sq(psi.vec, dims)
        assert sq.sum() == pytest.approx(1.0, abs=1e-9)
        for keep in (0, 1):
            marg = np.linalg.eigvalsh(partial_trace(psi.to_density_matrix(), keep).mat)
            np.testing.assert_allclose(np.sort(marg)[::-1][:sq.size], sq, atol=1e-12)
            assert np.abs(np.sort(marg)[::-1][sq.size:]).max(initial=0.0) < 1e-12


def test_schmidt_requires_bipartite():
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError):
        eof_pure(random_pure_state((2, 2, 2), rng))


def test_partial_transpose_involution():
    rng = np.random.default_rng(31)
    rho = random_density_matrix((2, 3), 4, rng)
    pt = partial_transpose_mat(rho.mat, (2, 3), 1)
    np.testing.assert_allclose(partial_transpose_mat(pt, (2, 3), 1), rho.mat,
                               atol=1e-14)
    assert np.max(np.abs(pt - pt.conj().T)) < 1e-14
    with pytest.raises(ValueError, match="out of range"):
        partial_transpose_mat(rho.mat, (2, 3), 2)


def test_density_matrix_validation():
    with pytest.raises(ValidationError):
        DensityMatrix((2,), np.array([[1.0, 1.0], [0.0, 0.0]]))  # not Hermitian
    with pytest.raises(ValidationError):
        DensityMatrix((2,), np.diag([1.5, -0.5]))  # not PSD
    with pytest.raises(ValidationError):
        DensityMatrix((2,), np.diag([0.4, 0.4]))  # trace off
    with pytest.raises(ValidationError):
        DensityMatrix((2, 2), np.eye(2) / 2)  # dims mismatch
    rng = np.random.default_rng(3)
    for rank in (0, 5):
        with pytest.raises(ValueError, match=r"rank must lie in \[1, 4\]"):
            random_density_matrix((2, 2), rank, rng)


def test_subsystem_dimensions_are_integers_of_at_least_one():
    # one rule wherever dims are taken: a Python or numpy integer >= 1; a
    # float, integral or not, and a bool are refused rather than truncated
    rng = np.random.default_rng(71)
    mat, vec = np.eye(4) / 4, np.ones(4) / 2
    takers = [lambda dims: DensityMatrix(dims, mat),
              lambda dims: PureState(dims, vec),
              lambda dims: partial_trace_mat(mat, dims, 0),
              lambda dims: partial_transpose_mat(mat, dims, 0),
              lambda dims: random_pure_state(dims, rng),
              lambda dims: random_density_matrix(dims, 1, rng)]
    for take in takers:
        for bad in ((2.9, 2), (2.0, 2), (1.5, 4), np.array([2.0, 2.0]), (True, 4),
                    (np.bool_(True), 4), (2, 0), (4, 1, 0), ()):
            with pytest.raises(ValidationError, match="invalid subsystem dimensions"):
                take(bad)
        take((np.int64(2), np.int32(2)))
    for dims in ((np.int64(2), 2), np.array([2, 2]), (np.uint8(4), 1)):
        got = DensityMatrix(dims, mat).dims
        assert got == tuple(int(d) for d in dims) and all(type(d) is int for d in got)


def test_pure_state_validation():
    with pytest.raises(ValidationError):
        PureState((2,), np.array([1.0, 1.0]))
    with pytest.raises(ValidationError, match="vector length 3 does not match"):
        PureState((2, 2), np.ones(3) / np.sqrt(3))
    psi = PureState((2,), np.array([1.0, 1.0]) / np.sqrt(2))
    rho = psi.to_density_matrix()
    assert rho.trace() == pytest.approx(1.0)


def test_haar_isometry_columns():
    rng = np.random.default_rng(41)
    v = haar_isometry(6, 3, rng)
    np.testing.assert_allclose(v.conj().T @ v, np.eye(3), atol=1e-12)
    with pytest.raises(ValueError, match="rows >= cols"):
        haar_isometry(2, 3, rng)
