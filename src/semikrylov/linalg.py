"""Dense matrix/vector validation, symmetric eigendecomposition, and SVD.

Everything is plain float64 numpy. The eigendecomposition and the SVD are
LAPACK via numpy (``np.linalg.eigh`` and ``np.linalg.svd``), with accuracy
relative to ||A||, the same scale the numerical rank cut is taken at. They
serve as the spectral ground truth every solver diagnostic is checked
against, so they are deliberately independent of the iterative methods.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

DEFAULT_RANK_TOL = 1e-10

_SYMMETRY_TOL = 1e-12


class ConvergenceError(RuntimeError):
    """Raised when LAPACK's eigensolver or SVD fails to converge."""


def as_matrix(a) -> np.ndarray:
    """Validate and return ``a`` as a 2-d float64 array with finite entries."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"matrix dimensions must be positive, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must all be finite")
    return m


def as_vector(v) -> np.ndarray:
    """Validate and return ``v`` as a 1-d float64 array with finite entries."""
    w = np.asarray(v, dtype=np.float64)
    if w.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got ndim={w.ndim}")
    if w.shape[0] < 1:
        raise ValueError("vector must have positive length")
    if not np.all(np.isfinite(w)):
        raise ValueError("vector entries must all be finite")
    return w


def _check_tolerance(name: str, value: float) -> None:
    """Raise ValueError unless value is a real number, not a bool, with 0 < value < inf (not NaN)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if not 0.0 < value < np.inf:
        raise ValueError(f"{name} must be finite and positive, got {value}")


def _check_count(name: str, value: int, least: int) -> None:
    """Raise ValueError unless value is an int or numpy integer, not a bool, of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")


def _relative_distance(x: np.ndarray, reference: np.ndarray, size: float) -> float:
    """||x - reference|| / size; the largest over the rows of a 2-d x."""
    diff = x - reference
    dist = np.max(np.linalg.norm(diff, axis=1)) if diff.ndim == 2 else np.linalg.norm(diff)
    return float(dist / size)


def check_symmetric(a: np.ndarray) -> None:
    """Raise ValueError if the (square) matrix is not symmetric within tolerance."""
    if float(np.max(np.abs(a - a.T))) > _SYMMETRY_TOL * float(np.max(np.abs(a))):
        raise ValueError("matrix is not symmetric within tolerance")


def _sized(v, length: int, what: str) -> np.ndarray:
    """``as_vector(v)``, after checking that it has ``length`` entries; ``what`` names v."""
    v = as_vector(v)
    if v.shape[0] != length:
        raise ValueError(f"{what} has length {v.shape[0]}, expected {length}")
    return v


def _symmetric(a) -> np.ndarray:
    """``as_matrix(a)``, after checking that it is square and symmetric."""
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got {a.shape[0]}x{a.shape[1]}")
    check_symmetric(a)
    return a


def matvec(a, x) -> np.ndarray:
    """Dense matrix-vector product y = A x."""
    a = as_matrix(a)
    return a @ _sized(x, a.shape[1], "vector")


class _Factorization:
    """A = U diag(sigmas) V^T with a rank cut: the names both factorizations share.

    The leading ``rank`` columns of U and V span the numerical range of A and
    of A^T; the trailing columns span the null spaces of A^T and of A.
    """

    @property
    def shape(self) -> tuple[int, int]:
        return (self.u.shape[0], self.v.shape[0])

    @property
    def u1(self) -> np.ndarray:
        """Orthonormal basis of the numerical range (m x rank)."""
        return self.u[:, : self.rank]

    @property
    def u2(self) -> np.ndarray:
        """Orthonormal basis of the complement of the range (m x (m - rank))."""
        return self.u[:, self.rank :]

    @property
    def v1(self) -> np.ndarray:
        return self.v[:, : self.rank]

    @property
    def v2(self) -> np.ndarray:
        """Orthonormal basis of the numerical null space (n x (n - rank))."""
        return self.v[:, self.rank :]

    @property
    def sigmas_r(self) -> np.ndarray:
        """The leading ``rank`` (positive) values."""
        return self.sigmas[: self.rank]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Apply the reconstructed A to a length-n vector."""
        k = self.sigmas.shape[0]
        return self.u[:, :k] @ (self.sigmas * (self.v[:, :k].T @ x))

    def apply_transpose(self, y: np.ndarray) -> np.ndarray:
        """Apply the reconstructed A^T to a length-m vector."""
        k = self.sigmas.shape[0]
        return self.v[:, :k] @ (self.sigmas * (self.u[:, :k].T @ y))


@dataclass(frozen=True)
class SpectralDecomposition(_Factorization):
    """Orthogonal eigendecomposition A = Q diag(lambdas) Q^T with a rank cut.

    Columns of ``q`` are eigenvectors sorted by eigenvalue, largest first.
    Exactly the first ``rank`` eigenvalues exceed rank_tol * lambdas[0], and none
    do when lambdas[0] is not positive. It reads as an SVD with U = V = Q and
    sigmas = lambdas, so q1/q2/lambdas_r name u1/u2/sigmas_r. Instances are
    immutable and safe to share across threads.
    """

    q: np.ndarray
    lambdas: np.ndarray
    rank: int
    rank_tol: float

    u = v = property(lambda self: self.q)
    sigmas = property(lambda self: self.lambdas)
    q1, q2, lambdas_r = _Factorization.u1, _Factorization.u2, _Factorization.sigmas_r
    dim = property(lambda self: self.shape[0])


@dataclass(frozen=True)
class SingularDecomposition(_Factorization):
    """Full SVD A = U Sigma V^T with a rank cut on the singular values."""

    u: np.ndarray
    sigmas: np.ndarray
    v: np.ndarray
    rank: int
    rank_tol: float


def _numerical_rank(values: np.ndarray, rank_tol: float) -> int:
    return int(np.sum(values > max(rank_tol * values[0], 0.0)))


def symmetric_eig(a, rank_tol: float = DEFAULT_RANK_TOL) -> SpectralDecomposition:
    """Eigendecomposition of a symmetric matrix by LAPACK (``np.linalg.eigh``).

    The input is symmetrised as 0.5 (A + A^T) before the call. Eigenvalues
    are accurate relative to ||A||, which is the scale the rank cut uses.
    Eigenpairs come back sorted by eigenvalue, descending.

    Raises
    ------
    ValueError
        If the matrix is not square, not symmetric within 1e-12 relative
        in the max-norm, or rank_tol is not finite and positive.
    ConvergenceError
        If LAPACK reports that the eigensolver did not converge.
    """
    a = _symmetric(a)
    _check_tolerance("rank_tol", rank_tol)

    try:
        lambdas, vecs = np.linalg.eigh(0.5 * (a + a.T))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"symmetric eigensolver did not converge: {exc}") from exc
    lambdas = lambdas[::-1].copy()
    vecs = vecs[:, ::-1].copy()
    return SpectralDecomposition(vecs, lambdas, _numerical_rank(lambdas, rank_tol), rank_tol)


def svd(a, rank_tol: float = DEFAULT_RANK_TOL) -> SingularDecomposition:
    """Full singular value decomposition by LAPACK (``np.linalg.svd``).

    Singular values are accurate relative to ||A|| and come back descending.
    U (m x m) and V (n x n) are square and orthogonal even for
    rank-deficient input.

    Raises
    ------
    ValueError
        If rank_tol is not finite and positive.
    ConvergenceError
        If LAPACK reports that the SVD did not converge.
    """
    a = as_matrix(a)
    _check_tolerance("rank_tol", rank_tol)
    try:
        u, sigmas, vh = np.linalg.svd(a, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"SVD did not converge: {exc}") from exc
    return SingularDecomposition(u, sigmas, vh.T, _numerical_rank(sigmas, rank_tol), rank_tol)
