"""Dense matrix/vector validation, symmetric eigendecomposition, and SVD.

Everything is plain float64 numpy. The eigendecomposition and the SVD are
LAPACK via numpy (``np.linalg.eigh`` and ``np.linalg.svd``), with accuracy
relative to ||A||, the same scale the numerical rank cut is taken at. They
serve as the spectral ground truth every solver diagnostic is checked
against, so they are deliberately independent of the iterative methods.
"""

from __future__ import annotations

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
    """Raise ValueError unless 0 < value < inf; NaN fails both comparisons."""
    if not 0.0 < value < np.inf:
        raise ValueError(f"{name} must be finite and positive, got {value}")


def check_symmetric(a: np.ndarray) -> None:
    """Raise ValueError if the (square) matrix is not symmetric within tolerance."""
    scale = max(float(np.max(np.abs(a))), 1.0)
    if float(np.max(np.abs(a - a.T))) > _SYMMETRY_TOL * scale:
        raise ValueError("matrix is not symmetric within tolerance")


def matvec(a, x) -> np.ndarray:
    """Dense matrix-vector product y = A x."""
    a = as_matrix(a)
    x = as_vector(x)
    if a.shape[1] != x.shape[0]:
        raise ValueError(
            f"cannot multiply {a.shape[0]}x{a.shape[1]} matrix with "
            f"length-{x.shape[0]} vector"
        )
    return a @ x


@dataclass(frozen=True)
class SpectralDecomposition:
    """Orthogonal eigendecomposition A = Q diag(lambdas) Q^T with a rank cut.

    Columns of ``q`` are eigenvectors sorted by eigenvalue, largest first.
    Exactly the first ``rank`` eigenvalues exceed rank_tol * max(lambdas[0], 1);
    the corresponding leading columns span the numerical range of A and the
    trailing columns span its null space. Instances are immutable and safe to
    share across threads.
    """

    q: np.ndarray
    lambdas: np.ndarray
    rank: int
    rank_tol: float

    @property
    def dim(self) -> int:
        return self.q.shape[0]

    @property
    def q1(self) -> np.ndarray:
        """Orthonormal basis of the numerical range (dim x rank)."""
        return self.q[:, : self.rank]

    @property
    def q2(self) -> np.ndarray:
        """Orthonormal basis of the numerical null space (dim x (dim - rank))."""
        return self.q[:, self.rank :]

    @property
    def lambdas_r(self) -> np.ndarray:
        """The leading ``rank`` (positive) eigenvalues."""
        return self.lambdas[: self.rank]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Apply the reconstructed operator Q diag(lambdas) Q^T to x."""
        return self.q @ (self.lambdas * (self.q.T @ x))


@dataclass(frozen=True)
class SingularDecomposition:
    """Full SVD A = U Sigma V^T with a rank cut on the singular values."""

    u: np.ndarray
    sigmas: np.ndarray
    v: np.ndarray
    rank: int
    rank_tol: float

    @property
    def shape(self) -> tuple[int, int]:
        return (self.u.shape[0], self.v.shape[0])

    @property
    def u1(self) -> np.ndarray:
        return self.u[:, : self.rank]

    @property
    def u2(self) -> np.ndarray:
        return self.u[:, self.rank :]

    @property
    def v1(self) -> np.ndarray:
        return self.v[:, : self.rank]

    @property
    def v2(self) -> np.ndarray:
        return self.v[:, self.rank :]

    @property
    def sigmas_r(self) -> np.ndarray:
        return self.sigmas[: self.rank]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Apply the reconstructed A to a length-n vector."""
        k = self.sigmas.shape[0]
        return self.u[:, :k] @ (self.sigmas * (self.v[:, :k].T @ x))

    def apply_transpose(self, y: np.ndarray) -> np.ndarray:
        """Apply the reconstructed A^T to a length-m vector."""
        k = self.sigmas.shape[0]
        return self.v[:, :k] @ (self.sigmas * (self.u[:, :k].T @ y))


def _numerical_rank(values: np.ndarray, rank_tol: float) -> int:
    cut = rank_tol * max(float(values[0]), 1.0)
    return int(np.sum(values > cut))


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
    a = as_matrix(a)
    n = a.shape[0]
    if a.shape[1] != n:
        raise ValueError(f"matrix must be square, got {a.shape[0]}x{a.shape[1]}")
    _check_tolerance("rank_tol", rank_tol)
    check_symmetric(a)

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
