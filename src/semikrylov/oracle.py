"""Closed-form ground truth built directly on the spectral factors.

The pseudoinverse, the range/null split of a vector, and the consistency
test all come straight from an eigendecomposition or SVD, so they stay
independent of the iterative solvers they are used to check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import SingularDecomposition, SpectralDecomposition, _sized

DEFAULT_CONSISTENCY_TOL = 1e-10


@dataclass(frozen=True)
class SplitVector:
    """Coordinates of a vector in the eigenbasis: range block then null block."""

    range_part: np.ndarray
    null_part: np.ndarray


def split(decomp: SpectralDecomposition, v) -> SplitVector:
    """Split v into range coordinates Q1^T v and null coordinates Q2^T v."""
    v = _sized(v, decomp.dim, "vector")
    return SplitVector(decomp.q1.T @ v, decomp.q2.T @ v)


def unsplit(decomp: SpectralDecomposition, parts: SplitVector) -> np.ndarray:
    """Reassemble Q1 v1 + Q2 v2 from a split vector."""
    return decomp.q1 @ parts.range_part + decomp.q2 @ parts.null_part


def pseudoinverse_apply(decomp: SpectralDecomposition, b) -> np.ndarray:
    """Minimum-norm solution of A x = b for symmetric A.

    Inverts eigenvalue-wise on the numerical range only; the null component
    of b is annihilated, so the result always lies in range(A).
    """
    b1 = decomp.q1.T @ _sized(b, decomp.dim, "right-hand side")
    return decomp.q1 @ (b1 / decomp.lambdas_r)


def pseudoinverse_matrix(decomp: SpectralDecomposition) -> np.ndarray:
    """Assemble the pseudoinverse explicitly (small problems only)."""
    q1 = decomp.q1
    return (q1 / decomp.lambdas_r) @ q1.T


def pinv_apply_rect(sdec: SingularDecomposition, b) -> np.ndarray:
    """Minimum-norm least squares solution V1 Sigma_r^{-1} U1^T b."""
    t = sdec.u1.T @ _sized(b, sdec.shape[0], "right-hand side")
    return sdec.v1 @ (t / sdec.sigmas_r)


@dataclass(frozen=True)
class ConsistencyReport:
    consistent: bool
    null_norm: float


def consistency_check(
    decomp: SpectralDecomposition, b, tol: float = DEFAULT_CONSISTENCY_TOL
) -> ConsistencyReport:
    """Measure the null-space content of b; consistent when it is negligible.

    null_norm is ||Q2^T b||; the system counts as consistent when it does not
    exceed tol * ||b||.
    """
    return _consistency(decomp.q2, _sized(b, decomp.dim, "right-hand side"), tol)


def _consistency(
    null_basis: np.ndarray, b: np.ndarray, tol: float = DEFAULT_CONSISTENCY_TOL
) -> ConsistencyReport:
    """ConsistencyReport of b against the null basis (Q2, or U2 of an SVD) of the range."""
    null_norm = float(np.linalg.norm(null_basis.T @ b))
    return ConsistencyReport(null_norm <= tol * float(np.linalg.norm(b)), null_norm)
