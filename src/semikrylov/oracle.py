"""Closed-form ground truth built directly on the spectral factors.

The pseudoinverse, the range/null split of a vector, and the consistency
test all come straight from an eigendecomposition or SVD, so they stay
independent of the iterative solvers they are used to check. An
eigendecomposition reads as an SVD with U = V = Q, so the pseudoinverse and
the consistency test take either one.
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


def pseudoinverse_matrix(decomp: SpectralDecomposition) -> np.ndarray:
    """Assemble the pseudoinverse explicitly (small problems only)."""
    q1 = decomp.q1
    return (q1 / decomp.lambdas_r) @ q1.T


def pinv_apply_rect(sdec: SpectralDecomposition | SingularDecomposition, b) -> np.ndarray:
    """Minimum-norm least squares solution V1 Sigma_r^{-1} U1^T b, in range(A^T)."""
    t = sdec.u1.T @ _sized(b, sdec.shape[0], "right-hand side")
    return sdec.v1 @ (t / sdec.sigmas_r)


def pseudoinverse_apply(decomp: SpectralDecomposition | SingularDecomposition, b) -> np.ndarray:
    """Minimum-norm solution of A x = b for symmetric A: ``pinv_apply_rect`` with U = V = Q."""
    return pinv_apply_rect(decomp, b)


@dataclass(frozen=True)
class ConsistencyReport:
    consistent: bool
    null_norm: float


def consistency_check(
    decomp: SpectralDecomposition | SingularDecomposition, b, tol: float = DEFAULT_CONSISTENCY_TOL
) -> ConsistencyReport:
    """Measure the content of b outside the range of A; consistent when it is negligible.

    null_norm is ||U2^T b|| (||Q2^T b|| for an eigendecomposition); the system
    counts as consistent when it does not exceed tol * ||b||.
    """
    b = _sized(b, decomp.shape[0], "right-hand side")
    null_norm = float(np.linalg.norm(decomp.u2.T @ b))
    return ConsistencyReport(null_norm <= tol * float(np.linalg.norm(b)), null_norm)
