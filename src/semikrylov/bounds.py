"""Geometric convergence-bound evaluation against recorded solver traces.

Each verifier computes the method's natural error quantity per iteration
from the spectral factors, forms the theoretical envelope 2 * rho^k times
the initial value with rho built from the extreme nonzero eigenvalues or
singular values, and flags iterations where the measurement escapes the
envelope beyond a small slack. The slack (multiplicative 1 + 1e-6 plus an
absolute floor of 1e-13 times the initial value) absorbs rounding noise
near convergence, and violation collection stops once the measurement has
dropped to rounding level relative to its start, where comparing against a
geometric envelope stops meaning anything.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import SingularDecomposition, SpectralDecomposition
from .oracle import ConsistencyReport, consistency_check
from .solvers import SolveTrace

SLACK_REL = 1e-6
SLACK_FLOOR = 1e-13
NOISE_CUT = 1e-12


@dataclass(frozen=True)
class BoundReport:
    """Measured error quantities against the 2 * rho^k envelope.

    kappa_or_sigmas holds the extreme spectral values the contraction
    factor was built from: (lambda_1, lambda_r) for the cg energy bound,
    (sigma_1, sigma_r) for the least squares bounds. violations lists
    (iteration, measured, bound) triples that escaped the slack.
    """

    kind: str
    measured: list[float]
    bound: list[float]
    contraction_factor: float
    kappa_or_sigmas: tuple[float, float]
    violations: list[tuple[int, float, float]]
    passed: bool


def _envelope(rho: float, m0: float, count: int) -> list[float]:
    return [2.0 * rho**k * m0 for k in range(count)]


def _violations(measured, bound: list[float]) -> list[tuple[int, float, float]]:
    m, b = np.asarray(measured), np.array(bound)
    noise = m < NOISE_CUT * m[0]
    # collection stops at the first state at rounding level
    end = noise.argmax() if noise.any() else m.size
    bad = np.flatnonzero(m[:end] > b[:end] * (1.0 + SLACK_REL) + SLACK_FLOOR * m[0])
    return [(int(k), float(m[k]), bound[k]) for k in bad]


def _bound_report(kind: str, measured: np.ndarray, rho: float, spectrum) -> BoundReport:
    bound = _envelope(rho, float(measured[0]), len(measured))
    bad = _violations(measured, bound)
    extremes = (float(spectrum[0]), float(spectrum[-1]))
    return BoundReport(kind, measured.tolist(), bound, rho, extremes, bad, not bad)


def _check_trace(trace: SolveTrace, method: str, history, what: str, rank: int) -> None:
    """Raise unless trace is a ``method`` trace that recorded ``history``, on nonzero rank."""
    if trace.method != method:
        raise ValueError(f"{method}_bound_verify expects a {method} trace")
    if any(h is None or len(h) == 0 for h in history):
        raise ValueError(f"trace has no recorded {what}")
    if rank == 0:
        raise ValueError("bound undefined for a zero-rank matrix")


def _check_consistent(report: ConsistencyReport, bound: str) -> None:
    if not report.consistent:
        raise ValueError(
            f"right-hand side has null-space content {report.null_norm:.3e}; "
            f"{bound} only covers consistent systems"
        )


def _sigma_rho(sig: np.ndarray) -> float:
    return float((sig[0] - sig[-1]) / (sig[0] + sig[-1]))


def cg_bound_verify(trace: SolveTrace, decomp: SpectralDecomposition) -> BoundReport:
    """Check the energy-norm contraction of a plain cg trace.

    The measured quantity per iteration is the range residual in the
    inverse-spectrum norm, sqrt(r1_k^T Lambda_r^{-1} r1_k), which equals
    sqrt(r_k^T A_pinv r_k); the envelope contracts by
    rho = (sqrt(kappa) - 1) / (sqrt(kappa) + 1) with kappa the ratio of
    extreme nonzero eigenvalues. The right-hand side is reconstructed from
    the trace and must be consistent; the trace must carry its vector
    history.
    """
    _check_trace(trace, "cg", [trace.residuals], "residual vectors", decomp.rank)
    b = trace.residuals[0] + decomp.apply(trace.iterates[0])
    _check_consistent(consistency_check(decomp, b), "the energy bound")

    lam = decomp.lambdas_r
    kappa = float(lam[0] / lam[-1])
    rho = float((np.sqrt(kappa) - 1.0) / (np.sqrt(kappa) + 1.0))
    measured = np.sqrt(np.sum((trace.residuals @ decomp.q1) ** 2 / lam, axis=1))
    return _bound_report("cg_energy", measured, rho, lam)


def cgls_bound_verify(
    trace: SolveTrace, sdec: SingularDecomposition, xstar: np.ndarray
) -> BoundReport:
    """Check the range-residual contraction ||A (x_k - x*)|| of a cgls trace.

    rho is (sigma_1 - sigma_r) / (sigma_1 + sigma_r) over the nonzero
    singular values; xstar should be the minimum-norm least squares
    solution (see ``pinv_apply_rect``).
    """
    _check_trace(trace, "cgls", [trace.iterates], "iterate vectors", sdec.rank)
    sig = sdec.sigmas_r
    # ||A e|| = ||Sigma_r V1^T e||, since U1 has orthonormal columns
    measured = np.linalg.norm((trace.iterates - xstar) @ sdec.v1 * sig, axis=1)
    return _bound_report("cgls_range_residual", measured, _sigma_rho(sig), sig)


def cgne_bound_verify(trace: SolveTrace, sdec: SingularDecomposition) -> BoundReport:
    """Check the quadratic-form contraction r_k^T (A A^T)^+ r_k of a cgne trace.

    The bound applies to the quadratic form itself (no square root), with
    the same rho as the cgls bound. Requires a consistent right-hand side,
    reconstructed from the trace.
    """
    _check_trace(trace, "cgne", [trace.residuals, trace.y_iterates], "vector history", sdec.rank)
    y0 = trace.y_iterates[0]
    b = trace.residuals[0] + sdec.apply(sdec.apply_transpose(y0))
    _check_consistent(consistency_check(sdec, b), "the bound")

    sig = sdec.sigmas_r
    measured = np.sum((trace.residuals @ sdec.u1 / sig) ** 2, axis=1)
    return _bound_report("cgne_energy", measured, _sigma_rho(sig), sig)
