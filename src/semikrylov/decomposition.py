"""CG carried directly in the eigenbasis, split into range and null blocks.

``decomposed_cg_run`` runs the very recurrence of ``cg_solve`` in
transformed coordinates, on the diagonal operator diag(Lambda_r, 0): the
range block sees the positive eigenvalues, while the null block sees only
the null component of the right-hand side, whose direction never changes.
When that component is zero the null block provably stays frozen at its
starting value.

``equivalence_check`` rotates a plain trace into the same basis and
confirms the two runs are the same algorithm iteration by iteration. Both
runs obey exact arithmetic only while the plain recurrence keeps its
residuals mutually orthogonal; once that degrades, the two finite-precision
runs part ways in ways exact arithmetic does not predict, so the comparison
stops there.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .linalg import SpectralDecomposition, _check_count, _check_tolerance, _relative_distance, _sized
from .oracle import split
from .solvers import MAX_ITERS, SolverConfig, SolveTrace, _cg_recurrence

COMPLETED = "completed"

_HORIZON_ORTH = 1e-10


@dataclass(frozen=True)
class DecomposedTrace:
    """Per-iteration history of the transformed recurrence, one row per state.

    x1/r1/p1 live in range coordinates (rank columns), x2/r2/p2 in null
    coordinates (dim - rank columns); each is a column slice of the run's
    rotated (states, dim) arrays. Every r2 row is exactly the null
    component of b: the recurrence never changes it.
    """

    x1: np.ndarray
    r1: np.ndarray
    p1: np.ndarray
    x2: np.ndarray
    r2: np.ndarray
    p2: np.ndarray
    alphas: list[float]
    betas: list[float]
    b1: np.ndarray
    b2: np.ndarray
    stop_reason: str

    @property
    def iterations(self) -> int:
        return len(self.alphas)


def decomposed_cg_run(decomp: SpectralDecomposition, b, x0, iters: int,
                      breakdown_tol: float = SolverConfig.breakdown_tol) -> DecomposedTrace:
    """Run ``iters`` iterations of CG in eigenbasis coordinates.

    This is the plain recurrence applied to the diagonal operator
    diag(Lambda_r, 0); the full matrix is never applied. The null block of
    the operator is zero, so r2 - alpha * 0 leaves the null residual at b2
    bit for bit. It enters the recurrence as ``cg_solve`` does, at rel_tol 0, so
    only a residual that computes to zero stops it "converged"; its breakdown
    test uses ||lambdas|| (||A||_F up to rounding). The run's stop_reason is the
    recurrence's, with "max_iters" renamed "completed".
    """
    b = _sized(b, decomp.dim, "right-hand side")
    x0 = _sized(x0, decomp.dim, "initial guess")
    _check_count("iters", iters, 0)
    _check_tolerance("breakdown_tol", breakdown_tol)

    rank = decomp.rank
    apply = functools.partial(np.multiply, np.concatenate([decomp.lambdas_r, np.zeros(decomp.dim - rank)]))
    parts_b, parts_x0 = split(decomp, b), split(decomp, x0)
    b1, b2 = parts_b.range_part, parts_b.null_part
    x = np.concatenate([parts_x0.range_part, parts_x0.null_part])

    floor = breakdown_tol * float(np.linalg.norm(decomp.lambdas))
    run = _cg_recurrence(apply, np.concatenate([b1, b2]), x, iters, 0.0, floor, True)
    xs, rs, ps = run.iterates, run.residuals, run.directions
    stop_reason = COMPLETED if run.stop_reason == MAX_ITERS else run.stop_reason
    return DecomposedTrace(xs[:, :rank], rs[:, :rank], ps[:, :rank], xs[:, rank:], rs[:, rank:],
                           ps[:, rank:], run.alphas, run.betas, b1, b2, stop_reason)


@dataclass(frozen=True)
class EquivalenceReport:
    """What ``equivalence_check`` measured: ``deviations`` maps each block (x1, x2, r1, r2, p1, p2, in
    that order) to its deviation over the states compared, and max_deviation is the largest of them."""

    max_deviation: float
    iterations_compared: int
    passed: bool
    deviations: dict[str, float] = field(default_factory=dict)


def _healthy_states(trace: SolveTrace, dtrace: DecomposedTrace) -> int:
    """Number of leading states still governed by exact-arithmetic behavior.

    State i (i >= 1) stops being healthy once the plain residuals r_0..r_i
    have lost mutual orthogonality past 1e-10 (the cosine of some pair).
    """
    count = min(len(trace.iterates), len(dtrace.x1))
    residuals = np.asarray(trace.residuals[:count])
    norms = np.linalg.norm(residuals, axis=1, keepdims=True)
    unit = residuals / np.where(norms > 0.0, norms, 1.0)
    for i in range(1, count):
        if np.max(np.abs(unit[:i] @ unit[i])) > _HORIZON_ORTH:
            return i
    return count


def equivalence_check(
    trace: SolveTrace, dtrace: DecomposedTrace, decomp: SpectralDecomposition, tol: float
) -> EquivalenceReport:
    """Rotate a plain cg trace into the eigenbasis and compare both runs.

    Compares, per state, the range and null blocks of x, r and p. Traces of
    different lengths are compared up to the shorter, and only over the
    healthy leading states (see ``_healthy_states``): with K comparable
    iterations, states 0..K are checked. The step scalars need no test of
    their own: alpha_k enters x_{k+1} and r_{k+1}, and beta_k enters
    p_{k+1}, so every scalar 0..K-1 is checked through the states it
    makes. Each block of a vector family v in {x, r, p} deviates by
    max_k ||Q_i^T v_k - v'_{i,k}|| / max_k ||v_k||, over the plain states
    0..K compared: the largest state of the history, which is what the
    rounding gap between two runs of one recurrence grows with. Raises when
    the plain run leaves nothing to compare; otherwise r_0 and x_1 (or x_0)
    are nonzero, so no size is zero.
    """
    _check_tolerance("tol", tol)
    if trace.method != "cg":
        raise ValueError("equivalence_check expects a plain cg trace")
    if len(trace.iterates) == 0:
        raise ValueError("plain trace has no recorded vector history")

    states = _healthy_states(trace, dtrace)
    if states <= 1:
        cause = (f"it stopped at iteration 0 ({trace.stop_reason})" if len(trace.alphas) == 0
                 else f"its residuals lose orthogonality past {_HORIZON_ORTH:g} at iteration 1")
        raise ValueError(f"the plain run left nothing to compare: {cause}")

    devs = {}
    for name, plain, d1, d2 in (
        ("x", trace.iterates, dtrace.x1, dtrace.x2),
        ("r", trace.residuals, dtrace.r1, dtrace.r2),
        ("p", trace.directions, dtrace.p1, dtrace.p2),
    ):
        plain = np.asarray(plain[:states])
        size = np.max(np.linalg.norm(plain, axis=1))  # positive: the run took a step
        devs[name + "1"] = _relative_distance(plain @ decomp.q1, d1[:states], size)
        devs[name + "2"] = _relative_distance(plain @ decomp.q2, d2[:states], size)
    max_dev = float(np.max(list(devs.values())))  # np.max, so a NaN block reads NaN
    return EquivalenceReport(max_dev, states - 1, max_dev <= tol, devs)


@dataclass(frozen=True)
class ConfinementReport:
    max_angle: float
    passed: bool


def null_direction_confinement(dtrace: DecomposedTrace, tol: float) -> ConfinementReport:
    """Check that every null-block direction stays parallel to b2.

    For each recorded p2 with ||p2|| > tol * ||b2||, measures the sine of
    its angle against b2 (as the relative size of the component orthogonal
    to b2). Passes when every sine is at most tol. Only meaningful when b2
    is nonzero; for a consistent right-hand side the null directions are
    identically zero and the stagnation invariants apply instead.
    """
    _check_tolerance("tol", tol)
    b2 = dtrace.b2
    nb2 = float(np.linalg.norm(b2))
    if nb2 == 0.0:
        raise ValueError(
            "b2 is zero (consistent case): check x2 stagnation and p2 = 0 instead of confinement"
        )
    bhat = b2 / nb2
    np2 = np.linalg.norm(dtrace.p2, axis=1)
    kept = np2 > tol * nb2
    p2 = dtrace.p2[kept]
    orthogonal = p2 - np.outer(p2 @ bhat, bhat)
    sines = np.linalg.norm(orthogonal, axis=1) / np2[kept]
    max_sine = float(np.max(sines, initial=0.0))
    return ConfinementReport(max_sine, max_sine <= tol)
