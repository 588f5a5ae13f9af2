"""Conjugate-gradient-family solvers with full iteration traces.

``cg_solve`` runs plain CG on a symmetric (possibly singular) system.
``cgls_solve`` runs CG on the first-kind normal equations A^T A x = A^T b
without ever forming them, for least squares problems. ``cgne_solve`` runs
CG on the second-kind normal equations A A^T y = b with x = A^T y, for
minimum-norm solutions of consistent underdetermined systems. All three
always record the per-iteration scalars (step sizes and residual norms)
and keep the full vector history, one array row per state, unless trace
recording is disabled.

``cg_solve``, ``cgne_solve`` and the eigenbasis run of the decomposition
module share one recurrence, ``_cg_recurrence``, over an operator given as
a callable. CGLS keeps its own loop in the r/s form, which is numerically
preferable to CG on A^T A (Bjorck 1996).

On singular systems the curvature denominator (A p, p) can degenerate when
the right-hand side sticks out of the range; the solvers then stop with
stop_reason "breakdown" instead of dividing, since that is an expected
regime rather than a bug.

At desk scale the loops are bound by numpy dispatch, not flops, so they use
``ndarray.dot`` and ``math.sqrt``; the results equal those of ``@`` and
``np.linalg.norm`` bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .linalg import _check_tolerance, _scale, _sized, _symmetric, as_matrix

CONVERGED = "converged"
MAX_ITERS = "max_iters"
BREAKDOWN = "breakdown"


@dataclass(frozen=True)
class SolverConfig:
    """Loop control shared by the three solvers.

    max_iters defaults to 10x the number of unknowns when left as None.
    rel_tol scales the stopping test relative to the right-hand side,
    breakdown_tol guards the curvature denominator, and record_trace turns
    the per-iteration vector history on or off (scalars are always kept).
    """

    max_iters: int | None = None
    rel_tol: float = 1e-12
    breakdown_tol: float = 1e-14
    record_trace: bool = True

    def __post_init__(self):
        if self.max_iters is not None and self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        _check_tolerance("rel_tol", self.rel_tol)
        _check_tolerance("breakdown_tol", self.breakdown_tol)

    def iteration_cap(self, n: int) -> int:
        return self.max_iters if self.max_iters is not None else 10 * n


@dataclass(frozen=True)
class SolveTrace:
    """Complete record of one solver run.

    ``iterates``/``residuals``/``directions`` are 2-D arrays with one row
    per recorded state (initial state included); ``alphas``/``betas`` hold
    one entry per completed iteration, so there is always one more state
    than completed iterations. For cgls, ``normal_residuals`` holds
    s_i = A^T r_i. For cgne, ``iterates`` holds x_i = A^T y_i and
    ``y_iterates`` the underlying y_i; residuals are r_i = b - A A^T y_i.
    With trace recording disabled the vector arrays have zero rows and only
    the final x (and y), the norms, and the step scalars are populated.
    """

    method: str
    stop_reason: str
    x: np.ndarray
    alphas: list[float]
    betas: list[float]
    res_norms: list[float]
    iterates: np.ndarray
    residuals: np.ndarray
    directions: np.ndarray
    normal_res_norms: list[float] | None = None
    normal_residuals: np.ndarray | None = None
    y: np.ndarray | None = None
    y_iterates: np.ndarray | None = None

    @property
    def iterations(self) -> int:
        """Number of completed iterations."""
        return len(self.alphas)


def _rows(vectors: list[np.ndarray], n: int) -> np.ndarray:
    """Stack recorded states into a (states, n) array; (0, n) when none were kept."""
    return np.reshape(vectors, (-1, n))


def _cg_recurrence(apply, x, r, cap: int, stop: float, breakdown_tol: float, record: bool):
    """CG on the symmetric positive semidefinite operator ``apply`` from x, with r = b - A x.

    Stops with "converged" once ||r_i|| <= stop, "max_iters" after ``cap``
    iterations, or "breakdown" when (A p_i, p_i) <= breakdown_tol * ||p_i||^2.
    Returns a SolveTrace labelled "cg". Every update makes new arrays, so
    the recorded states need no copies.
    """
    p = r
    rr = float(r.dot(r))
    alphas: list[float] = []
    betas: list[float] = []
    res_norms = [math.sqrt(rr)]
    xs, rs, ps = ([x], [r], [p]) if record else ([], [], [])

    while True:
        if res_norms[-1] <= stop:
            stop_reason = CONVERGED
            break
        if len(alphas) >= cap:
            stop_reason = MAX_ITERS
            break
        ap = apply(p)
        curvature = float(p.dot(ap))
        if curvature <= breakdown_tol * float(p.dot(p)):
            stop_reason = BREAKDOWN
            break
        alpha = rr / curvature
        x = x + alpha * p
        r = r - alpha * ap
        rr_next = float(r.dot(r))
        beta = rr_next / rr
        p = r + beta * p
        rr = rr_next

        alphas.append(alpha)
        betas.append(beta)
        res_norms.append(math.sqrt(rr))
        if record:
            xs.append(x)
            rs.append(r)
            ps.append(p)

    n = x.shape[0]
    states = (_rows(xs, n), _rows(rs, n), _rows(ps, n))
    return SolveTrace("cg", stop_reason, x, alphas, betas, res_norms, *states)


def _cg_from(apply, b, start, cfg: SolverConfig) -> SolveTrace:
    """_cg_recurrence from a copy of start, stopping once ||r_i|| <= rel_tol * max(||b||, 1)."""
    x = start.copy()
    stop = cfg.rel_tol * _scale(np.linalg.norm(b))
    cap = cfg.iteration_cap(b.shape[0])
    return _cg_recurrence(apply, x, b - apply(x), cap, stop, cfg.breakdown_tol, cfg.record_trace)


def cg_solve(a, b, x0, cfg: SolverConfig | None = None) -> SolveTrace:
    """Plain conjugate gradients on a symmetric system A x = b.

    Parameters
    ----------
    a : array_like, shape (n, n)
        Symmetric matrix; symmetry is checked to 1e-12 relative (max-norm).
        Positive semidefiniteness is assumed, not checked.
    b, x0 : array_like, shape (n,)
        Right-hand side and initial guess.
    cfg : SolverConfig, optional

    Returns
    -------
    SolveTrace
        stop_reason is "converged" once ||r_i|| <= rel_tol * max(||b||, 1),
        "max_iters" at the iteration cap, or "breakdown" when the curvature
        (A p_i, p_i) falls to breakdown_tol * ||p_i||^2 or below.
    """
    cfg = cfg or SolverConfig()
    a = _symmetric(a)
    n = a.shape[0]
    return _cg_from(a.dot, _sized(b, n, "right-hand side"), _sized(x0, n, "initial guess"), cfg)


def cgls_solve(a, b, x0, cfg: SolverConfig | None = None) -> SolveTrace:
    """CG on the normal equations A^T A x = A^T b, kept as two matvecs.

    Tracks gamma_i = ||A^T r_i||^2 and stops once it reaches
    (rel_tol * max(||A^T b||, 1))^2; ||q_i||^2 <= breakdown_tol * ||p_i||^2
    (a direction with numerically zero image) stops with "breakdown".
    Works for any m x n matrix, full rank or not.
    """
    cfg = cfg or SolverConfig()
    a = as_matrix(a)
    m, n = a.shape
    b = _sized(b, m, "right-hand side")
    x0 = _sized(x0, n, "initial guess")

    cap = cfg.iteration_cap(n)
    stop = (cfg.rel_tol * _scale(np.linalg.norm(a.T @ b))) ** 2

    x = x0.copy()
    at = a.T
    r = b - a @ x
    s = at.dot(r)
    p = s
    gamma = float(s.dot(s))

    alphas: list[float] = []
    betas: list[float] = []
    res_norms = [math.sqrt(float(r.dot(r)))]
    normal_res_norms = [math.sqrt(gamma)]
    xs, rs, ps, ss = ([x], [r], [p], [s]) if cfg.record_trace else ([], [], [], [])

    while True:
        if gamma <= stop:
            stop_reason = CONVERGED
            break
        if len(alphas) >= cap:
            stop_reason = MAX_ITERS
            break
        q = a.dot(p)
        qq = float(q.dot(q))
        if qq <= cfg.breakdown_tol * float(p.dot(p)):
            stop_reason = BREAKDOWN
            break
        alpha = gamma / qq
        x = x + alpha * p
        r = r - alpha * q
        s = at.dot(r)
        gamma_next = float(s.dot(s))
        beta = gamma_next / gamma
        p = s + beta * p
        gamma = gamma_next

        alphas.append(alpha)
        betas.append(beta)
        res_norms.append(math.sqrt(float(r.dot(r))))
        normal_res_norms.append(math.sqrt(gamma))
        if cfg.record_trace:
            xs.append(x)
            rs.append(r)
            ps.append(p)
            ss.append(s)

    states = (_rows(xs, n), _rows(rs, m), _rows(ps, n))
    return SolveTrace("cgls", stop_reason, x, alphas, betas, res_norms, *states,
                      normal_res_norms=normal_res_norms, normal_residuals=_rows(ss, n))


def cgne_solve(a, b, y0, cfg: SolverConfig | None = None) -> SolveTrace:
    """CG on A A^T y = b with x = A^T y (normal equations of the second kind).

    The product A A^T p is applied as two successive matvecs; A A^T is never
    formed. Stopping mirrors cg_solve with residual r_i = b - A A^T y_i.
    The returned trace carries both the y history and x_i = A^T y_i, which
    is formed once from the whole y history after the loop.
    """
    cfg = cfg or SolverConfig()
    a = as_matrix(a)
    m = a.shape[0]
    b = _sized(b, m, "right-hand side")
    y0 = _sized(y0, m, "initial guess")
    at = a.T
    run = _cg_from(lambda p: a.dot(at.dot(p)), b, y0, cfg)
    y, ys = run.x, run.iterates
    return replace(run, method="cgne", x=at @ y, iterates=ys @ a, y=y, y_iterates=ys)
