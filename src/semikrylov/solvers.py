"""Conjugate-gradient-family solvers with full iteration traces.

``cg_solve`` runs plain CG on a symmetric (possibly singular) system.
``cgls_solve`` runs CG on the first-kind normal equations A^T A x = A^T b
without ever forming them, for least squares problems. ``cgne_solve`` runs
CG on the second-kind normal equations A A^T y = b with x = A^T y, for
minimum-norm solutions of consistent underdetermined systems.

``cg_solve``, ``cgne_solve`` and the eigenbasis run of the decomposition
module share one recurrence, ``_cg_recurrence``, over an operator given as
a callable. CGLS keeps its own loop in the r/s form, which is numerically
preferable to CG on A^T A (Bjorck 1996).

Each stop test is relative to a size of the run, with no floor, so a run on
(c A, c b) stops as the run on (A, b) does. "converged", tested first: ||r_i||
<= rel_tol ||b|| (||A^T r_i|| <= rel_tol ||A^T b||, CGLS), with the start's
value for a zero size, so a zero residual stops here. "breakdown", not a
division: (A p, p) <= breakdown_tol ||A||_F ||p||^2, or ||A^T p||^2 (CGNE),
||A p||^2 (CGLS) <= breakdown_tol ||A||_F^2 ||p||^2. It names the test, not a
cause: p nearing the null space ends inconsistent runs, and consistent ones
once rounding grows their null part.

All three always record the per-iteration scalars (step sizes and residual
norms) and, unless trace recording is disabled, the vector history: each
loop writes every residual and direction (and CGLS's s) once, in place,
into the next row of a history array that doubles when full, and the trace
holds views trimmed to the states written (unrecorded: empty arrays of its
own). No step reads x: the iterates are rebuilt after the loop by one
``np.add.accumulate`` over x_0, alpha_0 p_0, ..., bit for bit the textbook
x + alpha p. An unrecorded run folds a 64-row block into x that way when full.

At desk scale the loops are bound by numpy dispatch, not flops: they use
``ndarray.dot`` and ``math.sqrt`` (bit for bit ``@`` and ``np.linalg.norm``),
allocate nothing per step (the operator's new array is scaled in place, beta p
in scratch) and hand numpy arrays only, each ``out`` positional, alpha and beta
via one 0-d array: numpy converts a float operand per call, 0.2 us at n = 80.
A CG step makes 7 numpy calls, a CGLS step 9, plus ||p||^2 when a bound B on
||p|| cannot rule breakdown out: B is ||r_0|| (||s_0||, CGLS), then ||r_{k+1}||
+ beta_k B, times 1 + 1e-8, plus 1e-140: the triangle inequality with slack for
rounding (n < 10^7) and underflow. So fl(p.p) <= fl(B^2), a curvature above
floor fl(B^2) is above floor fl(p.p), and each test decides as the exact one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .linalg import _check_count, _check_tolerance, _sized, _symmetric, as_matrix

CONVERGED = "converged"
MAX_ITERS = "max_iters"
BREAKDOWN = "breakdown"


@dataclass(frozen=True)
class SolverConfig:
    """Loop control shared by the three solvers.

    max_iters, an integer, defaults to 10x the number of unknowns when left as
    None; rel_tol and breakdown_tol set the tests of the module notes; record_trace
    turns the per-iteration vector history on or off (scalars are always kept).
    """

    max_iters: int | None = None
    rel_tol: float = 1e-12
    breakdown_tol: float = 1e-14
    record_trace: bool = True

    def __post_init__(self):
        if self.max_iters is not None:
            _check_count("max_iters", self.max_iters, 1)
        _check_tolerance("rel_tol", self.rel_tol)
        _check_tolerance("breakdown_tol", self.breakdown_tol)

    def iteration_cap(self, n: int) -> int:
        return self.max_iters if self.max_iters is not None else 10 * n


@dataclass(frozen=True)
class SolveTrace:
    """Complete record of one solver run.

    ``iterates``/``residuals``/``directions`` are 2-D arrays, trimmed views
    with one row per recorded state (initial state included); ``alphas``/
    ``betas`` hold one entry per completed iteration, so there is always one
    more state than completed iterations. For cgls, ``normal_residuals`` holds
    s_i = A^T r_i. For cgne, ``iterates`` holds x_i = A^T y_i and
    ``y_iterates`` the underlying y_i; residuals are r_i = b - A A^T y_i.
    Its ``x`` is one matvec A^T y, ``iterates`` one product over the y history,
    so they can differ in the last bits; cg and cgls copy x from the last iterate.
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


# Rows a history array grows to first; an unrecorded run's arrays never have more.
_BLOCK = 64


def _iterates(x, ps, alphas) -> np.ndarray:
    """x and the iterates that steps alpha_i p_i reach from it, added in the loop's order."""
    xs = np.empty((len(ps) + 1, x.shape[0]))
    xs[0] = x
    np.multiply(ps, np.reshape(alphas, (-1, 1)), out=xs[1:])
    return np.add.accumulate(xs, axis=0, out=xs)


def _make_room(bufs, x, alphas, cap: int, record: bool):
    """Free a row after the last of the full history arrays ``bufs`` (directions first).

    Copies them into arrays of _BLOCK rows, then twice as many, never more
    than the cap + 1 states a run can have; once they have _BLOCK rows, an
    unrecorded run instead folds their steps into x and moves their last row
    to row 0. Returns the arrays, x and the row of the current state.
    """
    j = len(bufs[0]) - 1
    if record or j + 1 < _BLOCK:
        grown = [np.empty((min(max(2 * j + 2, _BLOCK), cap + 1), buf.shape[1])) for buf in bufs]
        for new, buf in zip(grown, bufs):
            new[:j + 1] = buf
        return grown, x, j
    x = _iterates(x, bufs[0][:j], alphas[len(alphas) - j:])[-1]
    for buf in bufs:
        buf[0] = buf[j]
    return bufs, x, 0


def _finish(bufs, x, alphas, j: int, record: bool):
    """The final x, then the iterate history and ``bufs`` trimmed to the j + 1 states written
    (copied to zero rows when unrecorded)."""
    xs = _iterates(x, bufs[0][:j], alphas[len(alphas) - j:])
    return xs[-1].copy(), *(h[:j + 1] if record else h[:0].copy() for h in (xs, *bufs))


def _cg_recurrence(apply, b, x, cap: int, rel_tol: float, floor: float, record: bool):
    """CG on the symmetric positive semidefinite operator ``apply`` for b, from x.

    Stops with "converged" once ||r_i|| <= rel_tol ||b|| (||r_0|| for a zero b),
    "max_iters" after ``cap`` iterations, or "breakdown" when (A p_i, p_i) <= floor
    * ||p_i||^2, floor >= 0. ``apply`` must return a new array, which the loop scales
    in place. Returns a "cg" SolveTrace, histories as the module notes say.
    """
    r = b - apply(x)
    stop = rel_tol * (float(np.linalg.norm(b)) or float(np.linalg.norm(r)))
    P, R = np.array([r]), np.array([r])
    p, j, rows, scaled, step = r, 0, 1, np.empty_like(r), np.empty(())
    rr = float(r.dot(r))
    alphas: list[float] = []
    betas: list[float] = []
    res_norm = math.sqrt(rr)
    res_norms, bound = [res_norm], res_norm * (1 + 1e-8) + 1e-140
    multiply, subtract, add, sqrt = np.multiply, np.subtract, np.add, math.sqrt

    while True:
        if res_norm <= stop:
            stop_reason = CONVERGED
            break
        if len(alphas) >= cap:
            stop_reason = MAX_ITERS
            break
        ap = apply(p)
        curvature = float(p.dot(ap))
        if not curvature > floor * (bound * bound) and curvature <= floor * float(p.dot(p)):
            stop_reason = BREAKDOWN
            break
        alpha = step[()] = rr / curvature
        if j + 1 == rows:
            (P, R), x, j = _make_room((P, R), x, alphas, cap, record)
            rows = len(P)
        j += 1
        r = subtract(r, multiply(ap, step, ap), R[j])
        rr_next = float(r.dot(r))
        beta = step[()] = rr_next / rr
        p = add(r, multiply(p, step, scaled), P[j])
        rr, res_norm = rr_next, sqrt(rr_next)
        bound = (res_norm + beta * bound) * (1 + 1e-8) + 1e-140

        alphas.append(alpha)
        betas.append(beta)
        res_norms.append(res_norm)

    x, xs, ps, rs = _finish((P, R), x, alphas, j, record)
    return SolveTrace("cg", stop_reason, x, alphas, betas, res_norms, xs, rs, ps)


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
        stop_reason is "converged", "max_iters" at the iteration cap, or
        "breakdown", on the tests of the module notes.
    """
    cfg = cfg or SolverConfig()
    a = _symmetric(a)
    b, x0 = _sized(b, len(a), "right-hand side"), _sized(x0, len(a), "initial guess")
    floor = cfg.breakdown_tol * float(np.linalg.norm(a))
    return _cg_recurrence(a.dot, b, x0, cfg.iteration_cap(len(b)), cfg.rel_tol, floor, cfg.record_trace)


def cgls_solve(a, b, x0, cfg: SolverConfig | None = None) -> SolveTrace:
    """CG on the normal equations A^T A x = A^T b, kept as two matvecs.

    Tests ||A^T r_i|| against the module notes' stop threshold, breakdown as a
    direction with numerically zero image, for any m x n matrix of any rank.
    """
    cfg = cfg or SolverConfig()
    a = as_matrix(a)
    m, n = a.shape
    b = _sized(b, m, "right-hand side")
    x0 = _sized(x0, n, "initial guess")

    at = a.T
    r = b - a @ x0
    s = at.dot(r)
    cap = cfg.iteration_cap(n)
    stop = cfg.rel_tol * (float(np.linalg.norm(at @ b)) or float(np.linalg.norm(s)))
    floor = cfg.breakdown_tol * float(np.linalg.norm(a)) ** 2
    P, R, S = np.array([s]), np.array([r]), np.array([s])
    x, p, j, rows, scaled, step = x0, s, 0, 1, np.empty_like(s), np.empty(())
    gamma = float(s.dot(s))

    alphas: list[float] = []
    betas: list[float] = []
    res_norms = [math.sqrt(float(r.dot(r)))]
    normal_res_norm = math.sqrt(gamma)
    normal_res_norms, bound = [normal_res_norm], normal_res_norm * (1 + 1e-8) + 1e-140
    multiply, subtract, add, sqrt = np.multiply, np.subtract, np.add, math.sqrt

    while True:
        if normal_res_norm <= stop:
            stop_reason = CONVERGED
            break
        if len(alphas) >= cap:
            stop_reason = MAX_ITERS
            break
        q = a.dot(p)
        qq = float(q.dot(q))
        if not qq > floor * (bound * bound) and qq <= floor * float(p.dot(p)):
            stop_reason = BREAKDOWN
            break
        alpha = step[()] = gamma / qq
        if j + 1 == rows:
            (P, R, S), x, j = _make_room((P, R, S), x, alphas, cap, cfg.record_trace)
            rows = len(P)
        j += 1
        r = subtract(r, multiply(q, step, q), R[j])
        s = at.dot(r, S[j])
        gamma_next = float(s.dot(s))
        beta = step[()] = gamma_next / gamma
        p = add(s, multiply(p, step, scaled), P[j])
        gamma, normal_res_norm = gamma_next, sqrt(gamma_next)
        bound = (normal_res_norm + beta * bound) * (1 + 1e-8) + 1e-140

        alphas.append(alpha)
        betas.append(beta)
        res_norms.append(sqrt(float(r.dot(r))))
        normal_res_norms.append(normal_res_norm)

    x, xs, ps, rs, ss = _finish((P, R, S), x, alphas, j, cfg.record_trace)
    return SolveTrace("cgls", stop_reason, x, alphas, betas, res_norms, xs, rs, ps,
                      normal_res_norms=normal_res_norms, normal_residuals=ss)


def cgne_solve(a, b, y0, cfg: SolverConfig | None = None) -> SolveTrace:
    """CG on A A^T y = b with x = A^T y (normal equations of the second kind).

    The product A A^T p is applied as two successive matvecs; A A^T is never
    formed. Stopping mirrors cg_solve with residual r_i = b - A A^T y_i.
    """
    cfg = cfg or SolverConfig()
    a = as_matrix(a)
    m = a.shape[0]
    b = _sized(b, m, "right-hand side")
    y0 = _sized(y0, m, "initial guess")
    at = a.T
    floor = cfg.breakdown_tol * float(np.linalg.norm(a)) ** 2
    run = _cg_recurrence(lambda p: a.dot(at.dot(p)), b, y0, cfg.iteration_cap(m), cfg.rel_tol, floor,
                         cfg.record_trace)
    y, ys = run.x, run.iterates
    return replace(run, method="cgne", x=at @ y, iterates=ys @ a, y=y, y_iterates=ys)
