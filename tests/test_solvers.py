import collections
import dataclasses
import functools
import math
import sys
import tracemalloc
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from krylov_reference import textbook_cg, textbook_cgls

from semikrylov import solvers
from semikrylov.decomposition import decomposed_cg_run
from semikrylov.genmat import X0_MODES, ProblemSpec, make_problem, random_orthogonal
from semikrylov.linalg import symmetric_eig
from semikrylov.oracle import pinv_apply_rect, pseudoinverse_apply, split
from semikrylov.solvers import BREAKDOWN, SolverConfig, _cg_recurrence, cg_solve, cgls_solve, cgne_solve
from semikrylov.linalg import svd


def exact_cg_on_diagonal(lam, b, iters):
    """Unroll CG on a diagonal matrix in exact rational arithmetic."""
    lam = [Fraction(v) for v in lam]
    r = [Fraction(v) for v in b]
    x = [Fraction(0)] * len(b)
    p = r[:]
    rr = sum(v * v for v in r)
    alphas, betas = [], []
    for _ in range(iters):
        ap = [l * v for l, v in zip(lam, p)]
        alpha = rr / sum(u * v for u, v in zip(ap, p))
        x = [xi + alpha * pi for xi, pi in zip(x, p)]
        r = [ri - alpha * ai for ri, ai in zip(r, ap)]
        rr_next = sum(v * v for v in r)
        beta = rr_next / rr
        p = [ri + beta * pi for ri, pi in zip(r, p)]
        rr = rr_next
        alphas.append(alpha)
        betas.append(beta)
    return alphas, betas, x


class TestCgSolve:
    def test_a_nan_bound_on_p_leaves_breakdown_to_the_exact_test(self):
        # ||b||^2 is finite but the bound's square, ||b||^2 (1 + 2e-8), is not; with A = 0 the
        # floor is 0, so floor * bound^2 is NaN and only the exact test sees the zero curvature
        b = np.array([math.sqrt(sys.float_info.max) * (1.0 - 1e-9)])
        trace = cg_solve(np.zeros((1, 1)), b, np.zeros(1))
        assert trace.stop_reason == "breakdown" and trace.iterations == 0

    def test_identity_one_step(self):
        trace = cg_solve(np.eye(3), [1.0, 2.0, 3.0], np.zeros(3))
        assert trace.stop_reason == "converged"
        assert trace.iterations == 1
        assert trace.alphas[0] == 1.0
        np.testing.assert_array_equal(trace.x, [1.0, 2.0, 3.0])

    def test_singular_diagonal_hand_unrolled(self):
        a = np.diag([2.0, 1.0, 0.0])
        b = [2.0, 1.0, 0.0]
        trace = cg_solve(a, b, np.zeros(3))
        # exact rational recurrence as the reference
        alphas, betas, x = exact_cg_on_diagonal([2, 1, 0], [2, 1, 0], 2)
        assert alphas == [Fraction(5, 9), Fraction(9, 10)]
        assert betas[0] == Fraction(4, 81)
        assert [Fraction(v) for v in ([1, 1, 0])] == x
        assert trace.stop_reason == "converged"
        assert trace.iterations == 2
        assert abs(trace.alphas[0] - 5.0 / 9.0) <= 1e-12
        assert abs(trace.alphas[1] - 0.9) <= 1e-12
        assert abs(trace.betas[0] - 4.0 / 81.0) <= 1e-12
        np.testing.assert_allclose(trace.x, [1.0, 1.0, 0.0], atol=1e-12)
        # minimum-norm solution cross-checked through the spectral oracle
        dec = symmetric_eig(a)
        np.testing.assert_allclose(trace.x, pseudoinverse_apply(dec, b), atol=1e-12)

    def test_null_space_rhs_breaks_down(self):
        trace = cg_solve(np.diag([1.0, 0.0]), [0.0, 1.0], np.zeros(2))
        assert trace.stop_reason == "breakdown"
        assert trace.iterations == 0
        assert trace.alphas == []
        assert len(trace.iterates) == 1

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            cg_solve([[1.0, 2.0], [0.0, 1.0]], [1.0, 1.0], np.zeros(2))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cg_solve(np.eye(3), [1.0, 2.0], np.zeros(3))

    def test_max_iters_stop(self):
        spec = ProblemSpec("spsd", (12, 12), tuple(np.geomspace(1, 1e-3, 12)), seed=2)
        problem = make_problem(spec)
        trace = cg_solve(problem.a, problem.b, problem.x0, SolverConfig(max_iters=3))
        assert trace.stop_reason == "max_iters"
        assert trace.iterations == 3

    def test_trace_shapes_and_residual_identity(self):
        spec = ProblemSpec("spsd", (15, 15), tuple(np.geomspace(1, 0.1, 10)) + (0.0,) * 5, seed=3)
        problem = make_problem(spec)
        trace = cg_solve(problem.a, problem.b, problem.x0)
        assert len(trace.iterates) == trace.iterations + 1
        assert len(trace.res_norms) == trace.iterations + 1
        assert len(trace.betas) == trace.iterations
        fro = np.linalg.norm(problem.a)
        for xk, rk in zip(trace.iterates, trace.residuals):
            direct = problem.b - problem.a @ xk
            tol = 1e-10 * (np.linalg.norm(problem.b) + fro * np.linalg.norm(xk))
            assert np.linalg.norm(direct - rk) <= tol

    def test_record_trace_off_keeps_scalars(self):
        spec = ProblemSpec("spsd", (10, 10), tuple(np.geomspace(1, 0.1, 10)), seed=4)
        problem = make_problem(spec)
        trace = cg_solve(problem.a, problem.b, problem.x0, SolverConfig(record_trace=False))
        assert trace.iterates.shape == trace.residuals.shape == (0, 10)
        assert len(trace.alphas) == trace.iterations > 0
        assert len(trace.res_norms) == trace.iterations + 1
        assert trace.x.shape == (10,)

    def test_finite_termination_on_singular_problems(self):
        rng = np.random.default_rng(77)
        for kappa in (10.0, 1e2, 1e4):
            levels = np.geomspace(1.0, 1.0 / kappa, 5)
            rank, n = 20, 36
            spectrum = np.sort([levels[i % 5] for i in range(rank)])[::-1]
            spec = ProblemSpec(
                "spsd", (n, n), tuple(spectrum) + (0.0,) * (n - rank), seed=int(rng.integers(1e6))
            )
            problem = make_problem(spec)
            trace = cg_solve(problem.a, problem.b, problem.x0, SolverConfig(rel_tol=1e-13))
            target = 1e-10 * np.linalg.norm(problem.b)
            hit = next((k for k, rn in enumerate(trace.res_norms) if rn <= target), None)
            assert hit is not None and hit <= rank + 2

    def test_residual_orthogonality(self):
        # float64 orthogonality degrades roughly threefold per iteration from
        # machine level, crossing 1e-8 near iteration 13 whatever the
        # spectrum, so the window checks the iterations before that knee
        spec = ProblemSpec("spsd", (50, 50), tuple(np.geomspace(1, 1e-2, 30)) + (0.0,) * 20, seed=9)
        problem = make_problem(spec)
        trace = cg_solve(problem.a, problem.b, problem.x0)
        keep = min(len(trace.residuals), 12)
        for i in range(keep):
            for j in range(i):
                ri, rj = trace.residuals[i], trace.residuals[j]
                bound = 1e-8 * np.linalg.norm(ri) * np.linalg.norm(rj)
                assert abs(float(ri @ rj)) <= bound

    def test_min_norm_convergence_and_offset(self):
        spec = ProblemSpec(
            "spsd", (25, 25), tuple(np.geomspace(1, 1e-2, 15)) + (0.0,) * 10, seed=13,
            x0_mode="random_full",
        )
        problem = make_problem(spec)
        dec = symmetric_eig(problem.a)
        trace = cg_solve(problem.a, problem.b, problem.x0, SolverConfig(rel_tol=1e-13))
        x20 = dec.q2.T @ problem.x0
        for xk in trace.iterates:
            drift = np.linalg.norm(dec.q2.T @ xk - x20)
            assert drift <= 1e-10 * max(np.linalg.norm(x20), 1.0)
        expected = pseudoinverse_apply(dec, problem.b) + dec.q2 @ x20
        np.testing.assert_allclose(trace.x, expected, atol=1e-8 * np.linalg.norm(expected))


class TestCglsSolve:
    def test_rank_one_single_step(self):
        a = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        trace = cgls_solve(a, [1.0, 1.0, 0.0], np.zeros(2))
        assert trace.stop_reason == "converged"
        assert trace.iterations == 1
        assert abs(trace.alphas[0] - 1.0) <= 1e-14
        np.testing.assert_allclose(trace.x, [1.0, 0.0], atol=1e-14)
        sd = svd(a)
        np.testing.assert_allclose(trace.x, pinv_apply_rect(sd, [1.0, 1.0, 0.0]), atol=1e-12)

    def test_identity(self):
        trace = cgls_solve(np.eye(2), [3.0, 4.0], np.zeros(2))
        assert trace.iterations == 1
        np.testing.assert_allclose(trace.x, [3.0, 4.0], atol=1e-12)

    def test_orthogonal_rhs_converges_immediately(self):
        trace = cgls_solve(np.array([[1.0], [0.0]]), [0.0, 1.0], np.zeros(1))
        assert trace.stop_reason == "converged"
        assert trace.iterations == 0
        np.testing.assert_array_equal(trace.x, [0.0])
        assert trace.normal_res_norms[0] == 0.0

    def test_breakdown_on_a_direction_with_a_numerically_zero_image(self):
        # p_1 is about (1e-18, 1e-9): ||A p_1||^2 = 2e-36 <= 1e-14 ||A||_F^2 ||p_1||^2 = 1e-32
        problem = types.SimpleNamespace(a=np.diag([1.0, 1e-9]), b=np.array([1.0, 1.0]), x0=np.zeros(2))
        trace, want = _cgls_case(problem, SolverConfig())
        assert trace.stop_reason == "breakdown" and trace.iterations == 1
        _check_run(trace, want, True)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cgls_solve(np.ones((3, 2)), [1.0, 2.0], np.zeros(2))

    def test_normal_residual_identity(self):
        spec = ProblemSpec(
            "rectangular", (14, 9), tuple(np.geomspace(1, 0.1, 6)) + (0.0,) * 3, seed=21,
            consistency_gap=0.3,
        )
        problem = make_problem(spec)
        trace = cgls_solve(problem.a, problem.b, problem.x0)
        for xk, rk, sk in zip(trace.iterates, trace.residuals, trace.normal_residuals):
            direct = problem.b - problem.a @ xk
            tol = 1e-10 * (np.linalg.norm(problem.b) + np.linalg.norm(problem.a) * np.linalg.norm(xk))
            assert np.linalg.norm(direct - rk) <= tol
            assert np.linalg.norm(problem.a.T @ rk - sk) <= 1e-9 * max(np.linalg.norm(sk), 1.0)

    def test_min_norm_on_rank_deficient_problem(self):
        spec = ProblemSpec(
            "rectangular", (20, 12), tuple(np.geomspace(1, 0.05, 7)) + (0.0,) * 5, seed=22,
            consistency_gap=0.4,
        )
        problem = make_problem(spec)
        sd = svd(problem.a)
        trace = cgls_solve(problem.a, problem.b, problem.x0, SolverConfig(rel_tol=1e-13))
        final_normal = np.linalg.norm(problem.a.T @ (problem.b - problem.a @ trace.x))
        assert final_normal <= 1e-8 * np.linalg.norm(problem.a.T @ problem.b)
        xstar = pinv_apply_rect(sd, problem.b)
        np.testing.assert_allclose(trace.x, xstar, atol=1e-8 * np.linalg.norm(xstar))


class TestCgneSolve:
    def test_singular_wide_system(self):
        a = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        trace = cgne_solve(a, [1.0, 0.0], np.zeros(2))
        assert trace.stop_reason == "converged"
        np.testing.assert_allclose(trace.x, [1.0, 0.0, 0.0], atol=1e-12)
        sd = svd(a)
        np.testing.assert_allclose(trace.x, pinv_apply_rect(sd, [1.0, 0.0]), atol=1e-12)

    def test_identity(self):
        trace = cgne_solve(np.eye(2), [1.0, 1.0], np.zeros(2))
        assert trace.iterations == 1
        np.testing.assert_allclose(trace.y, [1.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(trace.x, [1.0, 1.0], atol=1e-14)

    def test_single_row(self):
        trace = cgne_solve(np.array([[1.0, 0.0]]), [2.0], np.zeros(1))
        assert trace.iterations == 1
        np.testing.assert_allclose(trace.y, [2.0], atol=1e-14)
        np.testing.assert_allclose(trace.x, [2.0, 0.0], atol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cgne_solve(np.ones((2, 3)), [1.0, 2.0], np.zeros(3))

    def test_residual_identity_and_y_trace(self):
        spec = ProblemSpec(
            "rectangular", (8, 13), tuple(np.geomspace(1, 0.2, 5)) + (0.0,) * 3, seed=33
        )
        problem = make_problem(spec)
        trace = cgne_solve(problem.a, problem.b, np.zeros(8))
        gram_scale = np.linalg.norm(problem.a) ** 2
        for yk, xk, rk in zip(trace.y_iterates, trace.iterates, trace.residuals):
            np.testing.assert_allclose(xk, problem.a.T @ yk, atol=1e-13 * max(np.linalg.norm(yk), 1.0))
            direct = problem.b - problem.a @ (problem.a.T @ yk)
            tol = 1e-10 * (np.linalg.norm(problem.b) + gram_scale * np.linalg.norm(yk))
            assert np.linalg.norm(direct - rk) <= tol

    def test_min_norm_convergence(self):
        spec = ProblemSpec(
            "rectangular", (10, 18), tuple(np.geomspace(1, 0.1, 7)) + (0.0,) * 3, seed=34
        )
        problem = make_problem(spec)
        sd = svd(problem.a)
        trace = cgne_solve(problem.a, problem.b, np.zeros(10), SolverConfig(rel_tol=1e-13))
        xstar = pinv_apply_rect(sd, problem.b)
        np.testing.assert_allclose(trace.x, xstar, atol=1e-8 * np.linalg.norm(xstar))


class TestSolverConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SolverConfig(max_iters=0)
        with pytest.raises(ValueError):
            SolverConfig(rel_tol=0.0)
        with pytest.raises(ValueError):
            SolverConfig(breakdown_tol=-1.0)

    @pytest.mark.parametrize("field", ["rel_tol", "breakdown_tol"])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf"), -float("inf")])
    def test_rejects_tolerances_that_are_not_finite_and_positive(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite and positive, got {value}"):
            SolverConfig(**{field: value})

    def test_default_cap_scales_with_unknowns(self):
        assert SolverConfig().iteration_cap(7) == 70
        assert SolverConfig(max_iters=3).iteration_cap(7) == 3


_DIAG = symmetric_eig(np.diag([2.0, 1.0, 0.0]))


@pytest.mark.parametrize("call, name, value", [
    (lambda v: SolverConfig(max_iters=v), "max_iters", 2.5),
    (lambda v: SolverConfig(max_iters=v), "max_iters", np.float64(3.0)),
    (lambda v: SolverConfig(max_iters=v), "max_iters", True),
    (lambda v: decomposed_cg_run(_DIAG, [1.0, 1.0, 0.0], np.zeros(3), v), "iters", 2.5),
    (lambda v: decomposed_cg_run(_DIAG, [1.0, 1.0, 0.0], np.zeros(3), v), "iters", True),
    (lambda v: SolverConfig(rel_tol=v), "rel_tol", "1e-6"),
    (lambda v: SolverConfig(rel_tol=v), "rel_tol", True),
    (lambda v: SolverConfig(breakdown_tol=v), "breakdown_tol", None),
    (lambda v: symmetric_eig(np.eye(2), rank_tol=v), "rank_tol", "1e-3"),
    (lambda v: svd(np.eye(2), rank_tol=v), "rank_tol", True),
], ids=["max_iters-float", "max_iters-float64", "max_iters-bool", "iters-float", "iters-bool",
        "rel_tol-str", "rel_tol-bool", "breakdown_tol-None", "eig-rank_tol-str", "svd-rank_tol-bool"])
def test_mistyped_counts_and_tolerances_are_refused(call, name, value):
    """A count must be an int or numpy integer and a tolerance a real number, neither a bool."""
    with pytest.raises(ValueError, match=rf"^{name} must be an? (integer|real number), got ") as refused:
        call(value)
    assert str(refused.value).endswith(repr(value))


def test_numpy_counts_and_tolerances_are_accepted():
    cfg = SolverConfig(max_iters=np.int64(3), rel_tol=np.float32(1e-6))
    assert cfg.iteration_cap(7) == 3 and SolverConfig(breakdown_tol=1).breakdown_tol == 1
    assert cg_solve(np.diag([2.0, 1.0]), [1.0, 1.0], np.zeros(2), cfg).stop_reason == "converged"
    assert decomposed_cg_run(_DIAG, [1.0, 1.0, 0.0], np.zeros(3), np.int32(1)).iterations == 1
    assert symmetric_eig(np.eye(2), rank_tol=Fraction(1, 1000)).rank == 2


def _true_error(x, reference):
    return float(np.linalg.norm(x - reference) / np.linalg.norm(reference))


def _right_or_not_converged(trace, reference):
    return trace.stop_reason != "converged" or _true_error(trace.x, reference) <= 1e-6


class TestScaleInvariance:
    """A run must give the right answer, or not report converged, whatever the scale.

    The stop and breakdown tests are relative to norm(b) and norm(A)_F, so the two
    cg runs pass. The cgls run converges slowly: norm(A^T r) reaches its target
    rel_tol * norm(A^T b) only near k = 2,200 (2,195 at one BLAS thread, with a cap
    of 6,000), past the default cap of 2,000. It is a strict xfail: it must keep
    failing until a stop rule stops it before the cap, and then pass as it is.
    """

    def test_cg_with_a_and_b_scaled_together(self):
        spectrum = tuple(np.geomspace(1.0, 1e-2, 20)) + (0.0,) * 20
        problem = make_problem(ProblemSpec("spsd", (40, 40), spectrum, seed=5))
        for c in (1.0, 1e-13):
            a, b = c * problem.a, c * problem.b
            assert _right_or_not_converged(cg_solve(a, b, problem.x0), problem.xstar_reference), c
            assert symmetric_eig(a).rank == 20, c

    def test_cg_with_only_b_scaled(self):
        spectrum = tuple(np.geomspace(1.0, 1e-2, 30)) + (0.0,) * 10
        problem = make_problem(ProblemSpec("spsd", (40, 40), spectrum, seed=2))
        for c in (1.0, 1e-6, 1e-12):
            trace = cg_solve(problem.a, c * problem.b, problem.x0)
            assert _right_or_not_converged(trace, c * problem.xstar_reference), c

    @pytest.mark.xfail(strict=True, reason="cgls converges slowly: ||A^T r|| reaches its target only "
                       "near k = 2200, so max_iters at the cap of 2000, error 1.2e-7")
    def test_cgls_stops_before_the_cap(self):
        spectrum = tuple(np.geomspace(1.0, 1e-3, 160)) + (0.0,) * 40
        problem = make_problem(ProblemSpec("rectangular", (220, 200), spectrum, seed=3))
        trace = cgls_solve(problem.a, problem.b, problem.x0, SolverConfig(record_trace=False))
        assert _right_or_not_converged(trace, problem.xstar_reference)
        assert trace.iterations < SolverConfig().iteration_cap(200)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 4: the squared norms overflow or underflow at "
                       "this scale, so the run stops converged at iteration 0 with error 1.0")
    @pytest.mark.parametrize("solve, c", [
        (cg_solve, 1e160), (cg_solve, 1e-170), (cgls_solve, 1e100), (cgls_solve, 1e80), (cgls_solve, 1e-90),
        (cgne_solve, 1e160), (cgne_solve, 1e-170),
    ], ids=["cg-1e160", "cg-1e-170", "cgls-1e100", "cgls-1e80", "cgls-1e-90", "cgne-1e160", "cgne-1e-170"])
    def test_extreme_scale_is_right_or_not_converged(self, solve, c):
        spectrum = tuple(np.geomspace(1.0, 1e-2, 16)) + (0.0,) * 4
        problem = make_problem(ProblemSpec("spsd", (20, 20), spectrum, seed=3))
        with np.errstate(all="ignore"):
            trace = solve(c * problem.a, c * problem.b, np.zeros(20))
        assert _right_or_not_converged(trace, problem.xstar_reference)


_SCALE_SPECTRUM = tuple(np.geomspace(1.0, 1e-1, 20))
_SCALE_SPSD, _SCALE_RECT = _SCALE_SPECTRUM + (0.0,) * 20, _SCALE_SPECTRUM + (0.0,) * 10
# cg on a consistent and an inconsistent problem, cgls on an inconsistent and cgne on a consistent one
_SCALED_RUNS = {
    "cg": (cg_solve, make_problem(ProblemSpec("spsd", (40, 40), _SCALE_SPSD, seed=5))),
    "cg gap": (cg_solve, make_problem(ProblemSpec("spsd", (40, 40), _SCALE_SPSD, seed=5,
                                                  consistency_gap=1e-3))),
    "cgls": (cgls_solve, make_problem(ProblemSpec("rectangular", (40, 30), _SCALE_RECT, seed=6,
                                                  consistency_gap=1e-2))),
    "cgne": (cgne_solve, make_problem(ProblemSpec("rectangular", (30, 40), _SCALE_RECT, seed=7))),
}
_ZERO_RHS = make_problem(ProblemSpec("spsd", (40, 40), _SCALE_SPSD, seed=5, x0_mode="random_full"))
_ZERO_RHS_Q2 = symmetric_eig(_ZERO_RHS.a).q2


def _scaled_runs(c):
    """{name: the run on (c A, c b)} for each problem of _SCALED_RUNS, and cg on c A with a zero b."""
    runs = {}
    for name, (solve, problem) in _SCALED_RUNS.items():
        start = np.zeros(problem.a.shape[0] if solve is cgne_solve else problem.a.shape[1])
        runs[name] = solve(c * problem.a, c * problem.b, start, SolverConfig(record_trace=False))
    runs["zero b"] = cg_solve(c * _ZERO_RHS.a, np.zeros(40), _ZERO_RHS.x0, SolverConfig(record_trace=False))
    return runs


@given(st.floats(-12.0, 12.0))
@example(-12.0)
@example(12.0)
@settings(max_examples=50, deadline=None)
def test_runs_do_not_depend_on_scale(u):
    """On (c A, c b), c in 10^[-12, 12], each run stops for the reason it stops at c = 1, within one
    iteration of it, and a converged run is within 1e-6 of x† (of the start's null part for a zero b)."""
    base, runs = _scaled_runs(1.0), _scaled_runs(10.0**u)
    assert runs["zero b"].stop_reason == "converged"
    for name, run in runs.items():
        assert run.stop_reason == base[name].stop_reason, name
        assert abs(run.iterations - base[name].iterations) <= 1, name
        if run.stop_reason == "converged":
            # cg from x0 on a zero b ends at x0's null part
            reference = (_ZERO_RHS_Q2 @ (_ZERO_RHS_Q2.T @ _ZERO_RHS.x0) if name == "zero b"
                         else _SCALED_RUNS[name][1].xstar_reference)
            assert _true_error(run.x, reference) <= 1e-6, name


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 13: in float64 the null space grows at rounding level, and the runs stop breakdown "
    "at k = 849, 845, 1545 and 1586 with errors 8.0e-3, 4.5e-3, 3.2e-2 and 1.3e-2"))
@pytest.mark.parametrize("kappa, seed", [(1e5, 1), (1e5, 2), (1e6, 1), (1e6, 2)])
def test_consistent_run_ends_near_the_minimum_norm_solution(kappa, seed):
    """A consistent 120 x 120 system of rank 96, spectrum geomspace(1, 1/kappa) plus 24 zeros, whose b
    leans on the small eigenvalues, so ||x†|| is about kappa: cg from zero, capped at 20n. A = Q1 diag(lam) Q1^T
    is symmetrised, as it was when the stops above were measured."""
    n, rank = 120, 96
    q1 = random_orthogonal(n, seed)[:, :rank]
    lam = np.geomspace(1.0, 1.0 / kappa, rank)
    a = (q1 * lam) @ q1.T
    a = (a + a.T) / 2
    b = q1 @ (np.random.default_rng(seed).standard_normal(rank) * np.geomspace(1e-6, 1.0, rank))
    b /= np.linalg.norm(b)
    trace = cg_solve(a, b, np.zeros(n), SolverConfig(max_iters=20 * n, record_trace=False))
    assert _true_error(trace.x, q1 @ ((q1.T @ b) / lam)) <= 1e-6, (trace.stop_reason, trace.iterations)


def _bit_identical(got, want):
    assert np.array_equal(np.asarray(got), np.asarray(want)), "differs"
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def _bit_problem(kind, consistent):
    dims = {"spsd": (30, 30), "tall": (34, 30), "wide": (24, 30)}[kind]
    rank = 20
    spectrum = tuple(np.geomspace(1.0, 1e-3, rank)) + (0.0,) * (min(dims) - rank)
    spec = ProblemSpec("spsd" if kind == "spsd" else "rectangular", dims, spectrum, seed=44,
                       consistency_gap=0.0 if consistent else 1e-2, x0_mode="random_full")
    return make_problem(spec)


HISTORIES = {"iterates": "xs", "residuals": "rs", "directions": "ps", "normal_residuals": "ss",
             "y_iterates": "ys"}


def _check_run(trace, want, record):
    """``trace`` is the textbook run ``want`` bit for bit: its scalars are Python floats, unrecorded
    histories have zero rows, and the fields the textbook run has no key for are None."""
    assert trace.stop_reason == want["stop_reason"]
    scalars = trace.alphas + trace.betas + trace.res_norms + (trace.normal_res_norms or [])
    assert {type(v) for v in scalars} <= {float}
    for key in ("alphas", "betas", "res_norms", "normal_res_norms", "x", "y"):
        if key in want:
            _bit_identical(getattr(trace, key), want[key])
        else:
            assert getattr(trace, key) is None, key
    for field, key in HISTORIES.items():
        got = getattr(trace, field)
        if key not in want:
            assert got is None, field
        elif record:
            _bit_identical(got, want[key])
        else:
            assert got.shape == (0, np.shape(want[key])[1])


def _cg_case(problem, cfg):
    a, b, x0 = problem.a, problem.b, problem.x0
    cap = cfg.iteration_cap(len(b))
    r = b - a @ x0
    want = textbook_cg(lambda p: a @ p, x0, r, cap, cfg.rel_tol * (np.linalg.norm(b) or np.linalg.norm(r)),
                       cfg.breakdown_tol * np.linalg.norm(a))
    return cg_solve(a, b, x0, cfg), want


def _cgls_case(problem, cfg):
    a, b, x0 = problem.a, problem.b, problem.x0
    stop = cfg.rel_tol * (np.linalg.norm(a.T @ b) or np.linalg.norm(a.T @ (b - a @ x0)))
    floor = cfg.breakdown_tol * np.linalg.norm(a) ** 2
    return cgls_solve(a, b, x0, cfg), textbook_cgls(a, b, x0, cfg.iteration_cap(a.shape[1]), stop, floor)


def _cgne_case(problem, cfg, y0=None):
    """cgne from y0, a seeded random start by default."""
    a, b = problem.a, problem.b
    y0 = np.random.default_rng(45).standard_normal(a.shape[0]) if y0 is None else y0
    cap = cfg.iteration_cap(a.shape[0])
    r = b - a @ (a.T @ y0)
    stop = cfg.rel_tol * (np.linalg.norm(b) or np.linalg.norm(r))
    want = textbook_cg(lambda p: a @ (a.T @ p), y0, r, cap, stop, cfg.breakdown_tol * np.linalg.norm(a) ** 2)
    ys = np.array(want["xs"])
    # the trace's x and iterates are A^T y; its y fields are the textbook run's x fields
    return cgne_solve(a, b, y0, cfg), want | {"x": a.T @ want["x"], "xs": ys @ a, "y": want["x"], "ys": ys}


# each solver's case builder and the kind of problem it solves
SOLVER_CASES = {"cg": (_cg_case, "spsd"), "cgls": (_cgls_case, "tall"), "cgne": (_cgne_case, "wide")}


def _decomposed_case(problem, iters):
    """decomposed_cg_run against textbook CG on diag(Lambda_r, 0) from the rotated start."""
    dec = symmetric_eig(problem.a)
    (b1, b2), (x1, x2) = [(split(dec, v).range_part, split(dec, v).null_part) for v in (problem.b, problem.x0)]
    lam_full = np.concatenate([dec.lambdas_r, np.zeros(dec.dim - dec.rank)])
    x, r = np.concatenate([x1, x2]), np.concatenate([b1 - dec.lambdas_r * x1, b2])
    want = textbook_cg(lambda p: lam_full * p, x, r, iters, 0.0, 1e-14 * np.linalg.norm(dec.lambdas))
    dtrace = decomposed_cg_run(dec, problem.b, problem.x0, iters)
    assert dtrace.stop_reason == ("completed" if want["stop_reason"] == "max_iters" else want["stop_reason"])
    assert {type(v) for v in dtrace.alphas + dtrace.betas} <= {float}
    _bit_identical(dtrace.alphas, want["alphas"])
    _bit_identical(dtrace.betas, want["betas"])
    for block, key in [((dtrace.x1, dtrace.x2), "xs"), ((dtrace.r1, dtrace.r2), "rs"),
                       ((dtrace.p1, dtrace.p2), "ps")]:
        _bit_identical(np.hstack(block), want[key])
    return dtrace


class TestBitIdenticalToTextbookLoops:
    """The loops use ndarray.dot and math.sqrt; every result equals the textbook's ``@``/np.sqrt form.

    One comparison, through the case builders, serves the four loops; each keeps its test name."""

    @staticmethod
    def _compare(method, consistent):
        problem = _bit_problem({"cg": "spsd", "cgls": "tall", "cgne": "wide" if consistent else "tall",
                                "eigenbasis": "spsd"}[method], consistent)
        if method == "eigenbasis":
            # past the plain run's 32 (consistent) or 30 iterations, so that both runs break down
            assert _decomposed_case(problem, 300).stop_reason == "breakdown"
            return
        trace, want = SOLVER_CASES[method][0](problem, SolverConfig())
        _check_run(trace, want, True)
        if method == "cgls":
            assert trace.iterations > 10
        else:
            assert trace.stop_reason == ("converged" if consistent else "breakdown")

    @pytest.mark.parametrize("consistent", [True, False])
    def test_cg_solve(self, consistent):
        self._compare("cg", consistent)

    @pytest.mark.parametrize("consistent", [True, False])
    def test_cgne_solve(self, consistent):
        self._compare("cgne", consistent)

    @pytest.mark.parametrize("consistent", [True, False])
    def test_cgls_solve(self, consistent):
        self._compare("cgls", consistent)

    @pytest.mark.parametrize("consistent", [True, False])
    def test_decomposed_cg_run(self, consistent):
        self._compare("eigenbasis", consistent)

    @pytest.mark.parametrize("consistent, cap, reason", [
        (True, 300, "converged"), (False, 300, "breakdown"), (True, 5, "max_iters"),
    ])
    def test_operator_applied_once_per_iteration(self, consistent, cap, reason):
        problem = _bit_problem("spsd", consistent)
        a, b, x0 = problem.a, problem.b, problem.x0
        calls = []
        run = _cg_recurrence(lambda p: calls.append(p) or a @ p, b, x0, cap, 1e-12, 1e-14, False)
        assert run.stop_reason == reason
        # one apply for r_0, and a breakdown is found after one more, for the attempt that did not complete
        assert len(calls) == 1 + run.iterations + (reason == "breakdown")


class _ArrayOnlyUfunc:
    """A ufunc that records its calls and fails on an operand or ``out`` that is not an ndarray."""

    def __init__(self, ufunc, calls):
        self.ufunc, self.calls = ufunc, calls

    def __getattr__(self, name):
        return getattr(self.ufunc, name)

    def __call__(self, *args, **kwargs):
        self.calls[self.ufunc.__name__] += 1
        others = [type(v).__name__ for v in args + tuple(kwargs.values()) if not isinstance(v, np.ndarray)]
        assert not others, f"{self.ufunc.__name__} called with {others}"
        return self.ufunc(*args, **kwargs)


@pytest.mark.parametrize("record", [True, False])
def test_loop_steps_hand_numpy_arrays_only(monkeypatch, record):
    """Every np.multiply, np.subtract and np.add call of the solvers module takes ndarrays only, as
    its module notes say: numpy converts a Python float or np.float64 operand anew on each call."""
    calls = collections.Counter()
    checked = {name: _ArrayOnlyUfunc(getattr(np, name), calls) for name in ("multiply", "subtract", "add")}
    monkeypatch.setattr(solvers, "np", types.SimpleNamespace(**(vars(np) | checked)))
    # tiny blocks, so that the histories grow and unrecorded runs fold their steps into x
    monkeypatch.setattr(solvers, "_BLOCK", 2)
    cfg = SolverConfig(record_trace=record)
    spsd, tall, wide = _bit_problem("spsd", True), _bit_problem("tall", False), _bit_problem("wide", True)
    runs = [cg_solve(spsd.a, spsd.b, spsd.x0, cfg), cgls_solve(tall.a, tall.b, tall.x0, cfg),
            cgne_solve(wide.a, wide.b, np.zeros(wide.a.shape[0]), cfg),
            decomposed_cg_run(symmetric_eig(spsd.a), spsd.b, spsd.x0, 40)]
    assert min(run.iterations for run in runs) > 10
    assert set(calls) == {"multiply", "subtract", "add"}


@st.composite
def loop_runs(draw):
    """A solver run to repeat with the textbook loops: a method, its problem, a scale and its config."""
    kind = draw(st.sampled_from(["cg", "cgne", "cgls", "eigenbasis"]))
    n = draw(st.integers(2, 40))
    m = n if kind in ("cg", "eigenbasis") else draw(st.integers(2, 40))
    gap = draw(st.one_of(st.just(0.0), st.floats(-6.0, 0.0).map(lambda u: 10.0**u)))
    # a gap needs a rank-deficient range
    rank = draw(st.integers(1, min(m, n) - (gap > 0.0)))
    kappa = 10.0 ** draw(st.floats(0.0, 8.0))
    spectrum = tuple(np.geomspace(1.0, 1.0 / kappa, rank)) + (0.0,) * (min(m, n) - rank)
    spec = ProblemSpec("spsd" if kind in ("cg", "eigenbasis") else "rectangular", (m, n),
                       spectrum, seed=draw(st.integers(0, 10**6)), consistency_gap=gap,
                       x0_mode=draw(st.sampled_from(X0_MODES)))
    cfg = SolverConfig(max_iters=draw(st.one_of(st.none(), st.integers(1, 3 * n))),
                       record_trace=draw(st.booleans()))
    return kind, make_problem(spec), 10.0 ** draw(st.floats(-12.0, 12.0)), cfg


def test_trimmed_loops_equal_the_reference_loops():
    """cg, cgne (from zero), cgls and the eigenbasis run on (c A, c b) from c x0 are their textbook
    runs bit for bit, breakdowns among them."""
    stops = collections.Counter()

    @given(loop_runs())
    # A = I: the eigenbasis run's r.r underflows to 0 and it stops "converged" at 11, not 0 / 0
    @example(("eigenbasis", make_problem(ProblemSpec("spsd", (4, 4), (1.0,) * 4, seed=0)), 1000.0,
              SolverConfig(max_iters=40)))
    @settings(max_examples=150, deadline=None)
    def check(run):
        kind, problem, c, cfg = run
        problem = dataclasses.replace(problem, a=c * problem.a, b=c * problem.b, x0=c * problem.x0)
        if kind == "eigenbasis":
            stops[_decomposed_case(problem, cfg.iteration_cap(len(problem.b))).stop_reason] += 1
            return
        trace, want = (_cgne_case(problem, cfg, np.zeros(len(problem.b))) if kind == "cgne"
                       else SOLVER_CASES[kind][0](problem, cfg))
        assert trace.method == kind
        _check_run(trace, want, cfg.record_trace)
        stops[trace.stop_reason] += 1

    check()
    assert stops[BREAKDOWN] > 0, stops


# State counts just below, at and just above the rows a history starts with and the rows of its
# first doubling; an unrecorded run folds its block when those first rows fill.
BOUNDARY_STATES = [rows + d for rows in (solvers._BLOCK, 2 * solvers._BLOCK) for d in (-1, 0, 1)]


@functools.lru_cache(maxsize=None)
def _slow_problem(kind):
    """A problem no solver finishes within 2 * _BLOCK + 1 states, so the cap sets the count."""
    n, zeros = 200, 20
    if kind == "spsd":
        return make_problem(ProblemSpec("spsd", (n, n), tuple(np.geomspace(1.0, 1e-6, n - zeros))
                                        + (0.0,) * zeros, seed=7, x0_mode="random_full"))
    dims, zeros, gap = {"tall": ((220, n), 20, 1e-2), "wide": ((180, n), 0, 0.0)}[kind]
    spectrum = tuple(np.geomspace(1.0, 1e-3, 180)) + (0.0,) * zeros
    return make_problem(ProblemSpec("rectangular", dims, spectrum, seed=7, consistency_gap=gap,
                                    x0_mode="random_full"))


class TestHistoryBoundaries:
    """Histories grow by doubling and unrecorded runs fold a fixed block, bit for bit as the textbook."""

    @pytest.mark.parametrize("record", [True, False])
    @pytest.mark.parametrize("states", BOUNDARY_STATES)
    @pytest.mark.parametrize("method", SOLVER_CASES)
    def test_solver(self, method, states, record):
        case, kind = SOLVER_CASES[method]
        trace, want = case(_slow_problem(kind), SolverConfig(max_iters=states - 1, record_trace=record))
        assert trace.stop_reason == "max_iters" and len(trace.res_norms) == states
        _check_run(trace, want, record)

    @pytest.mark.parametrize("states", BOUNDARY_STATES)
    def test_decomposed_cg_run(self, states):
        dtrace = _decomposed_case(_slow_problem("spsd"), states - 1)
        assert dtrace.stop_reason == "completed" and len(dtrace.x1) == states

    # Tiny blocks grow or fold every few states, and a run that stops on its own leaves
    # spare rows behind the trimmed views.
    @pytest.mark.parametrize("block", [2, 3, 5])
    @pytest.mark.parametrize("record", [True, False])
    def test_small_blocks_stop_on_their_own(self, monkeypatch, block, record):
        monkeypatch.setattr(solvers, "_BLOCK", block)
        cfg = SolverConfig(record_trace=record)
        for consistent in (True, False):
            for case, kind in [(_cg_case, "spsd"), (_cgls_case, "tall"),
                               (_cgne_case, "wide" if consistent else "tall")]:
                trace, want = case(_bit_problem(kind, consistent), cfg)
                assert trace.stop_reason in ("converged", "breakdown")
                _check_run(trace, want, record)
            _decomposed_case(_bit_problem("spsd", consistent), 300)

    @pytest.mark.parametrize("block", [2, solvers._BLOCK])
    @pytest.mark.parametrize("solve, kind", [(cg_solve, "spsd"), (cgls_solve, "tall"),
                                             (cgne_solve, "wide")])
    def test_recorded_and_unrecorded_runs_agree(self, monkeypatch, block, solve, kind):
        monkeypatch.setattr(solvers, "_BLOCK", block)
        problem = _slow_problem(kind)
        start = problem.x0 if solve is not cgne_solve else np.zeros(problem.a.shape[0])
        runs = [solve(problem.a, problem.b, start, SolverConfig(max_iters=150, record_trace=record))
                for record in (True, False)]
        for key in ("x", "y", "alphas", "betas", "res_norms", "normal_res_norms"):
            if getattr(runs[0], key) is not None:
                _bit_identical(getattr(runs[1], key), getattr(runs[0], key))
        for field in HISTORIES:
            recorded, unrecorded = getattr(runs[0], field), getattr(runs[1], field)
            if recorded is not None:
                assert len(recorded) == 151 and unrecorded.shape == (0, recorded.shape[1])


class TestHistoryMemory:
    def test_unrecorded_run_stays_within_one_block(self):
        spectrum = tuple(np.geomspace(1.0, 1e-6, 400))
        problem = make_problem(ProblemSpec("spsd", (400, 400), spectrum, seed=8))
        a, b, x0 = problem.a, problem.b, problem.x0
        peaks = {}
        for iters in (200, 2000):
            # the recurrence alone: cg_solve's symmetry check of A would set the peak
            tracemalloc.start()
            try:
                trace = _cg_recurrence(a.dot, b, x0, iters, 0.0, 1e-14, False)
                peaks[iters] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert trace.iterations == iters
        # one fold block: the residual and direction rows it holds
        assert peaks[2000] - peaks[200] <= 2 * solvers._BLOCK * 400 * 8

    def test_unrecorded_histories_own_their_empty_data(self):
        # a view of zero rows would keep the last fold block alive for as long as the trace
        spsd, tall, wide = _slow_problem("spsd"), _slow_problem("tall"), _slow_problem("wide")
        cfg = SolverConfig(max_iters=2 * solvers._BLOCK + 7, record_trace=False)
        for trace in [cg_solve(spsd.a, spsd.b, spsd.x0, cfg), cgls_solve(tall.a, tall.b, tall.x0, cfg),
                      cgne_solve(wide.a, wide.b, np.zeros(180), cfg)]:
            for field in HISTORIES:
                rows = getattr(trace, field)
                if rows is not None:
                    assert len(rows) == 0 and rows.base is None, (trace.method, field)

    def test_history_rows_hold_exactly_their_bytes(self):
        tall, wide = _slow_problem("tall"), _slow_problem("wide")
        cfg = SolverConfig(max_iters=2 * solvers._BLOCK + 7)
        states = cfg.max_iters + 1
        for trace in [cgls_solve(tall.a, tall.b, tall.x0, cfg), cgne_solve(wide.a, wide.b, np.zeros(180), cfg)]:
            for field in HISTORIES:
                rows = getattr(trace, field)
                if rows is not None:
                    assert sum(row.nbytes for row in rows) == states * rows.shape[1] * 8, field
