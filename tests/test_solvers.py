from fractions import Fraction

import numpy as np
import pytest

from semikrylov.genmat import ProblemSpec, make_problem
from semikrylov.linalg import symmetric_eig
from semikrylov.oracle import pinv_apply_rect, pseudoinverse_apply
from semikrylov.solvers import SolverConfig, cg_solve, cgls_solve, cgne_solve
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
