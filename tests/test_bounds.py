import math

import numpy as np
import pytest

from semikrylov.bounds import (
    NOISE_CUT,
    SLACK_FLOOR,
    SLACK_REL,
    _violations,
    cg_bound_verify,
    cgls_bound_verify,
    cgne_bound_verify,
)
from semikrylov.decomposition import decomposed_cg_run, equivalence_check
from semikrylov.genmat import ProblemSpec, make_problem
from semikrylov.linalg import svd, symmetric_eig
from semikrylov.oracle import pinv_apply_rect, pseudoinverse_matrix
from semikrylov.solvers import SolverConfig, cg_solve, cgls_solve, cgne_solve


class TestCgBoundVerify:
    def test_identity_contracts_in_one_step(self):
        a = np.eye(3)
        dec = symmetric_eig(a)
        trace = cg_solve(a, [1.0, 2.0, 3.0], np.zeros(3))
        report = cg_bound_verify(trace, dec)
        assert report.contraction_factor == 0.0
        assert report.bound[1] == 0.0
        assert report.measured[1] <= 1e-13 * report.measured[0]
        assert report.passed

    def test_contraction_factor_for_kappa_two(self):
        a = np.diag([2.0, 1.0, 0.0])
        dec = symmetric_eig(a)
        trace = cg_solve(a, [2.0, 1.0, 0.0], np.zeros(3))
        report = cg_bound_verify(trace, dec)
        expected_rho = (math.sqrt(2.0) - 1.0) / (math.sqrt(2.0) + 1.0)
        assert abs(report.contraction_factor - expected_rho) <= 1e-12
        assert abs(report.contraction_factor - 0.17157287525380996) <= 1e-12
        assert report.kappa_or_sigmas == (2.0, 1.0)
        assert report.passed

    def test_measured_matches_assembled_pseudoinverse_form(self):
        spec = ProblemSpec(
            "spsd", (18, 18), tuple(np.geomspace(1, 1e-2, 12)) + (0.0,) * 6, seed=61
        )
        problem = make_problem(spec)
        dec = symmetric_eig(problem.a)
        trace = cg_solve(problem.a, problem.b, problem.x0, SolverConfig(rel_tol=1e-13))
        report = cg_bound_verify(trace, dec)
        pinv = pseudoinverse_matrix(dec)
        for k, rk in enumerate(trace.residuals):
            if report.measured[k] <= 1e-10 * report.measured[0]:
                break
            direct = math.sqrt(float(rk @ (pinv @ rk)))
            assert abs(direct - report.measured[k]) <= 1e-9 * direct

    def test_inconsistent_rhs_is_an_error(self):
        a = np.diag([2.0, 1.0, 0.0])
        dec = symmetric_eig(a)
        trace = cg_solve(a, [2.0, 1.0, 0.5], np.zeros(3), SolverConfig(max_iters=3))
        with pytest.raises(ValueError):
            cg_bound_verify(trace, dec)

    def test_energy_identity_between_bases(self):
        spec = ProblemSpec("spsd", (15, 15), tuple(np.geomspace(2, 0.1, 10)) + (0.0,) * 5, seed=62)
        problem = make_problem(spec)
        dec = symmetric_eig(problem.a)
        trace = cg_solve(problem.a, problem.b, problem.x0, SolverConfig(max_iters=6))
        xstar = dec.q1 @ ((dec.q1.T @ problem.b) / dec.lambdas_r)
        for xk in trace.iterates:
            e = xk - xstar
            direct = float(e @ (problem.a @ e))
            e1 = dec.q1.T @ e
            transformed = float(e1 @ (dec.lambdas_r * e1))
            assert abs(direct - transformed) <= 1e-9 * max(abs(direct), 1e-300)

    def test_bound_envelope_shape(self):
        spec = ProblemSpec("spsd", (12, 12), tuple(np.geomspace(1, 0.1, 8)) + (0.0,) * 4, seed=63)
        problem = make_problem(spec)
        dec = symmetric_eig(problem.a)
        trace = cg_solve(problem.a, problem.b, problem.x0)
        report = cg_bound_verify(trace, dec)
        rho = report.contraction_factor
        for k, bk in enumerate(report.bound):
            assert abs(bk - 2.0 * rho**k * report.measured[0]) <= 1e-12 * max(bk, 1.0)
        assert all(b2 <= b1 + 1e-15 for b1, b2 in zip(report.bound, report.bound[1:]))

    def test_contraction_invariant_under_spectrum_scaling(self):
        base = tuple(np.geomspace(1, 1e-3, 9)) + (0.0,) * 3
        rhos = []
        for scale in (1.0, 7.5):
            spec = ProblemSpec("spsd", (12, 12), tuple(scale * s for s in base), seed=64)
            problem = make_problem(spec)
            dec = symmetric_eig(problem.a)
            trace = cg_solve(problem.a, problem.b, problem.x0, SolverConfig(max_iters=8))
            rhos.append(cg_bound_verify(trace, dec).contraction_factor)
        assert abs(rhos[0] - rhos[1]) <= 1e-12


class TestCglsBoundVerify:
    def test_full_rank_identity(self):
        a = np.eye(2)
        sd = svd(a)
        trace = cgls_solve(a, [3.0, 4.0], np.zeros(2))
        report = cgls_bound_verify(trace, sd, pinv_apply_rect(sd, [3.0, 4.0]))
        assert report.contraction_factor == 0.0
        assert report.measured[1] <= 1e-12 * report.measured[0]
        assert report.passed

    def test_contraction_factor_one_third(self):
        a = np.array([[2.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        sd = svd(a)
        b = [2.0, 1.0, 0.0]
        trace = cgls_solve(a, b, np.zeros(2))
        report = cgls_bound_verify(trace, sd, pinv_apply_rect(sd, b))
        assert abs(report.contraction_factor - 1.0 / 3.0) <= 1e-12
        assert report.kappa_or_sigmas == pytest.approx((2.0, 1.0), abs=1e-12)

    def test_rank_one_single_step(self):
        a = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        sd = svd(a)
        b = [1.0, 1.0, 0.0]
        trace = cgls_solve(a, b, np.zeros(2))
        report = cgls_bound_verify(trace, sd, pinv_apply_rect(sd, b))
        assert report.contraction_factor == 0.0
        assert report.measured[1] <= 1e-12 * max(report.measured[0], 1e-300)
        assert report.passed

    def test_generated_problem_honors_bound(self):
        sig = tuple(np.geomspace(1, 0.05, 10)) + (0.0,) * 5
        spec = ProblemSpec("rectangular", (24, 15), sig, seed=65, consistency_gap=0.4)
        problem = make_problem(spec)
        sd = svd(problem.a)
        trace = cgls_solve(problem.a, problem.b, problem.x0, SolverConfig(rel_tol=1e-13))
        report = cgls_bound_verify(trace, sd, pinv_apply_rect(sd, problem.b))
        assert report.passed, report.violations


class TestCgneBoundVerify:
    def test_identity(self):
        a = np.eye(2)
        sd = svd(a)
        trace = cgne_solve(a, [1.0, 1.0], np.zeros(2))
        report = cgne_bound_verify(trace, sd)
        assert report.measured[1] <= 1e-12 * report.measured[0]
        assert report.passed

    def test_single_row_one_step(self):
        a = np.array([[1.0, 0.0]])
        sd = svd(a)
        trace = cgne_solve(a, [2.0], np.zeros(1))
        report = cgne_bound_verify(trace, sd)
        assert report.contraction_factor == 0.0
        assert report.passed

    def test_generated_wide_problem(self):
        sig = tuple(np.geomspace(1, 0.1, 10)) + (0.0,) * 10
        spec = ProblemSpec("rectangular", (20, 30), sig, seed=66)
        problem = make_problem(spec)
        sd = svd(problem.a)
        trace = cgne_solve(problem.a, problem.b, np.zeros(20), SolverConfig(rel_tol=1e-13))
        report = cgne_bound_verify(trace, sd)
        assert report.kind == "cgne_energy"
        assert report.passed, report.violations

    def test_inconsistent_rhs_is_an_error(self):
        a = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        sd = svd(a)
        trace = cgne_solve(a, [0.0, 1.0], np.zeros(2), SolverConfig(max_iters=3))
        with pytest.raises(ValueError):
            cgne_bound_verify(trace, sd)


class TestZeroRankErrors:
    def test_cg_bound_zero_rank(self):
        a = np.zeros((3, 3))
        dec = symmetric_eig(a)
        trace = cg_solve(a, [0.0, 0.0, 0.0], np.zeros(3), SolverConfig(max_iters=1))
        with pytest.raises(ValueError):
            cg_bound_verify(trace, dec)

    def test_cgls_bound_zero_rank(self):
        a = np.zeros((3, 2))
        sd = svd(a)
        trace = cgls_solve(a, [0.0, 0.0, 0.0], np.zeros(2), SolverConfig(max_iters=1))
        with pytest.raises(ValueError):
            cgls_bound_verify(trace, sd, np.zeros(2))


def _unrecorded_traces():
    cfg = SolverConfig(record_trace=False)
    a = np.diag([2.0, 1.0, 0.0])
    b = np.array([2.0, 1.0, 0.0])
    rect = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
    dec, sdec = symmetric_eig(a), svd(rect)
    cg_trace = cg_solve(a, b, np.zeros(3), cfg)
    dtrace = decomposed_cg_run(dec, b, np.zeros(3), 2)
    return {
        "cg_bound_verify": lambda: cg_bound_verify(cg_trace, dec),
        "cgls_bound_verify": lambda: cgls_bound_verify(
            cgls_solve(rect, b, np.zeros(2), cfg), sdec, np.zeros(2)
        ),
        "cgne_bound_verify": lambda: cgne_bound_verify(cgne_solve(rect, b, np.zeros(3), cfg), sdec),
        "equivalence_check": lambda: equivalence_check(cg_trace, dtrace, dec, 1e-8),
    }


@pytest.mark.parametrize(
    "check", ["cg_bound_verify", "cgls_bound_verify", "cgne_bound_verify", "equivalence_check"]
)
def test_unrecorded_trace_is_rejected(check):
    with pytest.raises(ValueError, match="no recorded"):
        _unrecorded_traces()[check]()


def test_a_trace_of_another_method_is_rejected():
    a, b = np.diag([2.0, 1.0, 0.0]), [2.0, 1.0, 0.0]
    dec, trace = symmetric_eig(a), cgls_solve(a, b, np.zeros(3))
    with pytest.raises(ValueError, match="cg_bound_verify expects a cg trace"):
        cg_bound_verify(trace, dec)
    with pytest.raises(ValueError, match="equivalence_check expects a plain cg trace"):
        equivalence_check(trace, decomposed_cg_run(dec, b, np.zeros(3), 2), dec, 1e-8)


def looped_violations(measured, bound):
    """The violation scan one state at a time, as a reference."""
    m0, out = measured[0], []
    for k, (mk, bk) in enumerate(zip(measured, bound)):
        if mk < NOISE_CUT * m0:
            break
        if mk > bk * (1.0 + SLACK_REL) + SLACK_FLOOR * m0:
            out.append((k, mk, bk))
    return out


@pytest.mark.parametrize("seed", range(20))
def test_violations_equal_the_state_by_state_scan(seed):
    rng = np.random.default_rng(seed)
    count = int(rng.integers(1, 60))
    bound = [2.0 * 0.7**k for k in range(count)]
    # near the envelope, so some states escape it by less than the slack and some by more
    measured = (np.array(bound) * (1.0 + rng.normal(scale=3e-6, size=count))).tolist()
    measured[0] = 1.0
    if seed % 2:
        # a state at rounding level ends the scan, though later ones escape the envelope
        measured[int(rng.integers(1, count + 1)) :] = [1e-13, 5.0, 5.0]
    if seed % 3 == 0:
        measured[int(rng.integers(0, len(measured)))] = math.nan
    bound = bound + [2.0 * 0.7**k for k in range(count, len(measured))]
    got = _violations(measured, bound)
    assert got == looped_violations(measured, bound)
    assert all(type(k) is int and type(mk) is float and type(bk) is float for k, mk, bk in got)
    if seed == 0:
        assert got


def _bound_reports():
    spsd = make_problem(ProblemSpec("spsd", (40, 40), tuple(np.geomspace(1, 1e-3, 30)) + (0.0,) * 10, seed=67))
    tall = make_problem(ProblemSpec("rectangular", (44, 40), tuple(np.geomspace(1, 1e-2, 30)) + (0.0,) * 10,
                                    seed=68, consistency_gap=0.3))
    wide = make_problem(ProblemSpec("rectangular", (30, 40), tuple(np.geomspace(1, 1e-2, 30)), seed=69))
    sd_tall, sd_wide = svd(tall.a), svd(wide.a)
    return [
        cg_bound_verify(cg_solve(spsd.a, spsd.b, spsd.x0), symmetric_eig(spsd.a)),
        cgls_bound_verify(cgls_solve(tall.a, tall.b, tall.x0), sd_tall, pinv_apply_rect(sd_tall, tall.b)),
        cgne_bound_verify(cgne_solve(wide.a, wide.b, np.zeros(30)), sd_wide),
    ]


def test_envelope_is_python_power_bit_for_bit():
    """The bound is 2.0 * rho**k * m0 with Python's float power, which np.power does not
    match in every state; a vectorised envelope must keep these bits."""
    for report in _bound_reports():
        rho, m0 = report.contraction_factor, report.measured[0]
        want = [2.0 * rho**k * m0 for k in range(len(report.measured))]
        assert len(want) > 30, report.kind
        assert np.array(report.bound).tobytes() == np.array(want).tobytes(), report.kind
