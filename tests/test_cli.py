import argparse
import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semikrylov import cli, decomposition
from semikrylov.cli import SEED_ENV, run_command
from semikrylov.genmat import ProblemSpec, make_problem
from semikrylov.linalg import _relative_distance, svd, symmetric_eig
from semikrylov.mmio import load_matrix_market, save_matrix_market, write_matrix_market
from semikrylov.oracle import consistency_check
from semikrylov.report import RunReport, write_text_atomic
from semikrylov.solvers import SolverConfig, cg_solve
from test_report import reference_rows, reference_to_json, reference_trace_csv_text


@pytest.fixture
def spsd_problem(tmp_path):
    spec = ProblemSpec(
        "spsd", (12, 12), tuple(np.geomspace(1, 0.05, 8)) + (0.0,) * 4, seed=71
    )
    problem = make_problem(spec)
    save_matrix_market(tmp_path / "a.mtx", problem.a)
    save_matrix_market(tmp_path / "b.mtx", problem.b.reshape(-1, 1))
    return tmp_path, spec, problem


def _spec_file(tmp_path, **overrides):
    payload = {
        "kind": "spsd",
        "dims": [12, 12],
        "spectrum": list(np.geomspace(1, 0.05, 8)) + [0.0] * 4,
        "seed": 71,
        "consistency_gap": 0.0,
        "x0_mode": "zero",
    }
    payload.update(overrides)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(payload))
    return path


class TestSolveCommand:
    def test_cg_on_consistent_spsd(self, spsd_problem):
        tmp_path, _, problem = spsd_problem
        out = tmp_path / "report.json"
        csv_path = tmp_path / "trace.csv"
        code = run_command([
            "solve", "--method", "cg",
            "--matrix", str(tmp_path / "a.mtx"), "--rhs", str(tmp_path / "b.mtx"),
            "--x0", "zero", "--out", str(out), "--trace-csv", str(csv_path),
        ])
        assert code == 0
        report = RunReport.from_json(out.read_text())
        assert report.stop_reason == "converged"
        assert report.passed
        assert report.rank == 8
        assert report.final_distances["expected"] <= 1e-8
        header = csv_path.read_text().splitlines()[0]
        assert header == (
            "iter,alpha,beta,res_norm,normal_res_norm,range_res_norm,"
            "null_res_norm,measured_bound_quantity,bound_value"
        )

    def test_report_numbers_reproducible_from_library(self, spsd_problem):
        tmp_path, _, problem = spsd_problem
        out = tmp_path / "report.json"
        code = run_command([
            "solve", "--method", "cg",
            "--matrix", str(tmp_path / "a.mtx"), "--rhs", str(tmp_path / "b.mtx"),
            "--out", str(out),
        ])
        assert code == 0
        report = RunReport.from_json(out.read_text())
        a = load_matrix_market(tmp_path / "a.mtx")
        b = load_matrix_market(tmp_path / "b.mtx")[:, 0]
        trace = cg_solve(a, b, np.zeros(12), SolverConfig())
        assert report.alphas == trace.alphas
        assert report.res_norms == trace.res_norms
        assert report.iterations == trace.iterations

    def test_inconsistent_cg_fails_the_check(self, tmp_path):
        spec = ProblemSpec(
            "spsd", (10, 10), tuple(np.geomspace(1, 0.1, 6)) + (0.0,) * 4, seed=72,
            consistency_gap=0.5,
        )
        problem = make_problem(spec)
        save_matrix_market(tmp_path / "a.mtx", problem.a)
        save_matrix_market(tmp_path / "b.mtx", problem.b.reshape(-1, 1))
        code = run_command([
            "solve", "--method", "cg",
            "--matrix", str(tmp_path / "a.mtx"), "--rhs", str(tmp_path / "b.mtx"),
            "--out", str(tmp_path / "report.json"),
        ])
        assert code == 1
        report = RunReport.from_json((tmp_path / "report.json").read_text())
        assert not report.checks["converged"]

    def test_cgls_solve(self, tmp_path):
        spec = ProblemSpec(
            "rectangular", (15, 9), tuple(np.geomspace(1, 0.1, 6)) + (0.0,) * 3, seed=73,
            consistency_gap=0.4,
        )
        problem = make_problem(spec)
        save_matrix_market(tmp_path / "a.mtx", problem.a)
        save_matrix_market(tmp_path / "b.mtx", problem.b.reshape(-1, 1))
        out = tmp_path / "report.json"
        code = run_command([
            "solve", "--method", "cgls",
            "--matrix", str(tmp_path / "a.mtx"), "--rhs", str(tmp_path / "b.mtx"),
            "--out", str(out),
        ])
        assert code == 0
        report = RunReport.from_json(out.read_text())
        assert report.method == "cgls"
        assert report.normal_res_norms is not None
        assert report.passed

    def test_x0_from_file(self, spsd_problem):
        tmp_path, _, problem = spsd_problem
        x0 = np.zeros(12)
        save_matrix_market(tmp_path / "x0.mtx", x0.reshape(-1, 1))
        code = run_command([
            "solve", "--method", "cg",
            "--matrix", str(tmp_path / "a.mtx"), "--rhs", str(tmp_path / "b.mtx"),
            "--x0", f"file:{tmp_path / 'x0.mtx'}",
            "--out", str(tmp_path / "report.json"),
        ])
        assert code == 0

    def test_usage_error_exit_code(self):
        assert run_command(["solve", "--method", "nope"]) == 2

    def test_missing_file_exit_code(self, tmp_path):
        code = run_command([
            "solve", "--method", "cg",
            "--matrix", str(tmp_path / "nope.mtx"), "--rhs", str(tmp_path / "nope.mtx"),
        ])
        assert code == 2

    def test_malformed_matrix_exit_code(self, tmp_path):
        (tmp_path / "bad.mtx").write_text("garbage\n")
        code = run_command([
            "solve", "--method", "cg",
            "--matrix", str(tmp_path / "bad.mtx"), "--rhs", str(tmp_path / "bad.mtx"),
        ])
        assert code == 2


# a tolerance must satisfy 0 < tol < inf; NaN and inf used to run, and --tol 0 or -1 to fail a check
BAD_TOLERANCES = [
    (command, flag, value)
    for command, flags in (("solve", ["--rel-tol", "--rank-tol"]), ("diagnose", ["--tol", "--rank-tol"]))
    for flag in flags
    for value in ("nan", "inf", "0", "-1")
]


@pytest.mark.parametrize("command, flag, value", BAD_TOLERANCES)
def test_tolerance_must_be_finite_and_positive(spsd_problem, capsys, command, flag, value):
    tmp_path, _, _ = spsd_problem
    argv = [command, "--matrix", str(tmp_path / "a.mtx"), "--rhs", str(tmp_path / "b.mtx"),
            flag, value, "--out", str(tmp_path / "report.json")]
    argv += ["--method", "cg"] if command == "solve" else ["--iters", "4"]
    assert run_command(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"must be finite and positive, got {float(value)}" in err
    assert not (tmp_path / "report.json").exists()


def test_matches_oracle_with_a_small_solution(tmp_path):
    spectrum = tuple(np.geomspace(1.0, 1e-2, 30)) + (0.0,) * 10
    problem = make_problem(ProblemSpec("spsd", (40, 40), spectrum, seed=2))
    save_matrix_market(tmp_path / "a.mtx", problem.a)
    save_matrix_market(tmp_path / "b.mtx", 1e-7 * problem.b.reshape(-1, 1))
    out = tmp_path / "report.json"
    assert run_command([
        "solve", "--method", "cg", "--matrix", str(tmp_path / "a.mtx"),
        "--rhs", str(tmp_path / "b.mtx"), "--max-iters", "3", "--out", str(out),
    ]) == 1
    assert not RunReport.from_json(out.read_text()).checks["matches_oracle"]


_EXTREME_SCALE = make_problem(ProblemSpec("spsd", (20, 20), tuple(np.geomspace(1.0, 1e-2, 16)) + (0.0,) * 4, seed=3))
_ITEM_20 = pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 20: the squared norms overflow or underflow. At 1e160 res_norms[0] is inf (cgls reports "
    "604 non-finite numbers); at 1e-170 every method stops converged at iteration 0 and misses the oracle"))


@pytest.mark.parametrize("c", [1.0, pytest.param(1e160, marks=_ITEM_20), pytest.param(1e-170, marks=_ITEM_20)])
@pytest.mark.parametrize("method", ["cg", "cgls", "cgne"])
def test_solve_reports_finite_norms_and_a_true_stop_at_any_scale(tmp_path, method, c):
    """solve on (c A, c b) from zero: every norm it reports is finite, and a converged run matches the oracle."""
    save_matrix_market(tmp_path / "a.mtx", c * _EXTREME_SCALE.a)
    save_matrix_market(tmp_path / "b.mtx", c * _EXTREME_SCALE.b.reshape(-1, 1))
    out = tmp_path / "report.json"
    with np.errstate(all="ignore"):
        run_command(["solve", "--method", method, "--matrix", str(tmp_path / "a.mtx"),
                     "--rhs", str(tmp_path / "b.mtx"), "--out", str(out)])
    report = RunReport.from_json(out.read_text())
    numbers = [*report.res_norms, *report.range_res_norms, *report.null_res_norms, *report.final_distances.values()]
    assert all(np.isfinite(numbers))
    assert report.checks["matches_oracle"] or not report.checks["converged"]


class TestDiagnoseCommand:
    def test_consistent_system(self, spsd_problem):
        tmp_path, _, _ = spsd_problem
        out = tmp_path / "diag.json"
        code = run_command([
            "diagnose", "--matrix", str(tmp_path / "a.mtx"), "--rhs", str(tmp_path / "b.mtx"),
            "--iters", "8", "--out", str(out),
        ])
        assert code == 0
        report = RunReport.from_json(out.read_text())
        assert report.checks["equivalence"]
        assert report.checks["null_stagnation"]
        assert report.diagnostics["consistent"]

    def test_inconsistent_system_reports_confinement(self, tmp_path):
        spec = ProblemSpec(
            "spsd", (14, 14), tuple(10 * np.geomspace(1, 1e-3, 12)) + (0.0,) * 2, seed=74,
            consistency_gap=0.5,
        )
        problem = make_problem(spec)
        save_matrix_market(tmp_path / "a.mtx", problem.a)
        save_matrix_market(tmp_path / "b.mtx", problem.b.reshape(-1, 1))
        out = tmp_path / "diag.json"
        code = run_command([
            "diagnose", "--matrix", str(tmp_path / "a.mtx"), "--rhs", str(tmp_path / "b.mtx"),
            "--iters", "8", "--out", str(out),
        ])
        assert code == 0
        report = RunReport.from_json(out.read_text())
        assert report.checks["equivalence"]
        assert report.checks["null_confinement"]
        assert report.checks["null_residual_constant"]
        assert not report.diagnostics["consistent"]

    def test_plain_directions_that_leave_the_b2_line_fail_null_confinement(self, tmp_path, monkeypatch):
        spec = ProblemSpec("spsd", (16, 16), tuple(np.geomspace(1, 1e-2, 12)) + (0.0,) * 4, seed=75,
                           consistency_gap=1e-3)
        problem = make_problem(spec)
        save_matrix_market(tmp_path / "a.mtx", problem.a)
        save_matrix_market(tmp_path / "b.mtx", problem.b.reshape(-1, 1))
        q2 = symmetric_eig(problem.a).q2
        b2 = q2.T @ problem.b
        assert np.linalg.norm(b2) == pytest.approx(1e-3)
        c = np.eye(q2.shape[1])[0] - b2[0] * b2 / (b2 @ b2)
        leak = 1e-10 * (q2 @ c) / np.linalg.norm(c)  # along a null vector orthogonal to b2

        def diagnose():
            out = tmp_path / "diag.json"
            code = run_command(["diagnose", "--matrix", str(tmp_path / "a.mtx"), "--rhs",
                                str(tmp_path / "b.mtx"), "--iters", "20", "--out", str(out)])
            return code, RunReport.from_json(out.read_text())

        code, report = diagnose()
        assert code == 0
        assert report.diagnostics["max_null_direction_sine"] < 1e-12

        def leaky_cg_solve(*args, **kwargs):
            trace = cg_solve(*args, **kwargs)
            return replace(trace, directions=trace.directions + leak)

        monkeypatch.setattr(cli, "cg_solve", leaky_cg_solve)
        code, report = diagnose()
        assert code == 1
        assert report.checks == {"equivalence": True, "null_confinement": False,
                                 "null_residual_constant": True}
        assert 1e-8 < report.diagnostics["max_null_direction_sine"] < 1e-6
        assert report.diagnostics["max_deviation"] < 1e-9

    @pytest.mark.parametrize("x0_mode", ["zero", "random_range", "random_full"])
    def test_null_residual_drift_is_the_equivalence_r2_deviation(self, tmp_path, monkeypatch, x0_mode):
        """Every eigenbasis r2 row is b2, and both measures divide by the largest plain residual of
        the states compared, so null_residual_constant can fail only when equivalence fails."""
        problem = make_problem(ProblemSpec("spsd", (14, 14), tuple(10 * np.geomspace(1, 1e-3, 12)) + (0.0,) * 2,
                                           seed=74, consistency_gap=0.5, x0_mode=x0_mode))
        for name, value in [("a", problem.a), ("b", problem.b.reshape(-1, 1)), ("x0", problem.x0.reshape(-1, 1))]:
            save_matrix_market(tmp_path / f"{name}.mtx", value)
        deviations = []

        def recorded(*args):
            deviations.append(_relative_distance(*args))
            return deviations[-1]

        # equivalence_check measures the blocks x1, x2, r1, r2, p1, p2 in that order
        monkeypatch.setattr(decomposition, "_relative_distance", recorded)
        out = tmp_path / "diag.json"
        assert run_command(["diagnose", "--matrix", str(tmp_path / "a.mtx"), "--rhs", str(tmp_path / "b.mtx"),
                            "--x0", f"file:{tmp_path / 'x0.mtx'}", "--iters", "30", "--out", str(out)]) == 0
        diagnostics = RunReport.from_json(out.read_text()).diagnostics
        assert len(deviations) == 6 and diagnostics["max_null_residual_drift"] == deviations[3]

    def test_an_eigenbasis_residual_of_zero_reads_converged(self, tmp_path):
        # the range residual of diag(2, 1) computes to exactly 0 after two steps, and b2 = 0
        save_matrix_market(tmp_path / "a.mtx", np.diag([2.0, 1.0, 0.0]))
        save_matrix_market(tmp_path / "b.mtx", np.array([[1.0], [1.0], [0.0]]))
        out = tmp_path / "diag.json"
        assert run_command(["diagnose", "--matrix", str(tmp_path / "a.mtx"), "--rhs", str(tmp_path / "b.mtx"),
                            "--iters", "3", "--out", str(out)]) == 0
        report = RunReport.from_json(out.read_text())
        assert report.stop_reason == "converged"
        assert report.diagnostics["decomposed_stop_reason"] == "converged"

    def test_rank_cut_that_keeps_nothing_exits_2(self, spsd_problem, capsys):
        tmp_path, _, _ = spsd_problem
        code = run_command([
            "diagnose", "--matrix", str(tmp_path / "a.mtx"), "--rhs", str(tmp_path / "b.mtx"),
            "--iters", "8", "--rank-tol", "10", "--out", str(tmp_path / "diag.json"),
        ])
        assert code == 2
        assert "numerical rank is 0 at --rank-tol 10" in capsys.readouterr().err
        assert not (tmp_path / "diag.json").exists()

    def test_rank_cut_is_reported_before_an_x0_of_the_wrong_length(self, spsd_problem, capsys):
        tmp_path, _, _ = spsd_problem
        save_matrix_market(tmp_path / "x0.mtx", np.ones((5, 1)))
        code = run_command([
            "diagnose", "--matrix", str(tmp_path / "a.mtx"), "--rhs", str(tmp_path / "b.mtx"),
            "--x0", f"file:{tmp_path / 'x0.mtx'}", "--iters", "8", "--rank-tol", "10",
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: numerical rank is 0 at --rank-tol 10.0: nothing to compare\n")

    @pytest.mark.parametrize("iters", ["0", "-3"])
    def test_iters_below_one_exits_2_before_any_file_is_read(self, tmp_path, capsys, iters):
        missing = str(tmp_path / "missing.mtx")
        assert run_command(["diagnose", "--matrix", missing, "--rhs", missing, "--iters", iters]) == 2
        assert capsys.readouterr().err == f"error: --iters must be at least 1, got {iters}\n"


class TestVerifyBoundsCommand:
    @pytest.mark.parametrize(
        "method,spec_overrides",
        [
            ("cg", {}),
            (
                "cgls",
                {
                    "kind": "rectangular",
                    "dims": [15, 9],
                    "spectrum": list(np.geomspace(1, 0.1, 6)) + [0.0] * 3,
                    "consistency_gap": 0.4,
                },
            ),
            (
                "cgne",
                {
                    "kind": "rectangular",
                    "dims": [9, 15],
                    "spectrum": list(np.geomspace(1, 0.1, 6)) + [0.0] * 3,
                },
            ),
        ],
    )
    def test_bound_passes(self, tmp_path, method, spec_overrides):
        spec_path = _spec_file(tmp_path, **spec_overrides)
        out = tmp_path / "bounds.json"
        code = run_command([
            "verify-bounds", "--method", method, "--spec", str(spec_path),
            "--out", str(out), "--trace-csv", str(tmp_path / "trace.csv"),
        ])
        assert code == 0
        report = RunReport.from_json(out.read_text())
        assert report.passed
        assert report.contraction_factor is not None
        assert len(report.measured) == len(report.bound) == report.iterations + 1
        rows = (tmp_path / "trace.csv").read_text().splitlines()
        assert len(rows) == report.iterations + 2  # header + one row per state

    def test_deterministic_except_timestamp(self, tmp_path):
        spec_path = _spec_file(tmp_path)
        first, second = tmp_path / "r1.json", tmp_path / "r2.json"
        assert run_command(["verify-bounds", "--method", "cg", "--spec", str(spec_path), "--out", str(first)]) == 0
        assert run_command(["verify-bounds", "--method", "cg", "--spec", str(spec_path), "--out", str(second)]) == 0
        d1 = json.loads(first.read_text())
        d2 = json.loads(second.read_text())
        d1.pop("timestamp")
        d2.pop("timestamp")
        assert d1 == d2

    def test_cgne_starts_from_zero_whatever_the_x0_mode(self, tmp_path):
        """The spec's x0 has one entry per column, cgne's y0 one per row, so cgne starts from y0 = 0;
        cgls, on the same specs, starts from the spec's x0."""
        reports = {}
        for method in ("cgne", "cgls"):
            for mode in ("zero", "random_range", "random_full"):
                spec_path = _spec_file(tmp_path, kind="rectangular", dims=[20, 30], seed=5, x0_mode=mode,
                                       spectrum=list(np.geomspace(1, 0.1, 16)) + [0.0] * 4)
                out = tmp_path / f"{method}-{mode}.json"
                assert run_command(["verify-bounds", "--method", method, "--spec", str(spec_path),
                                    "--out", str(out)]) in (0, 1)
                reports[method, mode] = json.loads(out.read_text())
                reports[method, mode].pop("timestamp")
        b = make_problem(ProblemSpec.from_dict(json.loads(spec_path.read_text()))).b
        assert reports["cgne", "zero"]["res_norms"][0] == float(np.linalg.norm(b))
        assert reports["cgne", "zero"] == reports["cgne", "random_range"] == reports["cgne", "random_full"]
        assert reports["cgls", "zero"]["res_norms"][0] != reports["cgls", "random_full"]["res_norms"][0]

    def test_seed_flag_overrides_spec(self, tmp_path):
        spec_path = _spec_file(tmp_path)
        base, overridden = tmp_path / "r1.json", tmp_path / "r2.json"
        run_command(["verify-bounds", "--method", "cg", "--spec", str(spec_path), "--out", str(base)])
        run_command([
            "verify-bounds", "--method", "cg", "--spec", str(spec_path), "--seed", "999",
            "--out", str(overridden),
        ])
        d1 = json.loads(base.read_text())
        d2 = json.loads(overridden.read_text())
        assert d1["res_norms"] != d2["res_norms"]
        assert d2["diagnostics"]["seed"] == 999

    def test_env_seed_override(self, tmp_path, monkeypatch):
        spec_path = _spec_file(tmp_path)
        monkeypatch.setenv("SEMIKRYLOV_SEED", "999")
        out = tmp_path / "env.json"
        run_command(["verify-bounds", "--method", "cg", "--spec", str(spec_path), "--out", str(out)])
        report = json.loads(out.read_text())
        assert report["diagnostics"]["seed"] == 999


class TestGenerateCommand:
    def test_emits_problem_files(self, tmp_path):
        spec_path = _spec_file(tmp_path, consistency_gap=0.25)
        out_dir = tmp_path / "generated"
        code = run_command(["generate", "--spec", str(spec_path), "--out-dir", str(out_dir)])
        assert code == 0
        a = load_matrix_market(out_dir / "a.mtx")
        b = load_matrix_market(out_dir / "b.mtx")[:, 0]
        emitted = json.loads((out_dir / "problem.json").read_text())
        spec = ProblemSpec.from_dict(emitted)
        problem = make_problem(spec)
        np.testing.assert_array_equal(a, problem.a)
        np.testing.assert_array_equal(b, problem.b)
        dec = symmetric_eig(a)
        # generated files feed straight back into the other subcommands
        code = run_command([
            "solve", "--method", "cg", "--matrix", str(out_dir / "a.mtx"),
            "--rhs", str(out_dir / "b.mtx"), "--out", str(tmp_path / "r.json"),
        ])
        assert code == 1  # gap makes the system inconsistent, cg cannot converge
        assert dec.rank == 8

    @pytest.mark.parametrize(
        "payload",
        [[1, 2], "spsd", {"dims": 5}, {"spectrum": None}, {"consistency_gap": None},
         {"dims": [12.5, 12.5]}, {"dims": [True, True], "spectrum": [1.0]}, {"seed": 71.9},
         {"seed": "71"}, {"consistency_gap": False}, {"spectrum": ["1.0"] * 12}, {"seed": -1}],
        ids=["list", "string", "int-dims", "null-spectrum", "null-gap", "float-dims", "bool-dims",
             "float-seed", "string-seed", "bool-gap", "string-spectrum", "negative-seed"],
    )
    def test_malformed_spec_exits_2(self, tmp_path, capsys, payload):
        spec_path = _spec_file(tmp_path)
        if isinstance(payload, dict):
            spec_path.write_text(json.dumps({**json.loads(spec_path.read_text()), **payload}))
        else:
            spec_path.write_text(json.dumps(payload))
        code = run_command(["generate", "--spec", str(spec_path), "--out-dir", str(tmp_path / "g")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_an_integer_too_large_for_a_float_exits_2(self, tmp_path, capsys):
        spec_path = _spec_file(tmp_path, consistency_gap=10**400)
        code = run_command(["generate", "--spec", str(spec_path), "--out-dir", str(tmp_path / "g")])
        assert code == 2
        assert capsys.readouterr().err == ("error: problem spec has a malformed field: "
                                           "int too large to convert to float\n")

    def test_deeply_nested_spec_exits_2(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text("[" * 100_000)
        code = run_command(["generate", "--spec", str(spec_path), "--out-dir", str(tmp_path / "g")])
        assert code == 2
        assert capsys.readouterr().err == "error: problem spec is nested too deeply to parse\n"

    @pytest.mark.parametrize(
        "payload, field",
        [
            ({"dims": [3, 3], "spectrum": [float("inf"), 1, 0]}, "spectrum"),
            ({"dims": [3, 3], "spectrum": [float("nan"), 1, 0]}, "spectrum"),
            ({"consistency_gap": float("inf")}, "consistency_gap"),
            # the spectrum is too short as well, so no version of the check allocates 20000^2
            ({"dims": [20000, 20000]}, "dims"),
        ],
        ids=["inf-spectrum", "nan-spectrum", "inf-gap", "huge-dims"],
    )
    def test_non_finite_or_oversized_spec_exits_2(self, tmp_path, capsys, recwarn, payload, field):
        spec_path = _spec_file(tmp_path, **payload)
        code = run_command(["generate", "--spec", str(spec_path), "--out-dir", str(tmp_path / "g")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {field} ")
        assert "RuntimeWarning" not in err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


class TestRunReportSerialization:
    def test_lossless_round_trip(self, spsd_problem):
        tmp_path, _, _ = spsd_problem
        out = tmp_path / "report.json"
        run_command([
            "solve", "--method", "cg",
            "--matrix", str(tmp_path / "a.mtx"), "--rhs", str(tmp_path / "b.mtx"),
            "--out", str(out),
        ])
        report = RunReport.from_json(out.read_text())
        assert RunReport.from_json(report.to_json()) == report

    @pytest.mark.parametrize("command, square", [
        (["solve", "--method", "cg"], True), (["solve", "--method", "cgls"], False),
        (["solve", "--method", "cgne"], False), (["diagnose", "--iters", "6"], True),
        (["verify-bounds", "--method", "cgls"], False)], ids=["cg", "cgls", "cgne", "diagnose", "verify-bounds"])
    def test_written_texts_match_the_reference_renderers(self, tmp_path, command, square):
        """The report and CSV texts that one formatting pass in _finish gives, against test_report's
        renderers; both problems are inconsistent, so their null residuals grow."""
        spec = (ProblemSpec("spsd", (12, 12), tuple(np.geomspace(1, 0.05, 8)) + (0.0,) * 4, seed=72,
                            consistency_gap=1e-2) if square else
                ProblemSpec("rectangular", (16, 10), tuple(np.geomspace(1, 0.1, 7)) + (0.0,) * 3, seed=73,
                            consistency_gap=0.1))
        problem = make_problem(spec)
        save_matrix_market(tmp_path / "a.mtx", problem.a)
        save_matrix_market(tmp_path / "b.mtx", problem.b.reshape(-1, 1))
        (tmp_path / "spec.json").write_text(json.dumps(spec.to_dict()))
        inputs = (["--spec", str(tmp_path / "spec.json")] if command[0] == "verify-bounds" else
                  ["--matrix", str(tmp_path / "a.mtx"), "--rhs", str(tmp_path / "b.mtx")])
        csv_flag = [] if command[0] == "diagnose" else ["--trace-csv", str(tmp_path / "trace.csv")]
        assert run_command([*command, *inputs, "--out", str(tmp_path / "report.json"), *csv_flag]) in (0, 1)
        text = (tmp_path / "report.json").read_bytes().decode()
        report = RunReport.from_json(text)
        assert report.res_norms and text == reference_to_json(report)
        if csv_flag:
            csv_text = (tmp_path / "trace.csv").read_bytes().decode()
            assert csv_text == reference_trace_csv_text(reference_rows(report))

    def test_atomic_write_replaces_content(self, tmp_path):
        target = tmp_path / "file.txt"
        write_text_atomic(target, "first")
        write_text_atomic(target, "second")
        assert target.read_text() == "second"
        assert list(tmp_path.iterdir()) == [target]

    def test_atomic_write_of_bytes_raises_and_leaves_no_file(self, tmp_path):
        with pytest.raises(TypeError):
            write_text_atomic(tmp_path / "file.txt", b"bytes")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("size", [1, 7, 1 << 20])
    def test_atomic_write_in_slices_keeps_the_text(self, tmp_path, monkeypatch, size):
        monkeypatch.setattr("semikrylov.report._WRITE_SLICE", size)
        text = "".join(f"{k}\n" for k in range(3000))
        write_text_atomic(tmp_path / "t.txt", text)
        assert (tmp_path / "t.txt").read_text() == text

    @pytest.mark.parametrize("target", ["out", "missing/report.json"])
    def test_failed_write_names_only_the_target(self, spsd_problem, capsys, target):
        tmp_path, _, _ = spsd_problem
        (tmp_path / "out").mkdir()
        argv = ["solve", "--method", "cg", "--matrix", str(tmp_path / "a.mtx"),
                "--rhs", str(tmp_path / "b.mtx"), "--out", str(tmp_path / target)]
        errors = []
        for _ in range(2):
            assert run_command(argv) == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0].startswith("error: [Errno ") and errors[0].endswith(f"'{tmp_path / target}'\n")
        assert ".tmp-" not in errors[0]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.mtx", "b.mtx", "out"]
        assert not list((tmp_path / "out").iterdir())


# Inputs for the argv fuzz test; "{d}" is its directory. Every output path lies under it,
# and no flag value creates a directory an input path names.
FUZZ_MATRICES = ["{d}/spsd/a.mtx", "{d}/spsd/b.mtx", "{d}/spsd/x0.mtx", "{d}/gap/b.mtx",
                 "{d}/tall/a.mtx", "{d}/tall/b.mtx", "{d}/wide/a.mtx", "{d}/wide/b.mtx",
                 "{d}/wide/y0.mtx", "{d}/bad/empty", "{d}/bad/binary.mtx", "{d}/bad/complex.mtx",
                 "{d}/bad/short.mtx", "{d}/bad/nan.mtx", "{d}/bad/unsymmetric.mtx",
                 "{d}/spsd.json", "{d}/missing.mtx", "{d}/out"]
FUZZ_SPECS = ["{d}/spsd.json", "{d}/gap.json", "{d}/tall.json", "{d}/wide.json",
              "{d}/noseed.json", "{d}/bad/truncated.json", "{d}/bad/list.json",
              "{d}/bad/types.json", "{d}/bad/nested.json", "{d}/bad/latin1.json",
              "{d}/bad/huge.json", "{d}/bad/empty", "{d}/spsd/a.mtx", "{d}/missing.json", "{d}/out"]
FUZZ_VALUES = {
    "--method": ["cg", "cgls", "cgne", "gmres", ""],
    "--matrix": FUZZ_MATRICES,
    "--rhs": FUZZ_MATRICES,
    "--x0": ["zero", "ones", "", "file:", *(f"file:{path}" for path in FUZZ_MATRICES)],
    "--max-iters": ["1", "5", "40", "0", "-3", "2.5", "x"],
    "--rel-tol": ["1e-8", "1e-300", "0", "-1", "nan", "inf", "x"],
    "--rank-tol": ["1e-10", "0.5", "10", "0", "-1", "nan", "inf", "x"],
    "--iters": ["0", "1", "4", "30", "-1", "x"],
    "--tol": ["1e-8", "0", "-1", "nan", "inf", "x"],
    "--spec": FUZZ_SPECS,
    "--seed": ["0", "3", "-1", str(2**64), "1e3", "x"],
    "--out": ["{d}/out/report.json", "{d}/out", "{d}/missing/report.json"],
    "--trace-csv": ["{d}/out/trace.csv", "{d}/out", "{d}/missing/trace.csv"],
    "--out-dir": ["{d}/out/generated", "{d}/spsd/a.mtx"],
}
# each subcommand's required flags with values that run, then its other flags
FUZZ_BASES = {
    "solve": ["--method", "cg", "--matrix", "{d}/spsd/a.mtx", "--rhs", "{d}/spsd/b.mtx"],
    "diagnose": ["--matrix", "{d}/spsd/a.mtx", "--rhs", "{d}/spsd/b.mtx", "--iters", "4"],
    "verify-bounds": ["--method", "cg", "--spec", "{d}/spsd.json"],
    "generate": ["--spec", "{d}/spsd.json", "--out-dir", "{d}/out/generated"],
}
FUZZ_OPTIONAL = {
    "solve": ["--x0", "--max-iters", "--rel-tol", "--rank-tol", "--out", "--trace-csv"],
    "diagnose": ["--x0", "--tol", "--rank-tol", "--out"],
    "verify-bounds": ["--seed", "--max-iters", "--rel-tol", "--rank-tol", "--out", "--trace-csv"],
    "generate": ["--seed"],
}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    (d / "out").mkdir()
    (d / "bad").mkdir()
    (d / "cwd").mkdir()
    specs = {
        "spsd": {"kind": "spsd", "dims": [6, 6], "spectrum": [1.0, 0.5, 0.2, 0.1, 0.0, 0.0],
                 "seed": 1, "x0_mode": "random_full"},
        "gap": {"kind": "spsd", "dims": [6, 6], "spectrum": [1.0, 0.5, 0.2, 0.1, 0.0, 0.0],
                "seed": 4, "consistency_gap": 0.1},
        "tall": {"kind": "rectangular", "dims": [7, 5], "spectrum": [1.0, 0.5, 0.2, 0.0, 0.0],
                 "seed": 2, "consistency_gap": 0.1},
        "wide": {"kind": "rectangular", "dims": [5, 7], "spectrum": [1.0, 0.5, 0.2, 0.1, 0.0],
                 "seed": 3},
    }
    for name, payload in specs.items():
        (d / f"{name}.json").write_text(json.dumps(payload))
        problem = make_problem(ProblemSpec.from_dict(payload))
        (d / name).mkdir()
        save_matrix_market(d / name / "a.mtx", problem.a)
        save_matrix_market(d / name / "b.mtx", problem.b.reshape(-1, 1))
        save_matrix_market(d / name / "x0.mtx", problem.x0.reshape(-1, 1))
    save_matrix_market(d / "wide" / "y0.mtx", np.ones((5, 1)))
    noseed = {key: value for key, value in specs["spsd"].items() if key != "seed"}
    (d / "noseed.json").write_text(json.dumps(noseed))
    array = "%%MatrixMarket matrix array real general\n"
    files = {
        "empty": "",
        "complex.mtx": "%%MatrixMarket matrix array complex general\n2 1\n1\n2\n",
        "short.mtx": array + "3 1\n1\n2\n",
        "nan.mtx": array + "2 1\n1\nnan\n",
        "unsymmetric.mtx": array + "2 2\n1\n0\n2\n1\n",
        "truncated.json": '{"kind": "spsd",',
        "list.json": "[1, 2]",
        "types.json": '{"kind": "spsd", "dims": "ab", "spectrum": 1, "seed": "x"}',
        "nested.json": "[" * 100_000,
        "huge.json": json.dumps({**specs["spsd"], "dims": [20000, 20000]}),
    }
    for name, text in files.items():
        (d / "bad" / name).write_text(text)
    (d / "bad" / "binary.mtx").write_bytes(bytes(range(256)))
    (d / "bad" / "latin1.json").write_bytes(b"\xff\xfe{")
    return d


@st.composite
def argvs(draw):
    """A subcommand, maybe its required flags, then more flags, most of them its own.

    A value is good three times in four, else drawn from the flag's pool of good
    and bad values; a flag may also lose its value.
    """
    command = draw(st.sampled_from([*FUZZ_BASES] * 4 + ["bogus"]))
    argv = [command]

    def add(flag, good=None):
        argv.append(flag)
        if flag not in FUZZ_VALUES or not draw(st.sampled_from([True] * 9 + [False])):
            return
        bad = good is None or draw(st.sampled_from([False] * 3 + [True]))
        argv.append(draw(st.sampled_from(FUZZ_VALUES[flag])) if bad else good)

    if command in FUZZ_BASES and draw(st.sampled_from([True] * 3 + [False])):
        base = FUZZ_BASES[command]
        for flag, value in zip(base[::2], base[1::2]):
            add(flag, value)
    own = [*FUZZ_BASES.get(command, [])[::2], *FUZZ_OPTIONAL.get(command, [])]
    for _ in range(draw(st.integers(0, 4))):
        add(draw(st.sampled_from(own * 4 + [*FUZZ_VALUES, "--help", "--bogus", "extra"])))
    return argv


def _run_fuzzed(fuzz_dir, argv, seed_env=None):
    """run_command(argv) from fuzz_dir/cwd, so that a relative path such as a stray value
    ``extra`` lands there; returns the exit code and stderr."""
    argv = [arg.replace("{d}", str(fuzz_dir)) for arg in argv]
    saved = os.environ.pop(SEED_ENV, None)
    if seed_env is not None:
        os.environ[SEED_ENV] = seed_env
    out, err = io.StringIO(), io.StringIO()
    launch = os.getcwd()
    try:
        os.chdir(fuzz_dir / "cwd")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_command(argv)
    finally:
        os.chdir(launch)
        os.environ.pop(SEED_ENV, None)
        if saved is not None:
            os.environ[SEED_ENV] = saved
    return code, err.getvalue()


class TestArgvFuzz:
    """Whatever the argv, run_command returns 0, 1 or 2 and raises nothing.

    All examples run in one process, so they also exercise the shared parser.
    """

    def test_a_stray_value_writes_into_the_fuzz_directory(self, fuzz_dir):
        launch = Path.cwd()
        before = sorted(launch.iterdir())
        code, _ = _run_fuzzed(fuzz_dir, ["generate", "--spec", "{d}/spsd.json", "--out-dir", "extra"])
        assert code == 0
        assert (fuzz_dir / "cwd" / "extra" / "a.mtx").is_file()
        assert Path.cwd() == launch and sorted(launch.iterdir()) == before

    @settings(max_examples=400, deadline=None)
    @given(argv=argvs(), seed_env=st.sampled_from([None, "9", "abc"]))
    def test_exit_code_is_0_1_or_2(self, fuzz_dir, argv, seed_env):
        code, err = _run_fuzzed(fuzz_dir, argv, seed_env)
        assert code in (0, 1, 2), argv
        if code == 2:
            assert "error: " in err, argv
        assert not list(fuzz_dir.rglob(".tmp-*")), argv


def _load_script(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ROOT = Path(__file__).resolve().parent.parent
tracing = _load_script(ROOT / "bench" / "tracing.py")
golden_script = _load_script(ROOT / "tests" / "data" / "make_golden_reports.py")
CLI_SITES = [name for module, name, _ in tracing.WRAP_SITES
             if module == "semikrylov.cli" and name != "run_command"]


@pytest.mark.parametrize("method", ["cg", "cgls", "cgne"])
def test_rhs_null_norm_is_the_consistency_check(tmp_path, method):
    """solve's final_distances.rhs_null_norm is consistency_check's null_norm on the same files."""
    problem = make_problem(ProblemSpec.from_dict(golden_script.SPECS["gap"]))
    save_matrix_market(tmp_path / "a.mtx", problem.a)
    save_matrix_market(tmp_path / "b.mtx", problem.b.reshape(-1, 1))
    out = tmp_path / "report.json"
    assert run_command(["solve", "--method", method, "--matrix", str(tmp_path / "a.mtx"),
                        "--rhs", str(tmp_path / "b.mtx"), "--out", str(out)]) in (0, 1)
    a, b = load_matrix_market(tmp_path / "a.mtx"), load_matrix_market(tmp_path / "b.mtx")[:, 0]
    dec = symmetric_eig(a) if method == "cg" else svd(a)
    assert RunReport.from_json(out.read_text()).final_distances["rhs_null_norm"] == consistency_check(dec, b).null_norm


def test_every_traced_cli_name_is_called_through_the_module(tmp_path, monkeypatch):
    """The benchmark's tracer wraps each name that cli imports, on the cli module itself.

    A call that bypasses the module global (say, a table of functions built at
    import) would drop out of the trace; so every wrapped name must run at least
    once over the golden cases that are not errors.
    """
    assert len(CLI_SITES) == 19
    calls = dict.fromkeys(CLI_SITES, 0)
    for name in CLI_SITES:
        def counted(*args, _name=name, _fn=getattr(cli, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)
    monkeypatch.delenv(SEED_ENV, raising=False)
    golden_script.write_inputs(tmp_path)
    cases = [(name, argv) for name, argv, env in golden_script.CASES
             if not name.startswith("error_") and not env]
    assert len(cases) == 19
    for name, argv in cases:
        assert golden_script.run_case(tmp_path, argv)["exit"] in (0, 1), name
    assert [name for name, count in calls.items() if count == 0] == []


def test_method_table_keys_are_the_method_choices():
    """--method offers exactly the table's rows, in the order cg, cgls, cgne, on every command that takes it."""
    subcommands = next(action for action in cli.build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction)).choices
    for command in ("solve", "verify-bounds"):
        method = next(action for action in subcommands[command]._actions if action.dest == "method")
        assert list(method.choices) == list(cli._methods()) == ["cg", "cgls", "cgne"], command
    assert [name for name, parser in subcommands.items()
            if any(action.dest == "method" for action in parser._actions)] == ["solve", "verify-bounds"]


@pytest.mark.parametrize("command, x0_length", [("solve", 16), ("diagnose", 10)])
def test_matrix_is_checked_before_the_start_vector(tmp_path, capsys, command, x0_length):
    """A report command decomposes A before it reads --x0, so a 16x10 A is named as the fault.

    The --x0 file has the length the command would expect of a square A (its
    column count for solve, its row count for diagnose) but not of this one.
    """
    save_matrix_market(tmp_path / "a.mtx", np.arange(160.0).reshape(16, 10))
    save_matrix_market(tmp_path / "b.mtx", np.ones((16, 1)))
    save_matrix_market(tmp_path / "x0.mtx", np.ones((x0_length, 1)))
    argv = [command, "--matrix", str(tmp_path / "a.mtx"), "--rhs", str(tmp_path / "b.mtx"),
            "--x0", f"file:{tmp_path / 'x0.mtx'}"]
    argv += ["--method", "cg"] if command == "solve" else ["--iters", "4"]
    assert run_command(argv) == 2
    assert capsys.readouterr().err == "error: matrix must be square, got 16x10\n"


@pytest.mark.parametrize("start, stop_reason", [("xstar", "converged"), ("null_rhs", "breakdown")])
def test_diagnose_with_nothing_to_compare_names_the_cause(tmp_path, capsys, start, stop_reason):
    """A start that already solves the system, or a b in the null space, stops the plain run at 0."""
    assert run_command(["generate", "--spec", str(_spec_file(tmp_path)),
                        "--out-dir", str(tmp_path / "prob")]) == 0
    prob = tmp_path / "prob"
    argv = ["diagnose", "--matrix", str(prob / "a.mtx"), "--iters", "5"]
    if start == "xstar":
        argv += ["--rhs", str(prob / "b.mtx"), "--x0", f"file:{prob / 'xstar.mtx'}"]
    else:
        null = symmetric_eig(load_matrix_market(prob / "a.mtx")).q2[:, :1]
        save_matrix_market(tmp_path / "null.mtx", null.copy())
        argv += ["--rhs", str(tmp_path / "null.mtx")]
    capsys.readouterr()
    assert run_command(argv) == 2
    assert capsys.readouterr().err == (
        f"error: the plain run left nothing to compare: it stopped at iteration 0 ({stop_reason})\n")


def test_diagnose_of_a_one_step_run_names_the_orthogonality_test(tmp_path, capsys):
    """On an orthogonal projector CG converges in one step: r_1 is rounding noise, not orthogonal
    to r_0, so the comparison window holds no iteration."""
    spec = _spec_file(tmp_path, dims=[16, 16], spectrum=[1.0] * 10 + [0.0] * 6, seed=1,
                      x0_mode="random_full")
    assert run_command(["generate", "--spec", str(spec), "--out-dir", str(tmp_path / "prob")]) == 0
    prob = tmp_path / "prob"
    capsys.readouterr()
    assert run_command(["diagnose", "--matrix", str(prob / "a.mtx"), "--rhs", str(prob / "b.mtx"),
                        "--x0", f"file:{prob / 'x0.mtx'}", "--iters", "5"]) == 2
    assert capsys.readouterr().err == ("error: the plain run left nothing to compare: "
                                       "its residuals lose orthogonality past 1e-10 at iteration 1\n")


def test_diagnose_where_the_eigenbasis_residual_underflows_exits_2(tmp_path, capsys):
    """On 1000 A, A = I from a 4 x 4 spec, the eigenbasis run, whose stop tolerance is 0, drives r.r
    to 0; it stops there, "converged", rather than divide 0 by 0, so diagnose names the cause."""
    problem = make_problem(ProblemSpec("spsd", (4, 4), (1.0,) * 4, seed=0))
    save_matrix_market(tmp_path / "a.mtx", 1000.0 * problem.a)
    save_matrix_market(tmp_path / "b.mtx", (1000.0 * problem.b).reshape(-1, 1))
    assert run_command(["diagnose", "--matrix", str(tmp_path / "a.mtx"), "--rhs", str(tmp_path / "b.mtx"),
                        "--iters", "40"]) == 2
    assert capsys.readouterr().err == ("error: the plain run left nothing to compare: "
                                       "its residuals lose orthogonality past 1e-10 at iteration 1\n")


RANK_0_CASES = [("cg", "spsd"), ("cgls", "tall"), ("cgls", "wide"), ("cgne", "tall"),
                ("cgne", "wide")]


@pytest.mark.parametrize("method, problem", RANK_0_CASES)
def test_solve_reports_a_rank_cut_that_keeps_nothing(tmp_path, method, problem):
    """--rank-tol 10 leaves rank 0: no spectral summary, and no residual in the range."""
    golden_script.write_inputs(tmp_path)
    out = tmp_path / "report.json"
    code = run_command(["solve", "--method", method, "--matrix", str(tmp_path / problem / "a.mtx"),
                        "--rhs", str(tmp_path / problem / "b.mtx"), "--rank-tol", "10",
                        "--out", str(out)])
    assert code in (0, 1)
    report = RunReport.from_json(out.read_text())
    assert report.rank == 0
    assert report.spectral_summary == {}
    assert len(report.range_res_norms) == report.iterations + 1
    assert set(report.range_res_norms) == {0.0}


@pytest.mark.parametrize("method, spec", [("cg", "spsd"), ("cgls", "tall"), ("cgne", "wide")])
def test_verify_bounds_at_rank_0_exits_2(tmp_path, capsys, method, spec):
    golden_script.write_inputs(tmp_path)
    assert run_command(["verify-bounds", "--method", method, "--spec",
                        str(tmp_path / "specs" / f"{spec}.json"), "--rank-tol", "10"]) == 2
    assert capsys.readouterr().err == "error: bound undefined for a zero-rank matrix\n"


def test_the_console_entry_point_exits_with_the_command_code(tmp_path, monkeypatch):
    """``semikrylov``, which runs ``cli.main``, exits 0 on a generate and 2 on a solve without flags."""
    generate = ["generate", "--spec", str(_spec_file(tmp_path)), "--out-dir", str(tmp_path / "g")]
    for argv, code in [(generate, 0), (["solve"], 2)]:
        monkeypatch.setattr(sys, "argv", ["semikrylov", *argv])
        with pytest.raises(SystemExit) as exc:
            cli.main()
        assert exc.value.code == code, argv


def test_the_cli_module_runs_as_a_script(tmp_path):
    """``python -m semikrylov.cli`` runs the module's ``__main__`` guard."""
    argv = ["generate", "--spec", str(_spec_file(tmp_path)), "--out-dir", str(tmp_path / "g")]
    done = subprocess.run([sys.executable, "-m", "semikrylov.cli", *argv], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [str(tmp_path / "g" / name) for name in
                                        ("a.mtx", "b.mtx", "x0.mtx", "xstar.mtx", "problem.json")]
