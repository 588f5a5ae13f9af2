import contextlib
import io
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semikrylov.cli import SEED_ENV, run_command
from semikrylov.genmat import ProblemSpec, make_problem
from semikrylov.linalg import symmetric_eig
from semikrylov.mmio import load_matrix_market, save_matrix_market, write_matrix_market
from semikrylov.report import RunReport, write_text_atomic
from semikrylov.solvers import SolverConfig, cg_solve


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

    def test_rank_cut_that_keeps_nothing_exits_2(self, spsd_problem, capsys):
        tmp_path, _, _ = spsd_problem
        code = run_command([
            "diagnose", "--matrix", str(tmp_path / "a.mtx"), "--rhs", str(tmp_path / "b.mtx"),
            "--iters", "8", "--rank-tol", "10", "--out", str(tmp_path / "diag.json"),
        ])
        assert code == 2
        assert "numerical rank is 0 at --rank-tol 10" in capsys.readouterr().err
        assert not (tmp_path / "diag.json").exists()


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
        [[1, 2], "spsd", {"dims": 5}, {"spectrum": None}, {"consistency_gap": None}],
        ids=["list", "string", "int-dims", "null-spectrum", "null-gap"],
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

    def test_atomic_write_replaces_content(self, tmp_path):
        target = tmp_path / "file.txt"
        write_text_atomic(target, "first")
        write_text_atomic(target, "second")
        assert target.read_text() == "second"
        assert list(tmp_path.iterdir()) == [target]

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


class TestArgvFuzz:
    """Whatever the argv, run_command returns 0, 1 or 2 and raises nothing.

    All examples run in one process, so they also exercise the shared parser.
    """

    @settings(max_examples=400, deadline=None)
    @given(argv=argvs(), seed_env=st.sampled_from([None, "9", "abc"]))
    def test_exit_code_is_0_1_or_2(self, fuzz_dir, argv, seed_env):
        argv = [arg.replace("{d}", str(fuzz_dir)) for arg in argv]
        saved = os.environ.pop(SEED_ENV, None)
        if seed_env is not None:
            os.environ[SEED_ENV] = seed_env
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run_command(argv)
        finally:
            os.environ.pop(SEED_ENV, None)
            if saved is not None:
                os.environ[SEED_ENV] = saved
        assert code in (0, 1, 2), argv
        if code == 2:
            assert "error: " in err.getvalue(), argv
        assert not list(fuzz_dir.rglob(".tmp-*")), argv
