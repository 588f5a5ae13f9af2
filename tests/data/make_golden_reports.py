"""Write golden_reports.json: CLI outputs on small seeded inputs, replayed by test_cli_golden.py.

Run from the repository root with ``PYTHONPATH=src python tests/data/make_golden_reports.py``
(an optional argument names another output path). Every case is one
``run_command`` call in a directory that ``write_inputs`` filled. A case
records the exit code, stdout and stderr, the JSON report without its
``timestamp`` (read from ``--out``, or parsed from stdout when ``--out`` is
absent), the CSV trace text, and for ``generate`` the ``problem.json`` it
wrote. The directory's path is stored as ``{tmp}``. The ``.mtx`` bodies that
``generate`` writes are left out; their round trip is tested elsewhere.

The file is recorded at the BLAS thread count the host gives (OpenBLAS reads
``OPENBLAS_NUM_THREADS``). Reports reproduce at one thread count; another
count can sum in another order and move the floats of a long run.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from semikrylov.cli import SEED_ENV, run_command
from semikrylov.genmat import ProblemSpec, make_problem
from semikrylov.mmio import save_matrix_market

SPECTRUM_12 = np.geomspace(1.0, 0.05, 8).tolist() + [0.0] * 4
SPECTRUM_10 = np.geomspace(1.0, 0.1, 7).tolist() + [0.0] * 3
SPECS = {
    "spsd": {"kind": "spsd", "dims": [12, 12], "spectrum": SPECTRUM_12, "seed": 71,
             "x0_mode": "random_full"},
    "gap": {"kind": "spsd", "dims": [12, 12], "spectrum": SPECTRUM_12, "seed": 72,
            "consistency_gap": 1e-2},
    "tall": {"kind": "rectangular", "dims": [16, 10], "spectrum": SPECTRUM_10, "seed": 73,
             "consistency_gap": 0.1, "x0_mode": "random_full"},
    "wide": {"kind": "rectangular", "dims": [10, 16], "spectrum": SPECTRUM_10, "seed": 74,
             "x0_mode": "random_range"},
}
EXTRA_SPECS = {
    "noseed": {"kind": "spsd", "dims": [8, 8], "spectrum": [1.0, 0.5, 0.25, 0.1] + [0.0] * 4},
    "missing": {"kind": "spsd", "dims": [8, 8], "seed": 1},
    "not_square": {"kind": "spsd", "dims": [8, 6], "spectrum": [1.0] * 6, "seed": 1},
    "full_rank_gap": {"kind": "spsd", "dims": [4, 4], "spectrum": [1.0, 0.5, 0.25, 0.1],
                      "seed": 1, "consistency_gap": 0.1},
}


def write_inputs(tmp: Path) -> None:
    """Spec files, the seeded problems as .mtx files, and a few broken inputs."""
    (tmp / "specs").mkdir()
    (tmp / "out").mkdir()
    for name, payload in {**SPECS, **EXTRA_SPECS}.items():
        (tmp / "specs" / f"{name}.json").write_text(json.dumps(payload, indent=2))
    (tmp / "specs" / "broken.json").write_text('{"kind": "spsd",')
    for name, payload in SPECS.items():
        problem = make_problem(ProblemSpec.from_dict(payload))
        (tmp / name).mkdir()
        save_matrix_market(tmp / name / "a.mtx", problem.a)
        save_matrix_market(tmp / name / "b.mtx", problem.b.reshape(-1, 1))
        save_matrix_market(tmp / name / "x0.mtx", problem.x0.reshape(-1, 1))
    save_matrix_market(tmp / "wide" / "y0.mtx", np.linspace(-1.0, 1.0, 10).reshape(-1, 1))
    (tmp / "bad.mtx").write_text("%%MatrixMarket matrix array real general\n2 2\n1\n2\nx\n4\n")


def _solve(method, problem, *extra):
    return ["solve", "--method", method, "--matrix", f"{{tmp}}/{problem}/a.mtx",
            "--rhs", f"{{tmp}}/{problem}/b.mtx", *extra]


def _diagnose(problem, *extra):
    return ["diagnose", "--matrix", f"{{tmp}}/{problem}/a.mtx",
            "--rhs", f"{{tmp}}/{problem}/b.mtx", *extra]


def _verify(method, spec, *extra):
    return ["verify-bounds", "--method", method, "--spec", f"{{tmp}}/specs/{spec}.json", *extra]


def _outputs(name, csv=False):
    out = ["--out", f"{{tmp}}/out/{name}.json"]
    return out + (["--trace-csv", f"{{tmp}}/out/{name}.csv"] if csv else [])


# (name, argv, environment); SEMIKRYLOV_SEED is unset unless the case sets it, and
# COLUMNS fixes the width argparse wraps its usage message to
CASES = [
    ("generate_spsd", ["generate", "--spec", "{tmp}/specs/spsd.json",
                       "--out-dir", "{tmp}/out/generate_spsd"], {}),
    ("generate_seed_flag", ["generate", "--spec", "{tmp}/specs/tall.json", "--seed", "5",
                            "--out-dir", "{tmp}/out/generate_seed_flag"], {}),
    ("generate_env_seed", ["generate", "--spec", "{tmp}/specs/noseed.json",
                           "--out-dir", "{tmp}/out/generate_env_seed"], {SEED_ENV: "9"}),
    ("solve_cg", _solve("cg", "spsd", "--x0", "zero", *_outputs("solve_cg", csv=True)), {}),
    ("solve_cg_x0_file", _solve("cg", "spsd", "--x0", "file:{tmp}/spsd/x0.mtx",
                                *_outputs("solve_cg_x0_file", csv=True)), {}),
    ("solve_cg_max_iters", _solve("cg", "spsd", "--max-iters", "5",
                                  *_outputs("solve_cg_max_iters", csv=True)), {}),
    ("solve_cg_tols_stdout", _solve("cg", "spsd", "--rel-tol", "1e-6", "--rank-tol", "1e-8"), {}),
    ("solve_cg_inconsistent", _solve("cg", "gap", *_outputs("solve_cg_inconsistent", csv=True)),
     {}),
    ("solve_cgls", _solve("cgls", "tall", "--x0", "file:{tmp}/tall/x0.mtx",
                          *_outputs("solve_cgls", csv=True)), {}),
    ("solve_cgls_wide_stdout", _solve("cgls", "wide"), {}),
    ("solve_cgne", _solve("cgne", "wide", "--x0", "file:{tmp}/wide/y0.mtx",
                          *_outputs("solve_cgne", csv=True)), {}),
    ("solve_cgne_inconsistent", _solve("cgne", "tall", "--max-iters", "20",
                                       *_outputs("solve_cgne_inconsistent", csv=True)), {}),
    ("diagnose_consistent", _diagnose("spsd", "--iters", "6", *_outputs("diagnose_consistent")),
     {}),
    ("diagnose_inconsistent", _diagnose("gap", "--iters", "6",
                                        *_outputs("diagnose_inconsistent")), {}),
    ("diagnose_stdout", _diagnose("spsd", "--x0", "file:{tmp}/spsd/x0.mtx", "--iters", "4",
                                  "--tol", "1e-9", "--rank-tol", "1e-8"), {}),
    ("verify_cg", _verify("cg", "spsd", *_outputs("verify_cg", csv=True)), {}),
    ("verify_cgls", _verify("cgls", "tall", *_outputs("verify_cgls", csv=True)), {}),
    ("verify_cgne", _verify("cgne", "wide", *_outputs("verify_cgne", csv=True)), {}),
    ("verify_cg_seed_stdout", _verify("cg", "spsd", "--seed", "3"), {}),
    ("verify_cgls_tols", _verify("cgls", "tall", "--max-iters", "3", "--rel-tol", "1e-6",
                                 "--rank-tol", "1e-8", *_outputs("verify_cgls_tols")), {}),
    ("verify_env_seed", _verify("cgne", "noseed", *_outputs("verify_env_seed", csv=True)),
     {SEED_ENV: "9"}),
    ("error_usage", ["solve", "--matrix", "{tmp}/spsd/a.mtx"], {"COLUMNS": "80"}),
    ("error_missing_file", _solve("cg", "nowhere"), {}),
    ("error_malformed_matrix", ["solve", "--method", "cg", "--matrix", "{tmp}/bad.mtx",
                                "--rhs", "{tmp}/spsd/b.mtx"], {}),
    ("error_x0_flag", _solve("cg", "spsd", "--x0", "ones"), {}),
    ("error_x0_length", _solve("cgne", "wide", "--x0", "file:{tmp}/spsd/x0.mtx"), {}),
    ("error_rhs_not_vector", ["solve", "--method", "cg", "--matrix", "{tmp}/spsd/a.mtx",
                              "--rhs", "{tmp}/spsd/a.mtx"], {}),
    ("error_diagnose_not_square", _diagnose("tall", "--iters", "3"), {}),
    ("error_no_seed", _verify("cg", "noseed"), {}),
    ("error_env_seed", _verify("cg", "noseed"), {SEED_ENV: "abc"}),
    ("error_spec_missing_field", _verify("cg", "missing"), {}),
    ("error_spec_not_square", ["generate", "--spec", "{tmp}/specs/not_square.json",
                               "--out-dir", "{tmp}/out/error_spec_not_square"], {}),
    ("error_spec_full_rank_gap", _verify("cg", "full_rank_gap"), {}),
    ("error_spec_not_json", _verify("cg", "broken"), {}),
    ("error_spec_not_found", _verify("cg", "nowhere"), {}),
]


def _option(argv, flag):
    return argv[argv.index(flag) + 1] if flag in argv else None


def run_case(tmp: Path, argv: list[str]) -> dict:
    """Run one invocation in-process (the environment already set) and collect what it wrote."""
    argv = [arg.replace("{tmp}", str(tmp)) for arg in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = run_command(argv)
    record = {"exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(),
              "report": None, "csv": None, "problem_json": None}
    out, csv_path, out_dir = (_option(argv, flag) for flag in ("--out", "--trace-csv", "--out-dir"))
    if argv[0] != "generate" and code in (0, 1):
        if out is None:
            record["report"], record["stdout"] = json.loads(record["stdout"]), None
        else:
            record["report"] = json.loads(Path(out).read_text())
        assert isinstance(record["report"].pop("timestamp"), str)
    if csv_path is not None and code in (0, 1):
        record["csv"] = Path(csv_path).read_text()
    if out_dir is not None and code == 0:
        record["problem_json"] = Path(out_dir, "problem.json").read_text()
    return {key: value.replace(str(tmp), "{tmp}") if isinstance(value, str) else value
            for key, value in record.items()}


def main():
    target = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).with_name(
        "golden_reports.json")
    base = {key: value for key, value in os.environ.items() if key != SEED_ENV}
    cases = []
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp))
        for name, argv, env in CASES:
            os.environ.clear()
            os.environ.update(base, **env)
            cases.append({"name": name, "argv": argv, "env": env, **run_case(Path(tmp), argv)})
    target.write_text(json.dumps(cases, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(cases)} cases to {target}")


if __name__ == "__main__":
    main()
