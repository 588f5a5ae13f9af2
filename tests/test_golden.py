"""Replay the seeded families of tests/data and compare with the stored golden traces.

The golden file was written by tests/data/make_golden_traces.py before the
solvers shared one recurrence. Runs stop at 15 iterations, inside the window
where finite precision still follows exact arithmetic, so the tolerances
only have to absorb rounding differences between BLAS builds.
"""

import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from semikrylov.genmat import make_problem

DATA = Path(__file__).parent / "data"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, DATA / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden_script = _load("make_golden_traces")
compare_trees = _load("compare_trees")

SCALAR_FIELDS = ("alphas", "betas", "res_norms", "normal_res_norms")
RTOL = {"cg": 1e-13, "cgls": 1e-13, "cgne": 1e-12, "decomposed": 1e-9}


@pytest.fixture(scope="module")
def golden():
    with np.load(DATA / "golden_traces.npz") as stored:
        return {key: stored[key] for key in stored.files}


def _row_devs(got, want, scale):
    """Per-state deviation ||got_k - want_k|| / scale_k (0 where both are zero)."""
    diff = np.linalg.norm(np.atleast_2d(got - want), axis=-1)
    return np.divide(diff, scale, out=np.where(diff > 0.0, np.inf, 0.0), where=scale > 0.0)


def _assert_matches(got, want, rtol, what):
    got = np.asarray(got, dtype=np.float64)
    assert got.shape == want.shape, what
    if what.split(".")[-1] in SCALAR_FIELDS:
        np.testing.assert_allclose(got, want, rtol=rtol, atol=0.0, err_msg=what)
        return
    scale = np.linalg.norm(np.atleast_2d(want), axis=-1)
    assert _row_devs(got, want, scale).max(initial=0.0) <= rtol, what


@pytest.mark.parametrize("family", sorted(golden_script.FAMILIES))
def test_solver_traces_match_golden(golden, family):
    problem = make_problem(golden_script.FAMILIES[family])
    for method, trace in golden_script.solver_runs(family, problem):
        prefix = f"{family}.{method}"
        assert trace.stop_reason == str(golden[f"{prefix}.stop_reason"])
        for field in golden_script.SOLVE_FIELDS:
            key = f"{prefix}.{field}"
            value = getattr(trace, field)
            assert (value is None) == (key not in golden), key
            if value is not None:
                _assert_matches(value, golden[key], RTOL[method], key)


@pytest.mark.parametrize("family", ["spsd_consistent", "spsd_inconsistent"])
def test_decomposed_run_matches_golden(golden, family):
    fields = golden_script.decomposed_fields(make_problem(golden_script.FAMILIES[family]))
    prefix = f"{family}.decomposed"
    rtol = RTOL["decomposed"]
    assert fields["stop_reason"] == str(golden[f"{prefix}.stop_reason"])
    for field in ("alphas", "betas"):
        _assert_matches(fields[field], golden[f"{prefix}.{field}"], rtol, f"{prefix}.{field}")
    # each block is measured against the whole vector it belongs to, because a
    # null block can be pure rounding noise (r2 when b is consistent)
    for name in "xrp":
        want1, want2 = golden[f"{prefix}.{name}1"], golden[f"{prefix}.{name}2"]
        scale = np.linalg.norm(want1 + want2, axis=1)
        for block, want in ((f"{name}1", want1), (f"{name}2", want2)):
            assert fields[block].shape == want.shape
            assert _row_devs(fields[block], want, scale).max() <= rtol, f"{prefix}.{block}"


def _replay(*argv):
    return [sys.executable, str(DATA / "replay_krylov_traces.py"), "--seeds", "907", *argv]


def test_krylov_traces_replay_is_deterministic():
    """One cycle of the replay tool, twice: the same bytes, one row per operation after its solver's rerun."""
    first, second = (subprocess.run(_replay("--cycles", "1"), capture_output=True, check=True).stdout
                     for _ in range(2))
    assert first == second
    rows = [json.loads(line) for line in first.splitlines()]
    assert [row[0] for row in rows[0::2]] == ["cg_solve", "cg_solve", "cgls_solve", "cgls_solve", "cgne_solve"]
    records = rows[1::2]
    assert [kind for _, _, kind, *_ in records] == [
        "cg_consistent", "cg_inconsistent", "cgls_consistent", "cgls_inconsistent", "cgne"]
    assert all(seed == 907 and cycle == 0 for seed, cycle, *_ in records)
    *_, stop_reason, _, passed = records[0]
    assert stop_reason == "converged" and passed


def _peak_mb(argv) -> float:
    """The max RSS of ``argv`` run as a child process, in MB."""
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0
    return usage.ru_maxrss / 1024


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is read in kB, as Linux reports it")
def test_replay_memory_does_not_grow_with_cycles():
    """The replay keeps no result once its row is printed: 18 more cycles cost less than one cycle's records,
    whose five results (every SolveTrace history and report) pickle to 2.8 MB at seed 907."""
    assert _peak_mb(_replay("--cycles", "20")) - _peak_mb(_replay("--cycles", "2")) < 2.8


def test_compare_trees_pairs_records_by_key():
    """A record found in one tree only is named and counted as differing, and no other record is blamed."""
    def row(kind, digest, iterations=10):
        return [kind, digest, "converged", iterations, True]

    old = {(907, 0, "cg"): row("cg", "a"), (907, 1, "cg"): row("cg", "b"), (907, 1, "cgne"): row("cgne", "c")}
    new = {(907, 1, "cg"): row("cg", "b"), (907, 1, "cgne"): row("cgne", "d", 8), (907, 2, "cgls"): row("cgls", "e")}
    assert compare_trees._kinds(old, new) == [
        "cg: 1 of 2 records differ; stop reasons converged x2 / converged x1; iterations 20 / 10",
        "cgls: 1 of 1 records differ; stop reasons none / converged x1; iterations 0 / 10",
        "cgne: 1 of 1 records differ; stop reasons converged x1 / converged x1; iterations 10 / 8",
        "only in parent: 907/0/cg",
        "only in change: 907/2/cgls",
    ]
    assert compare_trees._kinds(old, old) == []


def test_compare_trees_keys_each_rerun_by_the_operation_after_it(tmp_path):
    rows = tmp_path / "rows"
    rows.write_text("\n".join(json.dumps(row) for row in (
        ["cg_solve", "a", "converged", 9], [907, 0, "cg", "b", "converged", 9, True],
        ["cgne_solve", "c", "breakdown", 4], [907, 1, "cgne", "d", "breakdown", 4, False])) + "\n")
    assert compare_trees._rows(rows) == (
        {(907, 0, "cg"): ["cg", "b", "converged", 9, True], (907, 1, "cgne"): ["cgne", "d", "breakdown", 4, False]},
        {(907, 0, "cg", 0): ["cg_solve", "a", "converged", 9], (907, 1, "cgne", 0): ["cgne_solve", "c", "breakdown", 4]})


@pytest.mark.parametrize("argv", [
    [str(DATA / "compare_trees.py"), ".", ".", "--seeds", "907", "--cycles", "0"],
    [str(DATA / "replay_krylov_traces.py"), "--seeds", "907", "--cycles", "-3"],
], ids=["compare_trees", "replay_krylov_traces"])
def test_a_cycle_count_below_one_is_refused(argv):
    done = subprocess.run([sys.executable, *argv], capture_output=True, text=True)
    assert done.returncode == 2 and "--cycles must be at least 1" in done.stderr and not done.stdout


def test_loop_step_times_compares_a_checkout_with_itself(tmp_path):
    script, root = str(DATA / "loop_step_times.py"), str(DATA.parent.parent)
    done = subprocess.run([sys.executable, script, root, root, "--repeats", "2"], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    head, *rows = done.stdout.splitlines()
    assert head.split() == ["loop", "parent", "us/iter", "change", "us/iter", "change/parent"]
    assert [row.split()[0] for row in rows] == ["cg", "cgls", "cgne", "eigenbasis"]
    assert all(float(value) > 0 for row in rows for value in row.split()[1:])
    for argv, message in [(["--repeats", "0"], "--repeats must be at least 1"),
                          (["--repeats", "1"], f"error: {tmp_path} failed to run")]:
        done = subprocess.run([sys.executable, script, str(tmp_path), root, *argv], capture_output=True, text=True)
        assert done.returncode == 2 and message in done.stderr and not done.stdout


def test_compare_trees_finds_a_changed_golden_output(tmp_path):
    """The checkout against itself, then against a copy with one changed line that alters reports,
    then with a second that shortens the solver runs."""
    root = DATA.parent.parent
    artifacts = ["golden", "text", "replay", "unrecorded", "mtx", "read", "scale", "api", "help solve",
                 "help diagnose", "help verify-bounds", "help generate"]

    def compare(change):
        argv = [sys.executable, str(DATA / "compare_trees.py"), str(root), str(change),
                "--seeds", "907", "--cycles", "1"]
        done = subprocess.run(argv, capture_output=True, text=True)
        return done.returncode, done.stdout.splitlines()

    assert compare(root) == (0, [f"{name}: equal" for name in artifacts])
    copy = tmp_path / "copy"
    for part in ("src", "bench"):
        shutil.copytree(root / part, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
    cli_py = copy / "src" / "semikrylov" / "cli.py"
    line = "\nORACLE_MATCH_TOL = 1e-6\n"
    assert cli_py.read_text().count(line) == 1
    # with a zero tolerance no solve report matches the oracle
    cli_py.write_text(cli_py.read_text().replace(line, "\nORACLE_MATCH_TOL = 0.0\n"))
    code, lines = compare(copy)
    assert code == 1
    assert lines[0] == "golden: differs"
    assert lines[1].startswith("  cases: solve_cg, ")
    # the report files that golden compares parsed differ as text too; no CSV trace changes
    assert lines[2] == "text: differs"
    assert lines[3].startswith("  cases: solve_cg (--out), ") and "csv" not in lines[3]
    assert lines[4:] == [f"{name}: equal" for name in artifacts[2:]]

    # a looser default stop: the krylov_traces solves that converge do so sooner
    solvers_py = copy / "src" / "semikrylov" / "solvers.py"
    line = "    rel_tol: float = 1e-12\n"
    assert solvers_py.read_text().count(line) == 1
    solvers_py.write_text(solvers_py.read_text().replace(line, "    rel_tol: float = 1e-6\n"))
    code, lines = compare(copy)
    assert code == 1
    replay, unrecorded = lines.index("replay: differs"), lines.index("unrecorded: differs")
    assert lines[unrecorded + 1].startswith("  cg_solve: ")
    pattern = r"  (\w+): \d+ of \d+ records differ; stop reasons (.+) / (.+); iterations (\d+) / (\d+)"
    kinds = [re.fullmatch(pattern, line) for line in lines[replay + 1:unrecorded]]
    assert "cg_consistent" in [kind[1] for kind in kinds if kind]
    for kind in kinds:
        assert kind and kind[2] == kind[3] and int(kind[5]) < int(kind[4]), kind
