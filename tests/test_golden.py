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
    """One cycle of the replay tool, twice: the same bytes, and each operation's row after its solver's rerun,
    which carries the operation's key and its place among the operation's calls."""
    first, second = (subprocess.run(_replay("--cycles", "1"), capture_output=True, check=True).stdout
                     for _ in range(2))
    assert first == second
    rows = [json.loads(line) for line in first.splitlines()]
    assert [artifact for artifact, _, _ in rows] == ["unrecorded", "replay"] * 5
    reruns, ops = rows[0::2], rows[1::2]
    assert [key for _, key, _ in ops] == [
        [907, 0, kind] for kind in ("cg_consistent", "cg_inconsistent", "cgls_consistent", "cgls_inconsistent", "cgne")]
    assert [key for _, key, _ in reruns] == [[*key, 0] for _, key, _ in ops]
    assert [record["kind"] for _, _, record in reruns] == [
        "cg_solve", "cg_solve", "cgls_solve", "cgls_solve", "cgne_solve"]
    record = ops[0][2]
    assert record["kind"] == "cg_consistent" and record["stop_reason"] == "converged" and record["passed"]
    assert {"result", "SolveTrace.x", "EquivalenceReport.deviations", "BoundReport.violations"} <= record.keys()
    assert all(len(record[name]) == 16 for name in record if name == "result" or "." in name)


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


def test_compare_trees_names_the_fields_that_differ_in_each_key():
    """A changed field, a field of one tree only and a key of one tree only are named; a NaN read from JSON
    equals itself, so a key whose only float is NaN is not."""
    old = json.loads('{"a": {"exit": 0, "stdout": "x"}, "b": {"exit": 1, "report.error": NaN}, "c": {"exit": 0}}')
    new = json.loads('{"b": {"exit": 1, "report.error": NaN}, "a": {"exit": 1, "stdout": "x", "--out": "{}"},'
                     ' "d": {"exit": 2}}')
    assert compare_trees._diff(compare_trees._pairs(old.items(), new.items())) == [
        "a: --out (change only), exit", "c: (parent only)", "d: (change only)"]
    assert compare_trees._diff(compare_trees._pairs(old.items(), old.items())) == []


def test_compare_trees_sums_up_each_kind():
    """Per kind: its count of differing records, each tree's stop reasons and iteration total, and the fields
    that differ in it, records paired by key whatever their order; the digest of a whole result is named only
    when none of its fields differs."""
    def row(seed, cycle, kind, iterations, result, x, reason="converged"):
        return (seed, cycle, kind), {"kind": kind, "stop_reason": reason, "iterations": iterations,
                                     "result": result, "SolveTrace.x": x}

    old = [row(907, 0, "cg", 10, "r0", "a"), row(907, 1, "cg", 12, "r1", "b"), row(907, 1, "cgne", 7, "r2", "c")]
    new = [row(907, 1, "cgne", 7, "r3", "c"), row(907, 2, "cgls", 5, "r4", "d", "breakdown"),
           row(907, 1, "cg", 9, "r5", "e"), row(907, 0, "cg", 10, "r0", "a")]
    assert compare_trees._diff(compare_trees._pairs(iter(old), iter(new)), by_kind=True) == [
        "cg: 1 of 2 records differ; stop reasons converged x2 / converged x2; iterations 22 / 19;"
        " fields SolveTrace.x, iterations",
        "cgls: 1 of 1 records differ; stop reasons none / breakdown x1; iterations 0 / 5; fields (change only)",
        "cgne: 1 of 1 records differ; stop reasons converged x1 / converged x1; iterations 7 / 7; fields result",
    ]
    assert compare_trees._diff(compare_trees._pairs(iter(old), iter(old)), by_kind=True) == []


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


def _copy_with(root, copy, path, line, new_line):
    """A copy of the checkout's src and bench in which ``path`` has ``new_line`` for its one ``line``."""
    for part in ("src", "bench"):
        shutil.copytree(root / part, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
    return _replace_line(copy, path, line, new_line)


def _replace_line(copy, path, line, new_line):
    text = (copy / path).read_text()
    assert text.count(line) == 1
    (copy / path).write_text(text.replace(line, new_line))
    return copy


def test_compare_trees_finds_a_changed_golden_output(tmp_path):
    """The checkout against itself, then against copies with changed lines: a zero oracle tolerance, then also
    a looser default stop, which the API names as a changed dataclass default; and, in a copy of its own, a
    report field with a default."""
    root = DATA.parent.parent
    artifacts = ["cli", "replay", "unrecorded", "mtx", "read", "scale", "api", "help"]

    def compare(change):
        argv = [sys.executable, str(DATA / "compare_trees.py"), str(root), str(change),
                "--seeds", "907", "--cycles", "1"]
        done = subprocess.run(argv, capture_output=True, text=True)
        return done.returncode, done.stdout.splitlines()

    assert compare(root) == (0, [f"{name}: equal" for name in artifacts])
    # with a zero tolerance no solve report matches the oracle: its exit code, checks and verdict move, and so
    # does the report file's text; no CSV trace changes
    copy = _copy_with(root, tmp_path / "copy", "src/semikrylov/cli.py", "\nORACLE_MATCH_TOL = 1e-6\n",
                      "\nORACLE_MATCH_TOL = 0.0\n")
    cases = ["solve_cg", "solve_cg_tols_stdout", "solve_cg_x0_file", "solve_cgls", "solve_cgls_wide_stdout",
             "solve_cgne"]
    assert compare(copy) == (1, ["cli: differs"] + [
        f"  {case}: {'' if 'stdout' in case else '--out, '}exit, report.checks, report.passed" for case in cases
    ] + [f"{name}: equal" for name in artifacts[1:]])

    # a looser default stop: the krylov_traces solves that converge do so sooner, and the API names the default
    _replace_line(copy, "src/semikrylov/solvers.py", "    rel_tol: float = 1e-12\n", "    rel_tol: float = 1e-6\n")
    code, lines = compare(copy)
    assert code == 1
    assert lines[lines.index("api: differs"):] == ["api: differs", "  SolverConfig: fields", "help: equal"]
    replay, unrecorded, mtx = map(lines.index, ("replay: differs", "unrecorded: differs", "mtx: equal"))
    assert lines[unrecorded + 1].startswith("  cg_solve: ")
    pattern = r"  (\w+): \d+ of \d+ records differ; stop reasons (.+) / (.+); iterations (\d+) / (\d+); fields (.+)"
    kinds = [re.fullmatch(pattern, line) for line in lines[replay + 1:unrecorded] + lines[unrecorded + 1:mtx]]
    assert "cg_consistent" in [kind[1] for kind in kinds if kind]
    for kind in kinds:
        assert kind and kind[2] == kind[3] and int(kind[5]) < int(kind[4]), kind
        assert {"SolveTrace.x", "iterations"} <= set(kind[6].split(", ")), kind

    # a new report field with a default: the cg results name it alone, and the API names its class
    copy = _copy_with(root, tmp_path / "field", "src/semikrylov/decomposition.py",
                      "    deviations: dict[str, float] = field(default_factory=dict)\n",
                      "    deviations: dict[str, float] = field(default_factory=dict)\n    note: str = \"\"\n")
    code, lines = compare(copy)
    assert code == 1 and lines[:2] == ["cli: equal", "replay: differs"]
    for line, kind in zip(lines[2:4], ("cg_consistent", "cg_inconsistent")):
        pattern = rf"  {kind}: 1 of 1 records differ; stop reasons (\w+ x1) / \1; iterations (\d+) / \2;"
        assert re.fullmatch(pattern + r" fields EquivalenceReport\.note \(change only\)", line), line
    assert lines[4:] == [f"{name}: equal" for name in artifacts[2:6]] + [
        "api: differs", "  EquivalenceReport: fields, members", "help: equal"]
