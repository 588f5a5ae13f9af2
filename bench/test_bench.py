"""Tests of the benchmark itself, at tiny sizes so they run in seconds."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import run

run.load_program()

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
TINY = {
    "cli_pipeline": lambda: workloads.CliPipeline(n=12),
    "krylov_traces": lambda: workloads.KrylovTraces(n=18),
    "mtx_io": lambda: workloads.MtxIO(n=10),
}


def test_tiny_workloads_cover_the_declared_ones():
    assert sorted(TINY) == sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_smoke_untraced(name, tmp_path):
    out = run.measure(TINY[name](), seed=3, seconds=0, trace=False, workdir=tmp_path)
    assert out["loops"][0]["failures"] == []
    assert set(out["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value in out["metrics"].values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_smoke_traced(name, tmp_path):
    out = run.measure(TINY[name](), seed=3, seconds=0, trace=True, workdir=tmp_path)
    assert all(not loop["failures"] for loop in out["loops"])
    metrics = out["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    if name == "cli_pipeline":
        assert metrics["linalg.calls"] > 0
    else:
        # the oracle runs in set-up only: the timed loop never calls it
        assert metrics["linalg.calls"] == 0
    if name == "krylov_traces":
        assert metrics["linalg.eig_s"] > 0 and metrics["linalg.svd_s"] > 0


def test_gate_counts_a_perturbed_solution_as_failed(tmp_path):
    workload = TINY["krylov_traces"]()
    state = workload.setup(5, str(tmp_path))
    op = workload.cycle(state, 0)[0]
    trace, equivalence, bound = op.run()
    assert op.check((trace, equivalence, bound)) == []

    bad = dataclasses.replace(trace, x=trace.x * (1.0 + 1e-6))
    perturbed = workloads.Op(op.kind, lambda: (bad, equivalence, bound), op.check)

    class Perturbed:
        def cycle(self, state, index):
            return [op, perturbed]

    loop = run.closed_loop(Perturbed(), state, seconds=0)
    assert [f["op"] for f in loop["failures"]] == [1]
    assert run.end_to_end(loop, [1.0], [40.0])[1]["fail_ratio"] == 0.5


def test_gate_counts_a_changed_last_bit_as_failed(tmp_path):
    workload = TINY["mtx_io"]()
    state = workload.setup(5, str(tmp_path))
    (op,) = workload.cycle(state, 0)
    result, matrices = op.run()
    assert op.check((result, matrices)) == []
    matrices[0][1, 2] = np.nextafter(matrices[0][1, 2], np.inf)
    assert op.check((result, matrices))


def test_gate_counts_a_wrong_verdict_as_failed(tmp_path):
    workload = TINY["cli_pipeline"]()
    state = workload.setup(5, str(tmp_path))
    ops = workload.cycle(state, 0)
    ops[0].run()  # generate p1, which the solve reads
    solve = ops[1]
    code, out, err = solve.run()
    assert solve.check((code, out, err)) == []
    assert solve.check((1, out, err))


def test_missing_trace_site_fails_loudly(monkeypatch):
    import semikrylov.cli

    original = semikrylov.cli.run_command
    sites = tracing.WRAP_SITES + (("semikrylov.cli", "no_such_function", "cli"),)
    monkeypatch.setattr(tracing, "WRAP_SITES", sites)
    with pytest.raises(RuntimeError, match="no_such_function"):
        with tracing.Tracer().installed():
            pass
    assert semikrylov.cli.run_command is original


def test_self_times_subtract_children():
    spans = [
        {"parent": None, "start": 0.0, "end": 10.0},
        {"parent": 0, "start": 1.0, "end": 4.0},
        {"parent": 1, "start": 2.0, "end": 3.0},
        {"parent": 0, "start": 5.0, "end": 6.0},
    ]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_trace_bytes_counts_lists_and_arrays_alike():
    rows = np.arange(12.0).reshape(3, 4)
    as_lists = types.SimpleNamespace(iterates=list(rows), residuals=list(rows), directions=None,
                                     normal_residuals=None, y_iterates=None)
    as_arrays = types.SimpleNamespace(iterates=rows, residuals=rows.copy(), directions=None,
                                      normal_residuals=None, y_iterates=np.empty((0, 4)))
    assert tracing._trace_bytes(as_lists) == tracing._trace_bytes(as_arrays) == 2 * rows.nbytes


def test_independent_parser_matches_the_written_text():
    a = np.arange(6.0).reshape(2, 3) / 7.0
    text = "%%MatrixMarket matrix array real general\n2 3\n" + "\n".join(repr(v) for v in a.T.ravel().tolist()) + "\n"
    assert checks.check_bitwise("a", checks.parse_mtx_array(text), a) == []


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    argv = [sys.executable, "bench/run.py", "--workload", "mtx_io", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
