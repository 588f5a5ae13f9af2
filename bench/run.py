"""Benchmark of the semikrylov package: one workload, one seed, one run.

    python3 bench/run.py --workload cli_pipeline --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory, never from an installed copy. The workload's inputs are
built from the seed, then a closed loop of one client runs whole cycles of
operations for the given number of seconds, in this one process. Every
answer is checked against references the program did not compute.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics, latencies among them in units of a reference kernel
and set-up time scaled by it (see ``Reference``); with ``--trace 1`` it holds the per-layer metrics of a
traced loop, next to an untraced loop of equal length that gives the
tracing overhead. bench/LAYERS.md defines every metric. Lines before it describe the run for a reader, and the
full record, machine facts included, is written under ``.bench_out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".bench_work"
OUT_DIR = ROOT / ".bench_out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 15
SETUP_BUDGET_S = 3.0
# The reference kernel's time on an unloaded 2.1 GHz Xeon core. Set-up time
# in ``ref`` times this is ``setup_s``: seconds on that core.
NOMINAL_REF_S = 0.023
TAIL_BEYOND = 10
SUBCOMMANDS = ("generate", "solve", "diagnose", "verify-bounds")
DETAIL_UNITS = {"ops_per_s": "1/s", "op_tail_ref": "ref", "tail_quantile": "ratio", "fail_ratio": "ratio"}


class ProgramMissing(RuntimeError):
    pass


def load_program(root: Path = ROOT) -> None:
    """Put the checkout's ``src`` first on the path and import the package from there."""
    src = root / "src"
    if not (src / "semikrylov" / "__init__.py").is_file():
        raise ProgramMissing(f"no semikrylov package under {src}")
    sys.path.insert(0, str(src))
    import semikrylov

    if Path(semikrylov.__file__).resolve().parent != (src / "semikrylov").resolve():
        raise ProgramMissing(f"semikrylov was imported from {semikrylov.__file__}, not from {src}")


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}_{kind.lower()}"] = size
    return {
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "caches": caches,
    }


def tail(latencies: list[float]) -> tuple[float, float]:
    """(quantile, value) of the highest quantile with at least TAIL_BEYOND samples above it.

    Never below the median; with fewer than 2 * TAIL_BEYOND samples that
    means fewer than TAIL_BEYOND lie beyond it.
    """
    import numpy as np

    q = max(0.5, 1.0 - TAIL_BEYOND / len(latencies))
    return q, float(np.quantile(latencies, q))


class Reference:
    """A fixed kernel, timed between operations, in whose units latencies are also given.

    Co-tenants on a shared host slow the CPU and its caches by up to 1.8x for
    tens of seconds, which moves every wall time alike. An operation's
    latency divided by the kernel's time around it cancels that and keeps
    what the program changes. The kernel does what the program does: small numpy
    calls, and formatting and parsing floats in text of about 0.5 MB.
    """

    INTERVAL_S = 0.5

    def __init__(self):
        import numpy as np

        self._matrix = np.random.default_rng(0).random((60, 60)) / 30.0
        self._values = np.random.default_rng(1).random(20000).tolist()
        self._last = -float("inf")
        self.times: list[float] = []

    def run(self) -> float:
        t0 = time.perf_counter()
        v = self._matrix[0].copy()
        for _ in range(400):
            v = self._matrix @ v
            v /= float(v @ v) ** 0.5
        text = "\n".join(f"{x:.17g}" for x in self._values)
        self.checksum = sum(float(tok) for tok in text.split()) + float(v[0])
        self._last = time.perf_counter()
        self.times.append(self._last - t0)
        return self.times[-1]

    def latest(self) -> int:
        """Index in ``times`` of the kernel's latest time, measured again once INTERVAL_S has passed."""
        if time.perf_counter() - self._last >= self.INTERVAL_S:
            self.run()
        return len(self.times) - 1

    def around(self, index: int) -> float:
        """The mean of the kernel's times at ``index`` and the one after it."""
        return (self.times[index] + self.times[index + 1]) / 2


def closed_loop(workload, state, seconds: float, tracer=None) -> dict:
    """Run whole cycles until ``seconds`` have passed; time each operation alone.

    Each operation's ``ref`` is the mean of the reference kernel's times
    just before and just after it.
    """
    latencies, ref_at, kinds, failures = [], [], [], []
    reference = Reference()
    started = time.perf_counter()
    cycles = 0
    while cycles == 0 or time.perf_counter() - started < seconds:
        for op in workload.cycle(state, cycles):
            ref_at.append(reference.latest())
            if tracer is not None:
                tracer.op_id = len(latencies)
            t0 = time.perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # a failed operation is counted, the loop goes on
                latency = time.perf_counter() - t0
                problems = [f"raised {type(exc).__name__}: {exc}"]
            else:
                latency = time.perf_counter() - t0
                try:
                    problems = op.check(result)
                except Exception as exc:
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
            latencies.append(latency)
            kinds.append(op.kind)
            if problems:
                failures.append({"op": len(latencies) - 1, "kind": op.kind, "problems": problems})
        cycles += 1
    if tracer is not None:
        tracer.op_id = None
    reference.run()
    refs = [reference.around(index) for index in ref_at]
    return {"latencies": latencies, "refs": refs, "kinds": kinds, "failures": failures, "cycles": cycles}


def in_reference_units(loop: dict) -> list[float]:
    return [lat / ref for lat, ref in zip(loop["latencies"], loop["refs"])]


def timed_setups(workload, seed: int, workdir: Path) -> tuple[dict, list[float], list[float]]:
    """(state, wall times, times in ``ref``) of repeated set-ups.

    Each set-up's time is divided by the mean of the reference kernel's
    times just before and just after it, as loop latencies are.
    """
    reference = Reference()
    reference.run()
    setup_times: list[float] = []
    while len(setup_times) < SETUP_MIN_REPEATS or (
        len(setup_times) < SETUP_MAX_REPEATS and sum(setup_times) < SETUP_BUDGET_S
    ):
        t0 = time.perf_counter()
        state = workload.setup(seed, str(workdir))
        setup_times.append(time.perf_counter() - t0)
        reference.run()
    return state, setup_times, [t / reference.around(i) for i, t in enumerate(setup_times)]


def end_to_end(loop: dict, setup_times: list[float], setup_rel: list[float]) -> tuple[dict, dict]:
    """(metrics, details): the metrics BENCHMARK.json bounds, and the other printed figures."""
    lat, kinds = loop["latencies"], loop["kinds"]
    rel = in_reference_units(loop)
    q, tail_s = tail(lat)
    metrics = {
        "setup_s": statistics.median(setup_rel) * NOMINAL_REF_S,
        "ops_per_ref": len(rel) / sum(rel),
        "op_p50_ref": statistics.median(rel),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    # Wall-clock figures are printed but not bounded: they move with the
    # host's load. The subcommand medians do not exist on every workload.
    details = {
        "setup_wall_s": statistics.median(setup_times),
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail_s,
        "tail_quantile": q,
        "op_tail_ref": tail(rel)[1],
        "reference_s": statistics.median(loop["refs"]),
        "samples": len(lat),
        "fail_ratio": len(loop["failures"]) / len(lat),
        "cycles": loop["cycles"],
        "setup_repeats": len(setup_times),
    }
    for command in SUBCOMMANDS:
        times = [t for t, k in zip(lat, kinds) if k == command]
        if times:
            details[f"{command.replace('-', '_')}_p50_s"] = statistics.median(times)
    return metrics, details


def measure(workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Set up, run the closed loop(s) and derive the metrics of one run, by name."""
    import tracing

    os.makedirs(workdir, exist_ok=True)
    if not trace:
        state, setup_times, setup_rel = timed_setups(workload, seed, workdir)
        loop = closed_loop(workload, state, seconds)
        metrics, details = end_to_end(loop, setup_times, setup_rel)
        details["rel_err_max"] = max(state["rel_errs"], default=0.0)
        return {"metrics": metrics, "details": details, "loops": [loop], "spans": None}

    tracer = tracing.Tracer()
    with tracer.installed():
        tracer.op_id = "setup"
        state = workload.setup(seed, str(workdir))
    plain = closed_loop(workload, state, seconds / 2)
    with tracer.installed():
        traced = closed_loop(workload, state, seconds / 2, tracer)
    metrics = tracing.layer_metrics(tracer.spans, traced["latencies"])
    metrics["solvers.rel_err_max"] = max(state["rel_errs"], default=0.0)
    metrics["trace.overhead"] = (
        statistics.median(in_reference_units(traced)) / statistics.median(in_reference_units(plain))
    )
    details = {
        "samples_untraced": len(plain["latencies"]),
        "samples_traced": len(traced["latencies"]),
        "waiting": "none: the program is one process with no queue or lock, so no layer waits",
    }
    return {"metrics": metrics, "details": details, "loops": [plain, traced], "spans": tracer.spans}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One BLAS thread: the matrices have at most a few hundred rows, and on a
    # shared machine threaded BLAS makes timings depend on the neighbours.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    # The CLI lets this variable override a spec's seed; inputs come from --seed only.
    os.environ.pop("SEMIKRYLOV_SEED", None)
    # One CPU, so the reference kernel and the operations it scales share it.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        load_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    workdir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    try:
        run = measure(workload, args.seed, args.seconds, bool(args.trace), workdir)
    except workloads.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(run["metrics"]):
        print(f"error: measured {sorted(run['metrics'])}, BENCHMARK.json declares {sorted(units)}", file=sys.stderr)
        return 1
    metrics = {name: {"value": value, "unit": units[name]} for name, value in run["metrics"].items()}
    attempted = sum(len(loop["latencies"]) for loop in run["loops"])
    failures = [f for loop in run["loops"] for f in loop["failures"]]
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": machine_facts(), "result": result, "details": run["details"], "failures": failures[:20],
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=2) + "\n")
    if run["spans"] is not None:
        tracing.write_spans(run["spans"], str(stem) + ".spans.jsonl")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"machine {json.dumps(record['machine'])}")
    for failure in failures[:5]:
        print(f"FAILED op {failure['op']} ({failure['kind']}): {'; '.join(failure['problems'])}")
    for name, metric in metrics.items():
        print(f"  {name:36s} {metric['value']:.6g} {metric['unit']}")
    for name, value in run["details"].items():
        unit = DETAIL_UNITS.get(name, "s" if name.endswith("_s") else "")
        print(f"  {name:36s} {value:.6g} {unit}" if unit else f"  {name:36s} {value}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
