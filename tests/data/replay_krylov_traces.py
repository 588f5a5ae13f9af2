"""Print one JSON line per krylov_traces benchmark result, for comparison across checkouts.

Run from anywhere with ``python tests/data/replay_krylov_traces.py --tree TREE
--seeds 907 11 --cycles 12 > replay.jsonl``. The package is imported from
``TREE/src`` and the workload from ``TREE/bench/workloads.py`` (``--tree``
defaults to this checkout). Per seed the workload is set up once and its first
``--cycles`` cycles run. A line reads ``[artifact, key, record]``. Each solver
call is run again with ``record_trace=False``, a path no benchmark operation
takes, and prints artifact ``unrecorded``, keyed ``[seed, cycle, kind, call]``
by its operation and its place among that operation's calls. Then each
operation prints artifact ``replay``, keyed ``[seed, cycle, kind]``. A record
holds ``kind`` (the solver for a rerun), ``stop_reason``, ``iterations``, for
an operation ``passed`` (every verdict report passed), the digest of each
dataclass field of its parts, named ``<class>.<field>`` (``SolveTrace.x``,
``EquivalenceReport.deviations``, ...), and ``result``, the digest of those
names and digests, so each array is hashed once. A digest is the first 16 hex
digits of the sha256 of the protocol 4 pickle. No result is kept once its
line is printed, so memory does not grow with the cycle count.
"""

import argparse
import dataclasses
import hashlib
import json
import pickle
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def _digest(value) -> str:
    return hashlib.sha256(pickle.dumps(value, protocol=4)).hexdigest()[:16]


def _print_row(artifact: str, key: list, kind: str, result: tuple, **extra) -> None:
    fields = {f"{type(part).__name__}.{field.name}": _digest(getattr(part, field.name))
              for part in result for field in dataclasses.fields(part)}
    summary = {"kind": kind, "stop_reason": result[0].stop_reason, "iterations": result[0].iterations, **extra}
    print(json.dumps([artifact, key, {**summary, "result": _digest(fields), **fields}]))


def replay(seeds: list[int], cycles: int) -> None:
    import workloads
    from semikrylov import solvers

    running = [None, 0]  # the key of the operation being run and the solver calls it has made so far

    def rerun(solve):
        def call(a, b, start):
            trace = solve(a, b, start, solvers.SolverConfig(record_trace=False))
            _print_row("unrecorded", [*running[0], running[1]], solve.__name__, (trace,))
            running[1] += 1
            return solve(a, b, start)
        return call

    for name in ("cg_solve", "cgls_solve", "cgne_solve"):
        setattr(solvers, name, rerun(getattr(solvers, name)))
    workload = workloads.KrylovTraces()
    for seed in seeds:
        with tempfile.TemporaryDirectory() as workdir:
            state = workload.setup(seed, workdir)
        for index in range(cycles):
            for op in workload.cycle(state, index):
                running[:] = [seed, index, op.kind], 0
                result = op.run()
                _print_row("replay", running[0], op.kind, result, passed=all(report.passed for report in result[1:]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", type=Path, default=ROOT, help="checkout to import from")
    parser.add_argument("--seeds", type=int, nargs="+", required=True, help="workload seeds")
    parser.add_argument("--cycles", type=int, required=True, help="cycles to run per seed, at least 1")
    args = parser.parse_args(argv)
    if args.cycles < 1:
        parser.error(f"--cycles must be at least 1, not {args.cycles}")
    tree = args.tree.resolve()
    sys.path[:0] = [str(tree / "src"), str(tree / "bench")]
    import semikrylov

    if Path(semikrylov.__file__).resolve().parent != tree / "src" / "semikrylov":
        print(f"error: semikrylov was imported from {semikrylov.__file__}", file=sys.stderr)
        return 2
    replay(args.seeds, args.cycles)
    return 0


if __name__ == "__main__":
    sys.exit(main())
