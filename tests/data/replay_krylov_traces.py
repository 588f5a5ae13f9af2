"""Print one JSON line per krylov_traces benchmark result, for comparison across checkouts.

Run from anywhere with ``python tests/data/replay_krylov_traces.py --tree TREE
--seeds 907 11 --cycles 12 > replay.jsonl``. The package is imported from
``TREE/src`` and the workload from ``TREE/bench/workloads.py`` (``--tree``
defaults to this checkout). Per seed the workload is set up once and its first
``--cycles`` cycles run. Each solver call is run again with ``record_trace=False``,
a path no benchmark operation takes, and prints ``[solver, digest, stop reason,
iterations]``; then each operation prints ``[seed, cycle, kind, digest, stop
reason, iterations, passed]``, ``passed`` true when every verdict report passed.
A digest is the sha256 of the protocol 4 pickle of ``(solver, trace)`` or of
``(seed, cycle, kind, result)``: every ``SolveTrace`` field and report. No result
is kept once its line is printed, so memory does not grow with the cycle count.
"""

import argparse
import hashlib
import json
import pickle
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def _digest(record) -> str:
    return hashlib.sha256(pickle.dumps(record, protocol=4)).hexdigest()


def replay(seeds: list[int], cycles: int) -> None:
    import workloads
    from semikrylov import solvers

    def rerun(solve):
        def call(a, b, start):
            trace = solve(a, b, start, solvers.SolverConfig(record_trace=False))
            print(json.dumps([solve.__name__, _digest((solve.__name__, trace)), trace.stop_reason,
                              trace.iterations]))
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
                trace, *reports = result = op.run()
                print(json.dumps([seed, index, op.kind, _digest((seed, index, op.kind, result)), trace.stop_reason,
                                  trace.iterations, all(report.passed for report in reports)]))


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
