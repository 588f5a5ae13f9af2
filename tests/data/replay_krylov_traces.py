"""Pickle the result of every krylov_traces benchmark operation, for byte-for-byte comparison.

Run from anywhere with ``python tests/data/replay_krylov_traces.py --tree TREE
--seeds 907 11 --cycles 12 > replay.pkl``. The package is imported from
``TREE/src`` and the workload from ``TREE/bench/workloads.py``, which is read
and not changed; ``--tree`` defaults to the checkout that holds this script.
For each seed the workload is set up once, then the first ``--cycles`` cycles
of operations run, and the list of ``(seed, cycle, kind, result)`` records
(every ``SolveTrace`` field and every equivalence, confinement and bound
report) is written to stdout as one pickle. Two trees compute the same
results when their outputs compare equal with ``cmp``.

With ``--unrecorded`` the pickle instead lists ``(solver, trace)`` for every
solver call of those operations, in call order, each run again on the same
problem with ``record_trace=False``. No benchmark operation runs that path.
"""

import argparse
import pickle
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PROTOCOL = 4


def replay(seeds: list[int], cycles: int) -> list[tuple]:
    import workloads

    records = []
    workload = workloads.KrylovTraces()
    for seed in seeds:
        with tempfile.TemporaryDirectory() as workdir:
            state = workload.setup(seed, workdir)
        for index in range(cycles):
            for op in workload.cycle(state, index):
                records.append((seed, index, op.kind, op.run()))
    return records


def unrecorded(seeds: list[int], cycles: int) -> list[tuple]:
    """Replay the operations and rerun each solver call with trace recording off."""
    from semikrylov import solvers

    runs = []

    def rerun(solve):
        def call(a, b, start):
            runs.append((solve.__name__, solve(a, b, start, solvers.SolverConfig(record_trace=False))))
            return solve(a, b, start)
        return call

    for name in ("cg_solve", "cgls_solve", "cgne_solve"):
        setattr(solvers, name, rerun(getattr(solvers, name)))
    replay(seeds, cycles)
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", type=Path, default=ROOT, help="checkout to import from")
    parser.add_argument("--seeds", type=int, nargs="+", required=True, help="workload seeds")
    parser.add_argument("--cycles", type=int, required=True, help="cycles to run per seed")
    parser.add_argument("--unrecorded", action="store_true",
                        help="pickle the solver calls rerun with record_trace=False instead")
    args = parser.parse_args(argv)
    tree = args.tree.resolve()
    sys.path[:0] = [str(tree / "src"), str(tree / "bench")]
    import semikrylov

    if Path(semikrylov.__file__).resolve().parent != tree / "src" / "semikrylov":
        print(f"error: semikrylov was imported from {semikrylov.__file__}", file=sys.stderr)
        return 2
    records = (unrecorded if args.unrecorded else replay)(args.seeds, args.cycles)
    sys.stdout.buffer.write(pickle.dumps(records, protocol=PROTOCOL))
    return 0


if __name__ == "__main__":
    sys.exit(main())
