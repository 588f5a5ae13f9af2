"""Time each Krylov loop of two checkouts of semikrylov per iteration, the trees taking turns.

Run from anywhere with ``python tests/data/loop_step_times.py PARENT CHANGE
--repeats 200``. One worker process per tree imports that tree's ``src`` and
builds, with ``genmat``, three problems shaped as the ``krylov_traces``
workload's: an 80 x 80 spsd matrix of rank 67 and kappa 1e4, and 93 x 80 (tall)
and 67 x 80 (wide) matrices of rank 67 and kappa 1e2. In each round both
workers, in turn and in alternating order, time one call of ``cg_solve`` (spsd),
``cgls_solve`` (tall), ``cgne_solve`` (wide) and ``decomposed_cg_run`` (spsd,
as many iterations as cg). One line per loop gives each tree's best
microseconds per iteration over all rounds and the change/parent ratio. The
exit code is 2 when a tree fails to run.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

# answers each line on stdin with {loop: seconds per iteration} for one call of every loop
WORKER = """import json, sys, time
import numpy as np
from semikrylov import decomposition, genmat, linalg, solvers
def problem(kind, dims, ratio, zeros):
    spectrum = tuple(np.geomspace(1.0, 1.0 / ratio, 67)) + (0.0,) * zeros
    return genmat.make_problem(genmat.ProblemSpec(kind, dims, spectrum, seed=1, x0_mode="random_full"))
spsd, tall, wide = problem("spsd", (80, 80), 1e4, 13), problem("rectangular", (93, 80), 1e2, 13), \\
    problem("rectangular", (67, 80), 1e2, 0)
dec, iters = linalg.symmetric_eig(spsd.a), solvers.cg_solve(spsd.a, spsd.b, spsd.x0).iterations
loops = {"cg": lambda: solvers.cg_solve(spsd.a, spsd.b, spsd.x0),
         "cgls": lambda: solvers.cgls_solve(tall.a, tall.b, tall.x0),
         "cgne": lambda: solvers.cgne_solve(wide.a, wide.b, np.zeros(67)),
         "eigenbasis": lambda: decomposition.decomposed_cg_run(dec, spsd.b, spsd.x0, iters)}
for _ in sys.stdin:
    times = {}
    for name, loop in loops.items():
        start = time.perf_counter()
        steps = loop().iterations
        times[name] = (time.perf_counter() - start) / steps
    print(json.dumps(times), flush=True)
"""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout to compare against")
    parser.add_argument("change", type=Path, help="checkout to compare")
    parser.add_argument("--repeats", type=int, default=200, help="rounds, at least 1")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error(f"--repeats must be at least 1, not {args.repeats}")
    trees = [args.parent.resolve(), args.change.resolve()]
    workers = [subprocess.Popen([sys.executable, "-c", WORKER], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                text=True, env=dict(os.environ, PYTHONPATH=str(tree / "src")))
               for tree in trees]
    best = [{}, {}]
    try:
        for round_ in range(args.repeats):
            for k in (0, 1) if round_ % 2 == 0 else (1, 0):
                try:
                    workers[k].stdin.write("\n")
                    workers[k].stdin.flush()
                    line = workers[k].stdout.readline()
                except BrokenPipeError:
                    line = ""
                if not line:
                    print(f"error: {trees[k]} failed to run", file=sys.stderr)
                    return 2
                for name, seconds in json.loads(line).items():
                    best[k][name] = min(seconds, best[k].get(name, seconds))
    finally:
        for worker in workers:
            worker.kill()
            worker.wait()
    print(f"{'loop':<12}{'parent us/iter':>16}{'change us/iter':>16}{'change/parent':>15}")
    for name, parent in best[0].items():
        change = best[1][name]
        print(f"{name:<12}{parent * 1e6:>16.3f}{change * 1e6:>16.3f}{change / parent:>15.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
