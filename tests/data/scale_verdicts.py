"""Print the oracle's verdicts and the solvers' outcomes on scaled golden problems, as JSON.

Run with ``PYTHONPATH=<tree>/src python tests/data/scale_verdicts.py``. For
each of the four spec families of ``make_golden_reports.py`` (``spsd``,
``gap``, ``tall`` and ``wide``) and each ``c`` in 1e-12, 1e-9, 1e-6, 1, 1e6
and 1e12, the case ``<family>/<c>`` records, on ``(c A, c b)``:

- ``rank``: the numerical rank at the default ``rank_tol``, from the
  eigendecomposition for an spsd family and the SVD otherwise;
- ``consistent``: the verdict of ``consistency_check`` on ``c b`` against
  that oracle;
- ``symmetric``: whether ``c A`` passes ``check_symmetric`` (``null`` for a
  rectangular family);
- one entry per method (cg for an spsd family, cgls and cgne for all):
  the stop reason, the iteration count and ``norm(x - x†) / norm(x†)`` of
  the library solve from a zero start, with ``x†`` the factor-exact
  minimum-norm solution of the unscaled problem;
- ``diagnose`` (spsd families only): the exit code, the ``checks``,
  ``max_deviation``, ``iterations_compared``, the null drift
  (``max_null_drift`` for a consistent family, ``max_null_residual_drift``
  for ``gap``), the plain run's ``stop_reason`` and the eigenbasis run's
  ``decomposed_stop_reason`` of ``semikrylov diagnose --iters 6`` from a
  zero start.

The spec of ``DIAGNOSED`` gets a case ``geom40/<c>`` of its own, with only
the ``diagnose`` entry, run on ``(c A, c b)`` from the spec's start for
``--iters 40``, the full length of the run: a 40 x 40 problem with spectrum
``geomspace(1, 1/1.5, 30)`` plus zeros and a ``random_full`` start, whose
last, rounding-level steps are where the verdict is decided.

Every golden input is at unit scale, so this is what compares the scale
behaviour of two checkouts (see ``compare_trees.py``).
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from make_golden_reports import SPECS
from semikrylov.cli import run_command
from semikrylov.genmat import ProblemSpec, make_problem
from semikrylov.linalg import check_symmetric, svd, symmetric_eig
from semikrylov.mmio import save_matrix_market
from semikrylov.oracle import consistency_check
from semikrylov.solvers import cg_solve, cgls_solve, cgne_solve

SCALES = (1e-12, 1e-9, 1e-6, 1.0, 1e6, 1e12)
SOLVERS = {"cg": cg_solve, "cgls": cgls_solve, "cgne": cgne_solve}
DIAGNOSED = {
    "geom40": {"kind": "spsd", "dims": [40, 40], "spectrum": np.geomspace(1, 1 / 1.5, 30).tolist() + [0.0] * 10,
               "seed": 2, "x0_mode": "random_full"},
}


def _passes_symmetry(a) -> bool:
    try:
        check_symmetric(a)
    except ValueError:
        return False
    return True


def _diagnose(a, b, x0, iters: int) -> list:
    """[exit code, checks, max_deviation, iterations_compared, null drift, stop reason, decomposed
    stop reason] of diagnose on (a, b)."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        save_matrix_market(tmp / "a.mtx", a)
        save_matrix_market(tmp / "b.mtx", b.reshape(-1, 1))
        save_matrix_market(tmp / "x0.mtx", x0.reshape(-1, 1))
        code = run_command(["diagnose", "--matrix", str(tmp / "a.mtx"), "--rhs", str(tmp / "b.mtx"),
                            "--x0", f"file:{tmp / 'x0.mtx'}", "--iters", str(iters),
                            "--out", str(tmp / "report.json")])
        report = json.loads((tmp / "report.json").read_text())
    found = report["diagnostics"]
    drift = found.get("max_null_drift", found.get("max_null_residual_drift"))
    return [code, report["checks"], found["max_deviation"], found["iterations_compared"], drift,
            report["stop_reason"], found["decomposed_stop_reason"]]


def _case(problem, spsd: bool, c: float) -> dict:
    a, b = c * problem.a, c * problem.b
    dec = symmetric_eig(a) if spsd else svd(a)
    case = {"rank": dec.rank, "consistent": consistency_check(dec, b).consistent,
            "symmetric": _passes_symmetry(a) if spsd else None}
    xdag = problem.xstar_reference
    for method in ("cg", "cgls", "cgne") if spsd else ("cgls", "cgne"):
        start = np.zeros(a.shape[0] if method == "cgne" else a.shape[1])
        trace = SOLVERS[method](a, b, start)
        error = float(np.linalg.norm(trace.x - xdag) / np.linalg.norm(xdag))
        case[method] = [trace.stop_reason, trace.iterations, error]
    if spsd:
        case["diagnose"] = _diagnose(a, b, np.zeros(a.shape[1]), 6)
    return case


def scale_verdicts() -> dict:
    """{"<family>/<c>": the case's verdicts and outcomes} over every family and scale."""
    cases = {}
    for family, payload in SPECS.items():
        problem = make_problem(ProblemSpec.from_dict(payload))
        for c in SCALES:
            cases[f"{family}/{c!r}"] = _case(problem, payload["kind"] == "spsd", c)
    for name, payload in DIAGNOSED.items():
        problem = make_problem(ProblemSpec.from_dict(payload))
        for c in SCALES:
            cases[f"{name}/{c!r}"] = {"diagnose": _diagnose(c * problem.a, c * problem.b, problem.x0,
                                                            payload["dims"][1])}
    return cases


if __name__ == "__main__":
    print(json.dumps(scale_verdicts(), indent=1, sort_keys=True))
