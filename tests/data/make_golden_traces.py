"""Write golden_traces.npz: short seeded solver traces that test_golden.py replays.

Run from the repository root with ``PYTHONPATH=src python tests/data/make_golden_traces.py``.
Every run stops after CAP iterations, inside the window where the plain and
the eigenbasis recurrences still agree to exact-arithmetic accuracy. The
eigenbasis run is stored as its range and null blocks mapped back to the
original coordinates (Q1 x1, Q2 x2, ...), which do not depend on the basis
LAPACK picks for a repeated (zero) eigenvalue.
"""

from pathlib import Path

import numpy as np

from semikrylov.decomposition import decomposed_cg_run
from semikrylov.genmat import ProblemSpec, make_problem
from semikrylov.linalg import symmetric_eig
from semikrylov.solvers import SolverConfig, cg_solve, cgls_solve, cgne_solve

CAP = 15
SOLVE_FIELDS = ("x", "alphas", "betas", "res_norms", "iterates", "residuals", "directions",
                "normal_res_norms", "normal_residuals", "y", "y_iterates")
FAMILIES = {
    "spsd_consistent": ProblemSpec(
        "spsd", (30, 30), tuple(np.geomspace(1, 1e-1, 24)) + (0.0,) * 6, seed=101,
        x0_mode="random_full"),
    "spsd_inconsistent": ProblemSpec(
        "spsd", (30, 30), tuple(np.geomspace(1, 1e-1, 24)) + (0.0,) * 6, seed=102,
        consistency_gap=1e-2, x0_mode="random_full"),
    "tall": ProblemSpec(
        "rectangular", (40, 24), tuple(np.geomspace(1, 1e-1, 18)) + (0.0,) * 6, seed=103,
        consistency_gap=0.1, x0_mode="random_full"),
    "wide": ProblemSpec(
        "rectangular", (24, 40), tuple(np.geomspace(1, 1e-1, 18)) + (0.0,) * 6, seed=104,
        x0_mode="random_range"),
}


def solver_runs(name, problem):
    """(method, trace) pairs for one family."""
    a, b, x0 = problem.a, problem.b, problem.x0
    cfg = SolverConfig(max_iters=CAP)
    if name.startswith("spsd"):
        return [("cg", cg_solve(a, b, x0, cfg))]
    y0 = np.linspace(-1.0, 1.0, a.shape[0])
    return [("cgls", cgls_solve(a, b, x0, cfg)), ("cgne", cgne_solve(a, b, y0, cfg))]


def decomposed_fields(problem):
    """The eigenbasis run of an spsd family, in original coordinates."""
    dec = symmetric_eig(problem.a)
    dtrace = decomposed_cg_run(dec, problem.b, problem.x0, CAP)
    out = {"alphas": dtrace.alphas, "betas": dtrace.betas, "stop_reason": dtrace.stop_reason}
    for field in ("x1", "r1", "p1"):
        out[field] = np.asarray(getattr(dtrace, field)) @ dec.q1.T
    for field in ("x2", "r2", "p2"):
        out[field] = np.asarray(getattr(dtrace, field)) @ dec.q2.T
    return out


def main():
    arrays = {}
    for name, spec in FAMILIES.items():
        problem = make_problem(spec)
        for method, trace in solver_runs(name, problem):
            arrays[f"{name}.{method}.stop_reason"] = np.array(trace.stop_reason)
            for field in SOLVE_FIELDS:
                value = getattr(trace, field)
                if value is not None:
                    arrays[f"{name}.{method}.{field}"] = np.asarray(value, dtype=np.float64)
        if name.startswith("spsd"):
            for field, value in decomposed_fields(problem).items():
                arrays[f"{name}.decomposed.{field}"] = np.asarray(value)
    out = Path(__file__).with_name("golden_traces.npz")
    np.savez_compressed(out, **arrays)
    print(f"wrote {len(arrays)} arrays to {out}")


if __name__ == "__main__":
    main()
