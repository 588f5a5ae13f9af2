"""Command-line surface: solve, diagnose, verify-bounds, generate.

Exit codes: 0 when every check in the run passed, 1 when a check failed,
2 on usage, parse, or input errors, a malformed spec file included. Every
command ends in one report step: the JSON report is written atomically to
--out (or printed to stdout without it), and the optional --trace-csv trace
reads each column from the report array of the same name. The environment
variable SEMIKRYLOV_SEED overrides the seed of a problem spec file; an
explicit --seed flag overrides both.

run_command may be called repeatedly in one process. The calls share one
parser, built on the first call, and each call reads the environment
afresh, so neither parsing nor SEMIKRYLOV_SEED carries over between calls.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from datetime import datetime, timezone

import numpy as np

from .bounds import cg_bound_verify, cgls_bound_verify, cgne_bound_verify
from .decomposition import decomposed_cg_run, equivalence_check, null_direction_confinement
from .genmat import ProblemSpec, make_problem
from .linalg import DEFAULT_RANK_TOL, ConvergenceError, _check_tolerance, svd, symmetric_eig
from .mmio import load_matrix_market, write_matrix_market
from .oracle import consistency_check, pinv_apply_rect, pseudoinverse_apply
from .report import RunReport, trace_csv_text, write_text_atomic
from .solvers import SolverConfig, cg_solve, cgls_solve, cgne_solve

SEED_ENV = "SEMIKRYLOV_SEED"
ORACLE_MATCH_TOL = 1e-6
DIAGNOSE_TOL = 1e-8


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def _load_matrix(path) -> np.ndarray:
    if not os.path.exists(path):
        raise ValueError(f"no such file: {path}")
    return load_matrix_market(path)


def _load_vector(path) -> np.ndarray:
    mat = _load_matrix(path)
    if mat.shape[1] != 1:
        raise ValueError(f"{path}: expected an n x 1 Matrix Market vector, got {mat.shape}")
    return mat[:, 0].copy()


def _x0_from_flag(flag: str, length: int) -> np.ndarray:
    if flag == "zero":
        return np.zeros(length)
    if flag.startswith("file:"):
        vec = _load_vector(flag[len("file:") :])
        if vec.shape[0] != length:
            raise ValueError(f"initial guess has length {vec.shape[0]}, expected {length}")
        return vec
    raise ValueError(f"--x0 must be 'zero' or 'file:<path>', got {flag!r}")


def _resolve_seed(file_seed, args):
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get(SEED_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"{SEED_ENV} must be an integer, got {env!r}") from None
    if file_seed is None:
        raise ValueError("no seed: provide one in the spec file, via --seed, or via the environment")
    return file_seed


def _load_problem(args):
    """Read the --spec file, resolve its seed, and build the seeded problem."""
    with open(args.spec, "r", encoding="utf-8") as handle:
        try:
            raw = json.load(handle)
        except RecursionError:
            raise ValueError("problem spec is nested too deeply to parse") from None
    if isinstance(raw, dict):
        raw["seed"] = _resolve_seed(raw.get("seed"), args)
    spec = ProblemSpec.from_dict(raw)
    return spec, make_problem(spec)


def _relative_distance(x: np.ndarray, reference: np.ndarray) -> float:
    return float(np.linalg.norm(x - reference)) / max(float(np.linalg.norm(reference)), 1.0)


def _run_method(method, a, b, start, cfg):
    if method == "cg":
        return cg_solve(a, b, start, cfg)
    if method == "cgls":
        return cgls_solve(a, b, start, cfg)
    return cgne_solve(a, b, start, cfg)


def _spectral_pipeline(method, a, rank_tol):
    """Decomposition, spectral summary, and residual-space bases."""
    if method == "cg":
        decomp = symmetric_eig(a, rank_tol)
        summary = {}
        if decomp.rank > 0:
            lam = decomp.lambdas_r
            summary = {
                "lambda_1": float(lam[0]),
                "lambda_r": float(lam[-1]),
                "kappa": float(lam[0] / lam[-1]),
            }
        return decomp, summary, decomp.q1, decomp.q2
    sdec = svd(a, rank_tol)
    summary = {}
    if sdec.rank > 0:
        sig = sdec.sigmas_r
        summary = {"sigma_1": float(sig[0]), "sigma_r": float(sig[-1]),
                   "sigma_ratio": float(sig[0] / sig[-1])}
    return sdec, summary, sdec.u1, sdec.u2


def _finish(args, command, method, dims, spectral, trace, checks, **fields) -> int:
    """Build the report, write it (and the CSV trace) and return the exit code.

    ``fields`` are the command's own report fields (final_distances,
    measured, bound, contraction_factor, diagnostics); the rest come from
    the trace and the spectral step. Each CSV column is read from the report
    array of the matching name, so the CSV and the JSON cannot disagree.
    """
    dec, summary, basis1, basis2 = spectral
    passed = all(checks.values())
    report = RunReport(
        command=command,
        method=method,
        dims=dims,
        rank=dec.rank,
        spectral_summary=summary,
        stop_reason=trace.stop_reason,
        iterations=trace.iterations,
        res_norms=list(trace.res_norms),
        alphas=list(trace.alphas),
        betas=list(trace.betas),
        normal_res_norms=list(trace.normal_res_norms) if trace.normal_res_norms else None,
        range_res_norms=np.linalg.norm(trace.residuals @ basis1, axis=1).tolist(),
        null_res_norms=np.linalg.norm(trace.residuals @ basis2, axis=1).tolist(),
        checks=checks,
        passed=passed,
        timestamp=_timestamp(),
        **(dict.fromkeys(("measured", "bound", "contraction_factor", "final_distances")) | fields),
    )
    text = report.to_json()
    if getattr(args, "out", None):
        write_text_atomic(args.out, text)
    else:
        sys.stdout.write(text)
    if getattr(args, "trace_csv", None):
        write_text_atomic(args.trace_csv, trace_csv_text(report))
    return 0 if passed else 1


def _cmd_solve(args) -> int:
    a = _load_matrix(args.matrix)
    b = _load_vector(args.rhs)
    cfg = SolverConfig(max_iters=args.max_iters, rel_tol=args.rel_tol)
    m, n = a.shape
    start = _x0_from_flag(args.x0, m if args.method == "cgne" else n)

    spectral = _spectral_pipeline(args.method, a, args.rank_tol)
    dec, basis2 = spectral[0], spectral[3]
    trace = _run_method(args.method, a, b, start, cfg)

    if args.method == "cg":
        xdag = pseudoinverse_apply(dec, b)
        expected = xdag + dec.q2 @ (dec.q2.T @ start)
    else:
        xdag = pinv_apply_rect(dec, b)
        if args.method == "cgls":
            expected = xdag + (start - dec.v1 @ (dec.v1.T @ start))
        else:
            expected = xdag

    dist_expected = _relative_distance(trace.x, expected)
    checks = {
        "converged": trace.stop_reason == "converged",
        "matches_oracle": dist_expected <= ORACLE_MATCH_TOL,
    }
    distances = {
        "min_norm": _relative_distance(trace.x, xdag),
        "expected": dist_expected,
        "rhs_null_norm": float(np.linalg.norm(basis2.T @ b)),
    }
    return _finish(args, "solve", args.method, (m, n), spectral, trace, checks,
                   final_distances=distances)


def _cmd_diagnose(args) -> int:
    _check_tolerance("--tol", args.tol)
    a = _load_matrix(args.matrix)
    b = _load_vector(args.rhs)
    x0 = _x0_from_flag(args.x0, a.shape[0])
    spectral = _spectral_pipeline("cg", a, args.rank_tol)
    decomp = spectral[0]
    if decomp.rank == 0:
        raise ValueError(f"numerical rank is 0 at --rank-tol {args.rank_tol}: nothing to compare")
    trace = cg_solve(a, b, x0, SolverConfig(max_iters=args.iters))
    dtrace = decomposed_cg_run(decomp, b, x0, args.iters)
    equivalence = equivalence_check(trace, dtrace, decomp, args.tol)
    cons = consistency_check(decomp, b)

    checks = {"equivalence": equivalence.passed}
    diagnostics = {
        "max_deviation": equivalence.max_deviation,
        "iterations_compared": equivalence.iterations_compared,
        "consistent": cons.consistent,
        "rhs_null_norm": cons.null_norm,
        "decomposed_stop_reason": dtrace.stop_reason,
    }
    q2 = decomp.q2
    if cons.consistent:
        x2 = trace.iterates @ q2
        drift = float(np.max(np.linalg.norm(x2 - x2[0], axis=1))) / max(
            float(np.linalg.norm(x2[0])), 1.0
        )
        checks["null_stagnation"] = drift <= args.tol
        diagnostics["max_null_drift"] = drift
    else:
        confinement = null_direction_confinement(dtrace, args.tol)
        checks["null_confinement"] = confinement.passed
        diagnostics["max_null_direction_sine"] = confinement.max_angle
        b2 = dtrace.b2
        scale = max(float(np.linalg.norm(b2)), 1.0)
        r2 = trace.residuals[: equivalence.iterations_compared + 1] @ q2
        residual_drift = float(np.max(np.linalg.norm(r2 - b2, axis=1))) / scale
        checks["null_residual_constant"] = residual_drift <= args.tol
        diagnostics["max_null_residual_drift"] = residual_drift

    return _finish(args, "diagnose", "cg", a.shape, spectral, trace, checks,
                   diagnostics=diagnostics)


def _cmd_verify_bounds(args) -> int:
    spec, problem = _load_problem(args)
    a, b = problem.a, problem.b
    m, n = a.shape
    cfg = SolverConfig(max_iters=args.max_iters, rel_tol=args.rel_tol)

    spectral = _spectral_pipeline(args.method, a, args.rank_tol)
    dec = spectral[0]
    start = problem.x0 if args.method != "cgne" else np.zeros(m)
    trace = _run_method(args.method, a, b, start, cfg)

    if args.method == "cg":
        bound_report = cg_bound_verify(trace, dec)
    elif args.method == "cgls":
        bound_report = cgls_bound_verify(trace, dec, pinv_apply_rect(dec, b))
    else:
        bound_report = cgne_bound_verify(trace, dec)

    return _finish(
        args, "verify-bounds", args.method, (m, n), spectral, trace,
        {"bound_holds": bound_report.passed},
        measured=list(bound_report.measured),
        bound=list(bound_report.bound),
        contraction_factor=bound_report.contraction_factor,
        diagnostics={
            "bound_kind": bound_report.kind,
            "kappa_or_sigmas": list(bound_report.kappa_or_sigmas),
            "violations": [list(v) for v in bound_report.violations],
            "seed": spec.seed,
        },
    )


def _cmd_generate(args) -> int:
    spec, problem = _load_problem(args)
    os.makedirs(args.out_dir, exist_ok=True)
    texts = {
        "a.mtx": write_matrix_market(problem.a),
        "b.mtx": write_matrix_market(problem.b.reshape(-1, 1)),
        "x0.mtx": write_matrix_market(problem.x0.reshape(-1, 1)),
        "xstar.mtx": write_matrix_market(problem.xstar_reference.reshape(-1, 1)),
        "problem.json": json.dumps(spec.to_dict(), indent=2) + "\n",
    }
    paths = [os.path.join(args.out_dir, name) for name in texts]
    for path, text in zip(paths, texts.values()):
        write_text_atomic(path, text)
    print("\n".join(paths))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semikrylov",
        description="Solvers and diagnostics for singular symmetric systems and "
        "rank-deficient least squares",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_numeric(p, with_iters=True):
        if with_iters:
            p.add_argument("--max-iters", type=int, help="iteration cap")
            p.add_argument("--rel-tol", type=float, default=SolverConfig.rel_tol,
                           help="relative stopping tolerance")
        p.add_argument("--rank-tol", type=float, default=DEFAULT_RANK_TOL,
                       help="relative threshold for the numerical rank cut")

    solve = sub.add_parser("solve", help="run one method and compare against the oracle solution")
    solve.add_argument("--method", required=True, choices=["cg", "cgls", "cgne"])
    solve.add_argument("--matrix", required=True, help="Matrix Market file for A")
    solve.add_argument("--rhs", required=True, help="Matrix Market n x 1 file for b")
    solve.add_argument("--x0", default="zero", help="'zero' or 'file:<path>' (y0 for cgne)")
    add_numeric(solve)
    solve.add_argument("--out", help="JSON report path (stdout when omitted)")
    solve.add_argument("--trace-csv", help="per-iteration CSV trace path")
    solve.set_defaults(func=_cmd_solve)

    diagnose = sub.add_parser(
        "diagnose", help="compare plain CG with the transformed recurrence and check structure"
    )
    diagnose.add_argument("--matrix", required=True)
    diagnose.add_argument("--rhs", required=True)
    diagnose.add_argument("--x0", default="zero")
    diagnose.add_argument("--iters", type=int, required=True, help="iterations to run and compare")
    diagnose.add_argument("--tol", type=float, default=DIAGNOSE_TOL, help="structural tolerance")
    add_numeric(diagnose, with_iters=False)
    diagnose.add_argument("--out", help="JSON report path (stdout when omitted)")
    diagnose.set_defaults(func=_cmd_diagnose)

    verify = sub.add_parser(
        "verify-bounds", help="generate a seeded problem, run a method, verify its bound"
    )
    verify.add_argument("--method", required=True, choices=["cg", "cgls", "cgne"])
    verify.add_argument("--spec", required=True, help="problem spec JSON path")
    verify.add_argument("--seed", type=int, default=None, help="override the spec seed")
    add_numeric(verify)
    verify.add_argument("--out", help="JSON report path (stdout when omitted)")
    verify.add_argument("--trace-csv", help="per-iteration CSV trace path")
    verify.set_defaults(func=_cmd_verify_bounds)

    generate = sub.add_parser("generate", help="emit .mtx files and the spec for a seeded problem")
    generate.add_argument("--spec", required=True, help="problem spec JSON path")
    generate.add_argument("--seed", type=int, default=None, help="override the spec seed")
    generate.add_argument("--out-dir", required=True, help="directory for the emitted files")
    generate.set_defaults(func=_cmd_generate)

    return parser


# run_command's parser, built on first use; parsing leaves it unchanged
_shared_parser = functools.cache(build_parser)


def run_command(argv=None) -> int:
    """Parse argv, run the pipeline, return the exit code (0 pass / 1 fail / 2 error)."""
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ValueError, OSError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
