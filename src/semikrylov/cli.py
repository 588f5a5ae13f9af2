"""Command-line surface: solve, diagnose, verify-bounds, generate.

A report command (solve, diagnose, verify-bounds) reads the row of its
--method in one method table (diagnose runs cg) and runs four steps. It
decomposes A with the row's oracle (for cg the eigendecomposition, which first
checks that A is square and symmetric; else the SVD), reads the start along
the row's axis of A and runs the row's solver. Last, it writes the JSON report
atomically to --out (or to stdout), and the optional --trace-csv trace reads
each column from the report array of the same name. Exit codes: 0 when every
check in the run passed, 1 when a check failed, 2 on usage, parse, or input
errors, a malformed spec file included. SEMIKRYLOV_SEED overrides the seed of
a problem spec file; an explicit --seed flag overrides both.

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
from collections import namedtuple
from dataclasses import replace
from datetime import datetime, timezone

import numpy as np

from .bounds import cg_bound_verify, cgls_bound_verify, cgne_bound_verify
from .decomposition import decomposed_cg_run, equivalence_check, null_direction_confinement
from .genmat import ProblemSpec, make_problem
from .linalg import (DEFAULT_RANK_TOL, ConvergenceError, _check_count, _check_tolerance, _relative_distance,
                     _sized, svd, symmetric_eig)
from .mmio import load_matrix_market, write_matrix_market
from .oracle import consistency_check, pinv_apply_rect, pseudoinverse_apply
from .report import RunReport, _float_texts, trace_csv_text, write_text_atomic
from .solvers import SolverConfig, cg_solve, cgls_solve, cgne_solve

SEED_ENV = "SEMIKRYLOV_SEED"
ORACLE_MATCH_TOL = 1e-6
DIAGNOSE_TOL = 1e-8


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
        return _sized(_load_vector(flag[len("file:") :]), length, "initial guess")
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


def _row_norms(rows: np.ndarray, basis: np.ndarray) -> list:
    """np.linalg.norm(rows @ basis, axis=1) bit for bit, with the one product squared in place."""
    product = rows @ basis
    return np.sqrt(np.add.reduce(np.multiply(product, product, out=product), axis=1)).tolist()


_Method = namedtuple("_Method", "oracle start_axis solver min_norm limit bound_verify summary_names")


def _methods() -> dict:
    """The method table, built per call, so a name replaced on this module (by a tracer, say) is the one run."""
    sigma_names = ("sigma_1", "sigma_r", "sigma_ratio")
    return {
        "cg": _Method(symmetric_eig, 1, cg_solve, pseudoinverse_apply,
                      lambda dec, xdag, x0: xdag + dec.v2 @ (dec.v2.T @ x0),
                      lambda trace, dec, b: cg_bound_verify(trace, dec), ("lambda_1", "lambda_r", "kappa")),
        # the same vector as cg's limit x† + V2 V2ᵀ x0, in the rounding that the golden cgls reports pin
        "cgls": _Method(svd, 1, cgls_solve, pinv_apply_rect,
                        lambda dec, xdag, x0: xdag + (x0 - dec.v1 @ (dec.v1.T @ x0)),
                        lambda trace, dec, b: cgls_bound_verify(trace, dec, pinv_apply_rect(dec, b)), sigma_names),
        "cgne": _Method(svd, 0, cgne_solve, pinv_apply_rect, lambda dec, xdag, x0: xdag,
                        lambda trace, dec, b: cgne_bound_verify(trace, dec), sigma_names),
    }


def _run(args, a, b, start):
    """Decompose a with the oracle of --method, take start(axis) along its row's axis and run its solver."""
    row = _methods()[args.method]
    dec = row.oracle(a, args.rank_tol)
    x0 = start(row.start_axis)
    return row, dec, x0, row.solver(a, b, x0, SolverConfig(max_iters=args.max_iters, rel_tol=args.rel_tol))


def _finish(args, command, method, dec, trace, checks, **fields) -> int:
    """Build the report, write it (and the CSV trace) and return the exit code.

    The dims, rank, spectral summary and residual bases come from ``dec``, read
    as an SVD (U = V = Q for cg), and the summary's key names from the row of
    ``method``. ``fields`` are the command's own report fields. Each CSV column
    is read from the report array of the same name, so the CSV and the JSON
    cannot disagree.
    """
    summary = {}
    if dec.rank > 0:
        first, last = float(dec.sigmas_r[0]), float(dec.sigmas_r[-1])
        summary = dict(zip(_methods()[method].summary_names, (first, last, first / last)))
    passed = all(checks.values())
    report = RunReport(
        command=command,
        method=method,
        dims=dec.shape,
        rank=dec.rank,
        spectral_summary=summary,
        stop_reason=trace.stop_reason,
        iterations=trace.iterations,
        res_norms=list(trace.res_norms),
        alphas=list(trace.alphas),
        betas=list(trace.betas),
        normal_res_norms=list(trace.normal_res_norms) if trace.normal_res_norms else None,
        range_res_norms=_row_norms(trace.residuals, dec.u1),
        null_res_norms=_row_norms(trace.residuals, dec.u2),
        checks=checks,
        passed=passed,
        timestamp=datetime.now(timezone.utc).isoformat(),
        **(dict.fromkeys(("measured", "bound", "contraction_factor", "final_distances")) | fields),
    )
    texts = _float_texts(report)  # each number formatted once, for the JSON and the CSV
    text = report.to_json(texts)
    if getattr(args, "out", None):
        write_text_atomic(args.out, text)
    else:
        sys.stdout.write(text)
    if getattr(args, "trace_csv", None):
        write_text_atomic(args.trace_csv, trace_csv_text(report, texts))
    return 0 if passed else 1


def _cmd_solve(args) -> int:
    a = _load_matrix(args.matrix)
    b = _load_vector(args.rhs)
    row, dec, start, trace = _run(args, a, b, lambda axis: _x0_from_flag(args.x0, a.shape[axis]))
    xdag = row.min_norm(dec, b)
    expected = row.limit(dec, xdag, start)
    size = np.linalg.norm(trace.x) or 1.0  # what a zero reference is measured by (1 if x is zero too)
    distances = {
        "min_norm": _relative_distance(trace.x, xdag, np.linalg.norm(xdag) or size),
        "expected": _relative_distance(trace.x, expected, np.linalg.norm(expected) or size),
        "rhs_null_norm": consistency_check(dec, b).null_norm,
    }
    checks = {"converged": trace.stop_reason == "converged",
              "matches_oracle": distances["expected"] <= ORACLE_MATCH_TOL}
    return _finish(args, "solve", args.method, dec, trace, checks, final_distances=distances)


def _cmd_diagnose(args) -> int:
    _check_tolerance("--tol", args.tol)
    _check_count("--iters", args.iters, 1)
    a = _load_matrix(args.matrix)
    b = _load_vector(args.rhs)
    decomp = symmetric_eig(a, args.rank_tol)
    if decomp.rank == 0:
        raise ValueError(f"numerical rank is 0 at --rank-tol {args.rank_tol}: nothing to compare")
    x0 = _x0_from_flag(args.x0, decomp.dim)
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
        drift = _relative_distance(x2, x2[0], np.max(np.linalg.norm(trace.iterates, axis=1)))
        checks["null_stagnation"] = drift <= args.tol
        diagnostics["max_null_drift"] = drift
    else:
        # the plain run's null-space directions: in the eigenbasis run they stay on b2 by construction
        confinement = null_direction_confinement(replace(dtrace, p2=trace.directions @ q2), args.tol)
        checks["null_confinement"] = confinement.passed
        diagnostics["max_null_direction_sine"] = confinement.max_angle
        # every eigenbasis r2 row is b2, so this fails only when equivalence does
        residual_drift = equivalence.deviations["r2"]
        checks["null_residual_constant"] = residual_drift <= args.tol
        diagnostics["max_null_residual_drift"] = residual_drift

    return _finish(args, "diagnose", "cg", decomp, trace, checks, diagnostics=diagnostics)


def _cmd_verify_bounds(args) -> int:
    spec, problem = _load_problem(args)
    row, dec, _, trace = _run(args, problem.a, problem.b,  # the spec's x0 is a column start; cgne's y0 is 0
                              lambda axis: problem.x0 if axis == 1 else np.zeros(problem.a.shape[0]))
    bound_report = row.bound_verify(trace, dec, problem.b)
    return _finish(
        args, "verify-bounds", args.method, dec, trace, {"bound_holds": bound_report.passed},
        measured=list(bound_report.measured), bound=list(bound_report.bound),
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


# every flag once: its argparse keywords
_FLAGS = {
    "--method": dict(required=True, choices=list(_methods())),
    "--matrix": dict(required=True, help="Matrix Market file for A"),
    "--rhs": dict(required=True, help="Matrix Market n x 1 file for b"),
    "--x0": dict(default="zero", help="'zero' or 'file:<path>' (y0 for cgne)"),
    "--spec": dict(required=True, help="problem spec JSON path"),
    "--seed": dict(type=int, help="override the spec seed"),
    "--iters": dict(type=int, required=True, help="iterations to run and compare"),
    "--tol": dict(type=float, default=DIAGNOSE_TOL, help="structural tolerance"),
    "--max-iters": dict(type=int, help="iteration cap"),
    "--rel-tol": dict(type=float, default=SolverConfig.rel_tol, help="relative stopping tolerance"),
    "--rank-tol": dict(type=float, default=DEFAULT_RANK_TOL,
                       help="relative threshold for the numerical rank cut"),
    "--out": dict(help="JSON report path (stdout when omitted)"),
    "--trace-csv": dict(help="per-iteration CSV trace path"),
    "--out-dir": dict(required=True, help="directory for the emitted files"),
}

# (subcommand, handler, help, its flags in usage order)
_COMMANDS = (
    ("solve", _cmd_solve, "run one method and compare against the oracle solution",
     "--method --matrix --rhs --x0 --max-iters --rel-tol --rank-tol --out --trace-csv"),
    ("diagnose", _cmd_diagnose,
     "compare plain CG with the transformed recurrence and check structure",
     "--matrix --rhs --x0 --iters --tol --rank-tol --out"),
    ("verify-bounds", _cmd_verify_bounds,
     "generate a seeded problem, run a method, verify its bound",
     "--method --spec --seed --max-iters --rel-tol --rank-tol --out --trace-csv"),
    ("generate", _cmd_generate, "emit .mtx files and the spec for a seeded problem",
     "--spec --seed --out-dir"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semikrylov",
        description="Solvers and diagnostics for singular symmetric systems and "
        "rank-deficient least squares",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, summary, flags in _COMMANDS:
        command = sub.add_parser(name, help=summary)
        for flag in flags.split():
            command.add_argument(flag, **_FLAGS[flag])
        command.set_defaults(func=handler)
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
