"""The benchmark's workloads.

Each workload builds everything it needs from the seed in ``setup`` and
then hands out cycles of operations. An operation's ``run`` is the timed
call into the program; its ``check`` compares the answer against the
references from ``checks`` and returns the problems found. Program
functions are looked up on their modules at call time, so a ``Tracer``
sees the benchmark's calls as well as the program's internal ones.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import shutil
from typing import Callable

import numpy as np

from semikrylov import bounds, cli, decomposition, genmat, linalg, mmio, oracle, solvers

import checks

DIAGNOSE_TOL = 1e-8
PROBLEM_SETS = 8  # cli_pipeline's cycles take turns over this many problem sets
INCONSISTENCY = 1e-3  # null-space part of an inconsistent right-hand side, relative to ||b||


class SetupError(RuntimeError):
    """The program failed a check while the workload's inputs were being built."""


@dataclasses.dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]


def _require(problems: list[str], what: str) -> None:
    if problems:
        raise SetupError(f"{what}: " + "; ".join(problems))


def _geometric(count: int, ratio: float, zeros: int = 0) -> list[float]:
    return list(np.geomspace(1.0, 1.0 / ratio, count)) + [0.0] * zeros


def _subseeds(rng: np.random.Generator, count: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**63, size=count)]


def _cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run_command(argv)
    return code, out.getvalue(), err.getvalue()


def _exit_problems(result) -> list[str]:
    code, _, err = result
    if code != 0:
        return [f"exit code {code}, expected 0: {err.strip()}"]
    return []


def _read_report(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _csv_rows(path: str) -> int:
    with open(path, encoding="utf-8") as handle:
        return sum(1 for _ in handle) - 1


def _clear(*dirs: str) -> None:
    """Empty output directories, so a command that writes nothing cannot pass on old files."""
    for directory in dirs:
        shutil.rmtree(directory, ignore_errors=True)
        os.makedirs(directory)


def _generate_problems(out_dir: str, expected: dict[str, np.ndarray], printed) -> list[str]:
    """Every emitted .mtx file parses, without the program's reader, to the expected array."""
    names = [os.path.join(out_dir, name) for name in ("a.mtx", "b.mtx", "x0.mtx", "xstar.mtx", "problem.json")]
    problems = checks.check_equal("printed paths", printed.split(), names)
    for name, array in expected.items():
        with open(os.path.join(out_dir, name), encoding="ascii") as handle:
            got = checks.parse_mtx_array(handle.read())
        problems += checks.check_bitwise(name, got, array.reshape(got.shape))
    return problems


class CliPipeline:
    """Seeded problems driven through every CLI subcommand, as files on disk.

    A cycle is 12 commands over four problems. Set-up builds
    ``PROBLEM_SETS`` distinct problem sets and cycles take turns over them,
    so one run averages over many matrices: the oracle's cost differs from
    matrix to matrix by whole Jacobi sweeps.
    """

    name = "cli_pipeline"

    def __init__(self, n: int = 64):
        self.n = n
        self.diagnose_iters = min(20, n // 3)

    def setup(self, seed: int, workdir: str) -> dict:
        rng = np.random.default_rng([seed, 1])
        sets = [self._problem_set(rng, os.path.join(workdir, f"set{k}")) for k in range(PROBLEM_SETS)]
        return {"sets": sets, "rel_errs": [e for s in sets for e in s["rel_errs"]]}

    def _problem_set(self, rng: np.random.Generator, workdir: str) -> dict:
        n, drop = self.n, self.n // 5
        rank = n - drop
        s1, s2, s3, s4 = _subseeds(rng, 4)
        specs = {
            "p1": genmat.ProblemSpec("spsd", (n, n), _geometric(rank, 1e2, drop), s1, x0_mode="random_full"),
            "p2": genmat.ProblemSpec("spsd", (n, n), _geometric(rank, 1e2, drop), s2, consistency_gap=1e-3),
            "p3": genmat.ProblemSpec(
                "rectangular", (n + n // 4, n), _geometric(rank, 1e1, drop), s3, consistency_gap=1e-2
            ),
            "p4": genmat.ProblemSpec("rectangular", (n - n // 4, n), _geometric(n - n // 4, 1e1), s4),
        }
        state = {"workdir": workdir, "specs": specs, "problems": {}, "expected": {}, "rel_errs": []}
        os.makedirs(workdir, exist_ok=True)
        for key, spec in specs.items():
            with open(os.path.join(workdir, f"{key}.json"), "w", encoding="utf-8") as handle:
                json.dump(spec.to_dict(), handle)
            problem = genmat.make_problem(spec)
            state["problems"][key] = problem
            rank = checks.spectrum_facts(spec.spectrum)[0]
            factors = checks.Factors(problem.a, rank, symmetric=spec.kind == "spsd")
            _require(
                checks.check_oracle(factors.numerical_rank, factors.values[0], factors.values[-1], spec.spectrum)
                + checks.check_accuracy(problem.xstar_reference, factors.pinv(problem.b)),
                f"generated problem {key}",
            )
            state[f"factors_{key}"] = factors

        # The CLI does not print x, so each solve command is tied to a library
        # run on the same inputs, whose x is checked against the references.
        p1, p3, p4 = (state["problems"][k] for k in ("p1", "p3", "p4"))
        runs = {
            "p1": (solvers.cg_solve(p1.a, p1.b, p1.x0), p1.xstar_reference + state["factors_p1"].row_null(p1.x0)),
            "p3": (solvers.cgls_solve(p3.a, p3.b, np.zeros(p3.a.shape[1])), p3.xstar_reference),
            "p4": (solvers.cgne_solve(p4.a, p4.b, np.zeros(p4.a.shape[0])), p4.xstar_reference),
        }
        for key, (trace, reference) in runs.items():
            _require(checks.check_accuracy(trace.x, reference), f"library solve of {key}")
            state["rel_errs"].append(checks.relative_error(trace.x, reference))
            state["expected"][key] = (trace.iterations, trace.res_norms[-1])
        return state

    def cycle(self, state: dict, index: int) -> list[Op]:
        state = state["sets"][index % len(state["sets"])]
        work = state["workdir"]
        specs = state["specs"]

        def path(*parts):
            return os.path.join(work, *parts)

        _clear(path("out"), *(path(key) for key in specs))

        def generate(key):
            problem = state["problems"][key]
            files = {"a.mtx": problem.a, "b.mtx": problem.b, "x0.mtx": problem.x0,
                     "xstar.mtx": problem.xstar_reference}

            def check(result):
                problems = _exit_problems(result)
                if problems:
                    return problems
                with open(path(key, "problem.json"), encoding="utf-8") as handle:
                    problems += checks.check_equal("problem.json", json.load(handle), specs[key].to_dict())
                return problems + _generate_problems(path(key), files, result[1])

            argv = ["generate", "--spec", path(f"{key}.json"), "--out-dir", path(key)]
            return Op("generate", lambda: _cli(argv), check)

        def common(result, out, spec, method, csv=None):
            problems = _exit_problems(result)
            if problems:
                return problems, None
            report = _read_report(out)
            problems += checks.check_equal("method", report["method"], method)
            problems += checks.check_summary(report, spec.spectrum)
            problems += checks.check_true("passed", report["passed"])
            for name, value in report["checks"].items():
                problems += checks.check_true(f"check {name}", value)
            if csv is not None:
                problems += checks.check_equal("CSV rows", _csv_rows(csv), report["iterations"] + 1)
            return problems, report

        def solve(key, method, x0):
            out, csv = path("out", f"{key}_solve.json"), path("out", f"{key}_solve.csv")
            argv = ["solve", "--method", method, "--matrix", path(key, "a.mtx"),
                    "--rhs", path(key, "b.mtx"), "--x0", x0, "--out", out, "--trace-csv", csv]
            iterations, last_res = state["expected"][key]

            def check(result):
                problems, report = common(result, out, specs[key], method, csv)
                if report is None:
                    return problems
                problems += checks.check_equal("stop_reason", report["stop_reason"], "converged")
                problems += checks.check_equal("iterations", report["iterations"], iterations)
                if not abs(report["res_norms"][-1] - last_res) <= 1e-9 * last_res:
                    problems.append(f"final residual {report['res_norms'][-1]!r}, library run gave {last_res!r}")
                if not report["final_distances"]["expected"] <= checks.ACCURACY_TOL:
                    problems.append(f"distance to the oracle solution {report['final_distances']['expected']:.3e}")
                return problems

            return Op("solve", lambda: _cli(argv), check)

        def diagnose(key, x0, consistent):
            out = path("out", f"{key}_diagnose.json")
            argv = ["diagnose", "--matrix", path(key, "a.mtx"), "--rhs", path(key, "b.mtx"),
                    "--x0", x0, "--iters", str(self.diagnose_iters), "--tol", str(DIAGNOSE_TOL), "--out", out]
            expected_checks = (
                {"equivalence", "null_stagnation"} if consistent
                else {"equivalence", "null_confinement", "null_residual_constant"}
            )

            def check(result):
                problems, report = common(result, out, specs[key], "cg")
                if report is None:
                    return problems
                problems += checks.check_equal("checks run", set(report["checks"]), expected_checks)
                problems += checks.check_equal("consistent", report["diagnostics"]["consistent"], consistent)
                if not consistent and report["stop_reason"] == "converged":
                    problems.append("an inconsistent CG run reports converged")
                return problems

            return Op("diagnose", lambda: _cli(argv), check)

        def verify(key, method):
            out, csv = path("out", f"{key}_bounds.json"), path("out", f"{key}_bounds.csv")
            argv = ["verify-bounds", "--method", method, "--spec", path(f"{key}.json"),
                    "--out", out, "--trace-csv", csv]

            def check(result):
                problems, report = common(result, out, specs[key], method, csv)
                if report is None:
                    return problems
                problems += checks.check_equal("stop_reason", report["stop_reason"], "converged")
                return problems + checks.check_equal("bound_holds", report["checks"].get("bound_holds"), True)

            return Op("verify-bounds", lambda: _cli(argv), check)

        x0_file = "file:" + path("p1", "x0.mtx")
        return [
            generate("p1"), solve("p1", "cg", x0_file), diagnose("p1", x0_file, True), verify("p1", "cg"),
            generate("p2"), diagnose("p2", "zero", False),
            generate("p3"), solve("p3", "cgls", "zero"), verify("p3", "cgls"),
            generate("p4"), solve("p4", "cgne", "zero"), verify("p4", "cgne"),
        ]


class KrylovTraces:
    """A sweep of fresh right-hand sides over three matrices decomposed once."""

    name = "krylov_traces"

    def __init__(self, n: int = 80):
        self.n = n

    def setup(self, seed: int, workdir: str) -> dict:
        n, drop = self.n, self.n // 6
        rank = n - drop
        s1, s2, s3 = _subseeds(np.random.default_rng([seed, 2]), 3)
        specs = {
            "spsd": genmat.ProblemSpec("spsd", (n, n), _geometric(rank, 1e4, drop), s1),
            "tall": genmat.ProblemSpec("rectangular", (n + drop, n), _geometric(rank, 1e2, drop), s2),
            "wide": genmat.ProblemSpec("rectangular", (rank, n), _geometric(rank, 1e2), s3),
        }
        state = {"seed": seed, "rel_errs": []}
        for key, spec in specs.items():
            a = genmat.make_problem(spec).a
            if spec.kind == "spsd":
                dec = linalg.symmetric_eig(a)
                extremes = dec.lambdas_r
            else:
                dec = linalg.svd(a)
                extremes = dec.sigmas_r
            _require(checks.check_oracle(dec.rank, extremes[0], extremes[-1], spec.spectrum), f"oracle of {key}")
            factors = checks.Factors(a, checks.spectrum_facts(spec.spectrum)[0], symmetric=spec.kind == "spsd")
            state[key] = (a, dec, factors)
        return state

    def cycle(self, state: dict, index: int) -> list[Op]:
        rng = np.random.default_rng([state["seed"], 3, index])

        def draw(key, inconsistent=False):
            a, dec, factors = state[key]
            b = a @ rng.standard_normal(a.shape[1])
            if inconsistent:
                null = factors.col_null_unit(rng.standard_normal(a.shape[0]))
                b = b + INCONSISTENCY * np.linalg.norm(b) * null
            start = rng.standard_normal(a.shape[0] if key == "wide" else a.shape[1])
            return a, dec, factors, b, start

        def accurate(x, reference):
            state["rel_errs"].append(checks.relative_error(x, reference))
            return checks.check_accuracy(x, reference)

        def cg(inconsistent):
            a, dec, factors, b, x0 = draw("spsd", inconsistent)

            def run():
                trace = solvers.cg_solve(a, b, x0)
                dtrace = decomposition.decomposed_cg_run(dec, b, x0, trace.iterations)
                equivalence = decomposition.equivalence_check(trace, dtrace, dec, DIAGNOSE_TOL)
                if inconsistent:
                    return trace, equivalence, decomposition.null_direction_confinement(dtrace, DIAGNOSE_TOL)
                return trace, equivalence, bounds.cg_bound_verify(trace, dec)

            def check(result):
                trace, equivalence, last = result
                problems = checks.check_true("equivalence", equivalence.passed)
                if inconsistent:
                    if trace.stop_reason == "converged":
                        problems.append("an inconsistent CG run reports converged")
                    return problems + checks.check_true("null confinement", last.passed)
                problems += checks.check_equal("stop_reason", trace.stop_reason, "converged")
                problems += checks.check_true("cg bound", last.passed)
                return problems + accurate(trace.x, factors.pinv(b) + factors.row_null(x0))

            return Op("cg_inconsistent" if inconsistent else "cg_consistent", run, check)

        def cgls(inconsistent):
            a, dec, factors, b, x0 = draw("tall", inconsistent)

            def run():
                trace = solvers.cgls_solve(a, b, x0)
                return trace, bounds.cgls_bound_verify(trace, dec, oracle.pinv_apply_rect(dec, b))

            def check(result):
                trace, bound = result
                problems = checks.check_equal("stop_reason", trace.stop_reason, "converged")
                problems += checks.check_true("cgls bound", bound.passed)
                return problems + accurate(trace.x, factors.pinv(b) + factors.row_null(x0))

            return Op("cgls_inconsistent" if inconsistent else "cgls_consistent", run, check)

        def cgne():
            a, dec, factors, b, y0 = draw("wide")

            def run():
                trace = solvers.cgne_solve(a, b, y0)
                return trace, bounds.cgne_bound_verify(trace, dec)

            def check(result):
                trace, bound = result
                problems = checks.check_equal("stop_reason", trace.stop_reason, "converged")
                problems += checks.check_true("cgne bound", bound.passed)
                return problems + accurate(trace.x, factors.pinv(b))

            return Op("cgne", run, check)

        return [cg(False), cg(True), cgls(False), cgls(True), cgne()]


class MtxIO:
    """generate writes a problem as Matrix Market text; every file is read back."""

    name = "mtx_io"

    def __init__(self, n: int = 400):
        self.n = n

    def setup(self, seed: int, workdir: str) -> dict:
        n = self.n
        (s1,) = _subseeds(np.random.default_rng([seed, 4]), 1)
        spec = genmat.ProblemSpec("spsd", (n, n), _geometric(n - n // 10, 1e3, n // 10), s1, x0_mode="random_full")
        spec_path = os.path.join(workdir, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as handle:
            json.dump(spec.to_dict(), handle)

        # Reference arrays: the first generate's files parsed without the
        # program's reader, which must reproduce the generator bit for bit.
        ref_dir = os.path.join(workdir, "reference")
        code, _, err = _cli(["generate", "--spec", spec_path, "--out-dir", ref_dir])
        _require(_exit_problems((code, "", err)), "reference generate")
        problem = genmat.make_problem(spec)
        references = {}
        for name, array in (("a", problem.a), ("b", problem.b), ("x0", problem.x0), ("xstar", problem.xstar_reference)):
            with open(os.path.join(ref_dir, f"{name}.mtx"), encoding="ascii") as handle:
                parsed = checks.parse_mtx_array(handle.read())
            _require(checks.check_bitwise(f"{name}.mtx", parsed, array.reshape(parsed.shape)), "writer round trip")
            references[name] = parsed
        coord_path = os.path.join(workdir, "coord.mtx")
        with open(coord_path, "w", encoding="ascii") as handle:
            handle.write(checks.coordinate_symmetric_text(references["a"]))
        return {"workdir": workdir, "spec_path": spec_path, "spec": spec.to_dict(),
                "references": references, "coord_path": coord_path, "rel_errs": []}

    def cycle(self, state: dict, index: int) -> list[Op]:
        out_dir = os.path.join(state["workdir"], "out")
        _clear(out_dir)
        names = ("a", "b", "x0", "xstar")
        paths = [os.path.join(out_dir, f"{name}.mtx") for name in names] + [state["coord_path"]]

        def run():
            result = _cli(["generate", "--spec", state["spec_path"], "--out-dir", out_dir])
            return result, [mmio.load_matrix_market(p) for p in paths]

        def check(outcome):
            result, matrices = outcome
            problems = _exit_problems(result)
            with open(os.path.join(out_dir, "problem.json"), encoding="utf-8") as handle:
                problems += checks.check_equal("problem.json", json.load(handle), state["spec"])
            refs = state["references"]
            for name, got in zip(names + ("coordinate a",), matrices):
                problems += checks.check_bitwise(f"{name}.mtx", got, refs[name.split()[-1]])
            return problems

        return [Op("generate+read", run, check)]


WORKLOADS = {w.name: w for w in (CliPipeline, KrylovTraces, MtxIO)}
