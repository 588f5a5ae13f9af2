"""Spans around the calls into each layer, recorded from the benchmark's side.

While a ``Tracer`` is installed, every public function listed in
``WRAP_SITES`` is replaced, at the name its consumer imports it under, by a
wrapper that records a span: name, layer, start, end, parent span and
operation id. The program itself is not edited. A site that no longer
exists raises at install time, so a renamed function cannot silently drop
out of the trace. Spans stay in memory until ``write_spans``; self times
and the per-layer metrics are derived from them afterwards.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import statistics
import time

LAYERS = ("cli", "genmat", "mmio", "linalg", "oracle", "solvers", "decomposition", "bounds", "report")

# (module, attribute, layer). The cli module's own imports come first; the
# other modules are where the benchmark and the package's internal callers
# look names up at call time.
WRAP_SITES = (
    ("semikrylov.cli", "run_command", "cli"),
    ("semikrylov.cli", "make_problem", "genmat"),
    ("semikrylov.cli", "load_matrix_market", "mmio"),
    ("semikrylov.cli", "write_matrix_market", "mmio"),
    ("semikrylov.cli", "symmetric_eig", "linalg"),
    ("semikrylov.cli", "svd", "linalg"),
    ("semikrylov.cli", "consistency_check", "oracle"),
    ("semikrylov.cli", "pseudoinverse_apply", "oracle"),
    ("semikrylov.cli", "pinv_apply_rect", "oracle"),
    ("semikrylov.cli", "cg_solve", "solvers"),
    ("semikrylov.cli", "cgls_solve", "solvers"),
    ("semikrylov.cli", "cgne_solve", "solvers"),
    ("semikrylov.cli", "decomposed_cg_run", "decomposition"),
    ("semikrylov.cli", "equivalence_check", "decomposition"),
    ("semikrylov.cli", "null_direction_confinement", "decomposition"),
    ("semikrylov.cli", "cg_bound_verify", "bounds"),
    ("semikrylov.cli", "cgls_bound_verify", "bounds"),
    ("semikrylov.cli", "cgne_bound_verify", "bounds"),
    ("semikrylov.cli", "trace_csv_text", "report"),
    ("semikrylov.cli", "write_text_atomic", "report"),
    ("semikrylov.report", "RunReport.to_json", "report"),
    ("semikrylov.decomposition", "split", "oracle"),
    ("semikrylov.bounds", "consistency_check", "oracle"),
    ("semikrylov.genmat", "make_problem", "genmat"),
    ("semikrylov.mmio", "load_matrix_market", "mmio"),
    ("semikrylov.linalg", "symmetric_eig", "linalg"),
    ("semikrylov.linalg", "svd", "linalg"),
    ("semikrylov.oracle", "pinv_apply_rect", "oracle"),
    ("semikrylov.solvers", "cg_solve", "solvers"),
    ("semikrylov.solvers", "cgls_solve", "solvers"),
    ("semikrylov.solvers", "cgne_solve", "solvers"),
    ("semikrylov.decomposition", "decomposed_cg_run", "decomposition"),
    ("semikrylov.decomposition", "equivalence_check", "decomposition"),
    ("semikrylov.decomposition", "null_direction_confinement", "decomposition"),
    ("semikrylov.bounds", "cg_bound_verify", "bounds"),
    ("semikrylov.bounds", "cgls_bound_verify", "bounds"),
    ("semikrylov.bounds", "cgne_bound_verify", "bounds"),
)


def _trace_bytes(trace) -> int:
    fields = ("iterates", "residuals", "directions", "normal_residuals", "y_iterates")
    total = 0
    for field in fields:
        vectors = getattr(trace, field)
        # a list of vectors or a 2-D array of rows; never truth-tested, as an array cannot be
        total += 0 if vectors is None else sum(v.nbytes for v in vectors)
    return total


# Counts taken at the boundary, from a call's arguments and result.
_COUNTERS = {
    "cg_solve": lambda args, out: {"iterations": out.iterations, "trace_bytes": _trace_bytes(out)},
    "equivalence_check": lambda args, out: {"iterations_compared": out.iterations_compared},
    "cg_bound_verify": lambda args, out: {"states": len(out.measured)},
    "load_matrix_market": lambda args, out: {"bytes": os.path.getsize(args[0])},
    "write_matrix_market": lambda args, out: {"bytes": len(out)},
    "write_text_atomic": lambda args, out: {"bytes": len(args[1])},
}
_COUNTERS["cgls_solve"] = _COUNTERS["cgne_solve"] = _COUNTERS["cg_solve"]
_COUNTERS["cgls_bound_verify"] = _COUNTERS["cgne_bound_verify"] = _COUNTERS["cg_bound_verify"]


def _resolve(module_name: str, attribute: str):
    """(owner, name) for a dotted attribute such as 'RunReport.to_json'."""
    owner = importlib.import_module(module_name)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    if not callable(owner.__dict__.get(name)):
        raise RuntimeError(f"trace site {module_name}.{attribute} no longer exists")
    return owner, name


class Tracer:
    """Records spans while installed; ``op_id`` tags the spans of the current operation."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op_id = None
        self._stack: list[int] = []

    def _wrap(self, site: str, layer: str, fn):
        spans, stack = self.spans, self._stack
        counter = _COUNTERS.get(site.rsplit(".", 1)[-1])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": site, "layer": layer, "op": self.op_id,
                    "parent": stack[-1] if stack else None}
            stack.append(len(spans))
            spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if counter is not None:
                span.update(counter(args, result))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every site for the duration of the block, then restore the originals."""
        originals = []
        try:
            for module_name, attribute, layer in WRAP_SITES:
                owner, name = _resolve(module_name, attribute)
                original = owner.__dict__[name]
                originals.append((owner, name, original))
                setattr(owner, name, self._wrap(f"{module_name}.{attribute}", layer, original))
            yield self
        finally:
            for owner, name, original in reversed(originals):
                setattr(owner, name, original)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end"] - span["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, covered)]


def write_spans(spans: list[dict], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(spans: list[dict], latencies: list[float]) -> dict[str, float]:
    """Per-layer metrics of a traced loop whose operation ids index ``latencies``.

    Spans tagged "setup" feed only the per-call oracle timings and the
    ``*.setup_s`` metrics; spans tagged with an operation index feed the rest.
    """
    tagged = [dict(span, self=t) for span, t in zip(spans, self_times(spans))]
    loop = [s for s in tagged if isinstance(s["op"], int)]
    setup = [s for s in tagged if s["op"] == "setup"]
    ops = len(latencies)

    def duration(span) -> float:
        return span["end"] - span["start"]

    def named(chosen, suffix) -> list[dict]:
        return [s for s in chosen if s["name"].endswith(suffix)]

    def per_user(chosen, value) -> float:
        """Median, over the operations that make these calls, of each one's total."""
        totals = [0.0] * ops
        for span in chosen:
            totals[span["op"]] += value(span)
        return _median(totals[i] for i in {s["op"] for s in chosen})

    metrics: dict[str, float] = {}
    for layer in LAYERS:
        mine = [s for s in loop if s["layer"] == layer]
        metrics[f"{layer}.self_s"] = per_user(mine, lambda s: s["self"])
        metrics[f"{layer}.share"] = sum(s["self"] for s in mine) / sum(latencies)
        metrics[f"{layer}.calls"] = len(mine) / ops

    metrics["linalg.eig_s"] = _median(map(duration, named(loop + setup, ".symmetric_eig")))
    metrics["linalg.svd_s"] = _median(map(duration, named(loop + setup, ".svd")))
    for layer in ("linalg", "genmat"):
        metrics[f"{layer}.setup_s"] = float(sum(s["self"] for s in setup if s["layer"] == layer))

    solves = [s for s in loop if "iterations" in s]
    metrics["solvers.s_per_iter"] = _median(duration(s) / max(s["iterations"], 1) for s in solves)
    metrics["solvers.iterations"] = _median(s["iterations"] for s in solves)
    metrics["solvers.trace_mb"] = _median(s["trace_bytes"] / 1e6 for s in solves)

    checks = named(loop, ".equivalence_check")
    metrics["decomposition.run_s"] = _median(map(duration, named(loop, ".decomposed_cg_run")))
    metrics["decomposition.check_s"] = _median(map(duration, checks))
    metrics["decomposition.iterations_compared"] = _median(s["iterations_compared"] for s in checks)
    metrics["bounds.states"] = _median(s["states"] for s in loop if "states" in s)

    for kind, moved, suffix in (
        ("read", "read", ".load_matrix_market"),
        ("write", "written", ".write_matrix_market"),
    ):
        calls = named(loop, suffix)
        seconds = sum(map(duration, calls))
        metrics[f"mmio.{kind}_s"] = per_user(calls, duration)
        metrics[f"mmio.bytes_{moved}"] = per_user(calls, lambda s: s["bytes"])
        metrics[f"mmio.{kind}_mb_per_s"] = sum(s["bytes"] for s in calls) / 1e6 / seconds if calls else 0.0

    metrics["report.bytes_written"] = per_user(named(loop, ".write_text_atomic"), lambda s: s["bytes"])
    return metrics
