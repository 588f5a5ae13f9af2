"""RunReport encoding and the CSV trace, against the renderers they replaced.

``reference_to_json`` is the former ``RunReport.to_json``, which encoded a
deep copy made by ``dataclasses.asdict``; ``reference_trace_csv_text`` is the
former row-dict path: the rows built in ``cli._finish`` and written by the
``csv.DictWriter`` of ``trace_csv_text``. Both are kept verbatim, and the
current renderers must give the same text on any report.
"""

import csv
import io
import json
from dataclasses import asdict

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from semikrylov.report import TRACE_COLUMNS, RunReport, trace_csv_text


def reference_to_dict(self) -> dict:
    d = asdict(self)
    d["dims"] = list(self.dims)
    return d


def reference_to_json(self) -> str:
    return json.dumps(reference_to_dict(self), indent=2, sort_keys=True) + "\n"


def reference_rows(report):
    columns = {
        "alpha": report.alphas,
        "beta": report.betas,
        "res_norm": report.res_norms,
        "normal_res_norm": report.normal_res_norms,
        "range_res_norm": report.range_res_norms,
        "null_res_norm": report.null_res_norms,
        "measured_bound_quantity": report.measured,
        "bound_value": report.bound,
    }
    rows = [
        {"iter": k, **{col: v[k] for col, v in columns.items() if v is not None and k < len(v)}}
        for k in range(len(report.res_norms))
    ]
    return rows


def reference_trace_csv_text(rows: list[dict]) -> str:
    """Render per-iteration rows as CSV with the fixed trace columns."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=TRACE_COLUMNS)
    writer.writeheader()
    for row in rows:
        writer.writerow({col: row.get(col, "") for col in TRACE_COLUMNS})
    return buf.getvalue()


# -0.0, the smallest and largest subnormals, the smallest normal and the extremes
SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
           1.7976931348623157e308, -1.7976931348623157e308, 1e-300, 1e300]
floats = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False, allow_infinity=False),
                   st.floats())
keys = st.text(min_size=1, max_size=8)
scalars = st.one_of(st.none(), st.booleans(), st.integers(), floats, st.text(max_size=8))
# what a trace column may hold besides Python floats: each sends both renderers down their fallback
cells = st.one_of(floats, st.integers(), st.booleans(), floats.map(np.float64), st.text(max_size=4))
nested = st.recursive(scalars, lambda inner: st.lists(inner, max_size=3)
                      | st.dictionaries(keys, inner, max_size=3), max_leaves=8)


@st.composite
def reports(draw):
    """Reports with ragged, missing and empty columns; states 0 means no rows at all. Half of them
    hold Python floats only, the rest mix columns of floats with columns of any cells."""
    states = draw(st.integers(0, 7))
    mixed = draw(st.booleans())

    def column(optional=False, length=None):
        if optional and draw(st.booleans()):
            return None
        size = draw(st.integers(0, states + 1)) if length is None else max(length, 0)
        values = draw(st.sampled_from([floats, cells])) if mixed else floats
        return draw(st.lists(values, min_size=size, max_size=size))

    ragged = draw(st.booleans())
    iterations = max(states - 1, 0)
    return RunReport(
        command=draw(st.sampled_from(["solve", "diagnose", "verify-bounds"])),
        method=draw(st.sampled_from([None, "cg", "cgls", "cgne"])),
        dims=(draw(st.integers(1, 10**6)), draw(st.integers(1, 10**6))),
        rank=draw(st.integers(0, 100)),
        spectral_summary=draw(st.dictionaries(keys, floats, max_size=3)),
        stop_reason=draw(st.sampled_from([None, "converged", "max_iters", "breakdown"])),
        iterations=iterations,
        res_norms=column(length=states),
        alphas=column() if ragged else column(length=iterations),
        betas=column() if ragged else column(length=iterations),
        normal_res_norms=column(optional=True),
        range_res_norms=column(optional=True),
        null_res_norms=column(optional=True),
        measured=column(optional=True),
        bound=column(optional=True),
        contraction_factor=draw(st.one_of(st.none(), floats)),
        final_distances=draw(st.one_of(st.none(), st.dictionaries(keys, floats, max_size=3))),
        checks=draw(st.dictionaries(keys, st.booleans(), max_size=3)),
        passed=draw(st.booleans()),
        timestamp=draw(st.text(max_size=12)),
        diagnostics=draw(st.one_of(st.none(), st.dictionaries(keys, nested, max_size=4))),
    )


@settings(max_examples=250, deadline=None)
@given(reports())
def test_json_and_csv_match_the_reference_renderers(report):
    assert report.to_json() == reference_to_json(report)
    text = trace_csv_text(report)
    assert text == reference_trace_csv_text(reference_rows(report))
    assert text.count("\r\n") == len(report.res_norms) + 1


@settings(max_examples=60, deadline=None)
@given(reports())
def test_to_dict_is_independent_of_the_report(report):
    before = reference_to_json(report)
    d = report.to_dict()
    d["dims"].append(0)
    for value in d.values():
        if isinstance(value, list):
            value.append(1.0)
        elif isinstance(value, dict):
            value["added"] = [1.0]
            for inner in value.values():
                if isinstance(inner, (list, dict)):
                    inner.clear()
    assert reference_to_json(report) == before
    assert report.to_json() == before
