"""Run reports: a JSON-stable summary of a solve or diagnostic pipeline."""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
from dataclasses import asdict, dataclass
from itertools import islice, zip_longest

# each CSV trace column after "iter", and the RunReport array it reads
_TRACE_FIELDS = {
    "alpha": "alphas",
    "beta": "betas",
    "res_norm": "res_norms",
    "normal_res_norm": "normal_res_norms",
    "range_res_norm": "range_res_norms",
    "null_res_norm": "null_res_norms",
    "measured_bound_quantity": "measured",
    "bound_value": "bound",
}
TRACE_COLUMNS = ["iter", *_TRACE_FIELDS]


@dataclass(frozen=True)
class RunReport:
    """Everything one CLI run reports, with a lossless JSON round trip.

    Per-iteration arrays are parallel-indexed by state (alphas/betas are one
    shorter, one entry per completed iteration). Optional arrays are None
    when the pipeline that produced the report does not define them.
    """

    command: str
    method: str | None
    dims: tuple[int, int]
    rank: int
    spectral_summary: dict
    stop_reason: str | None
    iterations: int
    res_norms: list
    alphas: list
    betas: list
    normal_res_norms: list | None
    range_res_norms: list | None
    null_res_norms: list | None
    measured: list | None
    bound: list | None
    contraction_factor: float | None
    final_distances: dict | None
    checks: dict
    passed: bool
    timestamp: str
    diagnostics: dict | None = None

    def to_dict(self) -> dict:
        return asdict(self) | {"dims": list(self.dims)}

    @classmethod
    def from_dict(cls, d: dict) -> "RunReport":
        d = dict(d)
        d["dims"] = tuple(d["dims"])
        return cls(**d)

    def to_json(self) -> str:
        # json.dumps only reads the fields, so they are encoded in place, not via a deep copy
        return json.dumps(vars(self) | {"dims": list(self.dims)}, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        return cls.from_dict(json.loads(text))


def trace_csv_text(report: RunReport) -> str:
    """Render the report's per-iteration arrays as CSV with the fixed trace columns.

    There is one row per entry of ``res_norms``; a column that is None or
    shorter than that leaves its cells empty.
    """
    states = len(report.res_norms)
    columns = [getattr(report, name) or () for name in _TRACE_FIELDS.values()]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(TRACE_COLUMNS)
    writer.writerows(islice(zip_longest(range(states), *columns, fillvalue=""), states))
    return buf.getvalue()


def write_text_atomic(path, text: str) -> None:
    """Write text via a temp file and rename, so readers never see partial output."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
