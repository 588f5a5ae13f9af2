"""Run reports: a JSON-stable summary of a solve or diagnostic pipeline."""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
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
# how json spells the non-finite values that float.__repr__ (and so csv) writes as nan, inf, -inf
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_WRITE_SLICE = 1 << 20  # characters written at a time


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

    def to_json(self, texts: dict | None = None) -> str:
        """``json.dumps(..., indent=2, sort_keys=True)`` of the report, byte for byte, with the arrays of
        ``texts`` (``_float_texts(self)``, shared with ``trace_csv_text``) joined from their texts."""
        texts = _float_texts(self) if texts is None else texts
        parts = []
        for name, value in sorted((vars(self) | {"dims": list(self.dims)}).items()):
            if name in texts:  # laid out as json.dumps lays out a list at this depth
                body = ",\n    ".join(map(_JSON_NON_FINITE.get, texts[name], texts[name]))
                value = f"[\n    {body}\n  ]" if body else "[]"
            elif isinstance(value, (dict, list, tuple)):  # no raw newline in its encoding: indent each line break
                value = json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  ")
            else:  # a scalar, which the default encoder writes as the indenting one does
                value = json.dumps(value)
            parts.append(f'  "{name}": {value}')
        return "{\n" + ",\n".join(parts) + "\n}\n"

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        return cls.from_dict(json.loads(text))


def _float_texts(report: RunReport) -> dict:
    """{field: [float.__repr__ of each value]} for each trace array that is a list of Python floats only:
    csv writes that text, and json too where finite. Other arrays are left to the json and csv encoders."""
    columns = ((name, getattr(report, name)) for name in _TRACE_FIELDS.values())
    return {name: list(map(float.__repr__, column)) for name, column in columns
            if type(column) is list and set(map(type, column)) <= {float}}


def trace_csv_text(report: RunReport, texts: dict | None = None) -> str:
    """Render the report's per-iteration arrays as CSV with the fixed trace columns.

    There is one row per entry of ``res_norms``; a column that is None or
    shorter than that leaves its cells empty. ``texts`` is
    ``_float_texts(report)``, shared with ``RunReport.to_json``.
    """
    texts = _float_texts(report) if texts is None else texts
    states, names = len(report.res_norms), _TRACE_FIELDS.values()
    columns = [texts.get(name, getattr(report, name)) or () for name in names]
    rows = islice(zip_longest(map(str, range(states)), *columns, fillvalue=""), states)
    if all(name in texts or not column for name, column in zip(names, columns)):
        # every cell is text with no delimiter, quote or line break, which csv writes as it is
        return "\r\n".join([",".join(TRACE_COLUMNS), *map(",".join, rows)]) + "\r\n"
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(TRACE_COLUMNS)
    writer.writerows(rows)
    return buf.getvalue()


def write_text_atomic(path, text: str) -> None:
    """Write text via a temp file and rename, so readers never see partial output."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".tmp-{os.urandom(8).hex()}")
    handle = None
    try:
        # "x" creates the file with mode 0o666 & ~umask, as open() does; mkstemp would give 0600
        with open(tmp, "x") as handle:
            # in slices, so the encoder never copies the whole text at once
            handle.writelines(text[k : k + _WRITE_SLICE] for k in range(0, len(text), _WRITE_SLICE))
        os.replace(tmp, path)
    except BaseException as exc:
        if handle is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        if isinstance(exc, OSError):
            # name the target, not the temp file, whose name differs from run to run
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
        raise
