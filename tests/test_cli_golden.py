"""Replay the CLI invocations of tests/data/golden_reports.json and compare every output.

The golden file was written by tests/data/make_golden_reports.py before the
commands shared one report path. Exit codes, keys and strings must match
exactly. Floats must match to 1e-12 relative; the absolute floor of 1e-14
covers quantities that are zero in exact arithmetic (a consistent system's
null residual, say), which are pure rounding noise. The inputs are scaled
to order one, so the floor is a few tens of ulps of the problem's scale.
"""

import csv
import importlib.util
import io
import json
import math
from pathlib import Path

import pytest

DATA = Path(__file__).parent / "data"
_spec = importlib.util.spec_from_file_location("make_golden_reports", DATA / "make_golden_reports.py")
golden_script = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_script)

GOLDEN = json.loads((DATA / "golden_reports.json").read_text())
RTOL, ATOL = 1e-12, 1e-14


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("golden_inputs")
    golden_script.write_inputs(tmp)
    return tmp


def _assert_same(got, want, where):
    if isinstance(want, float) or isinstance(got, float):
        assert isinstance(got, (int, float)) and isinstance(want, (int, float)), where
        assert not isinstance(got, bool) and not isinstance(want, bool), where
        assert math.isclose(got, want, rel_tol=RTOL, abs_tol=ATOL), f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            _assert_same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for k, (g, w) in enumerate(zip(got, want)):
            _assert_same(g, w, f"{where}[{k}]")
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


def _assert_same_csv(got, want, where):
    got_rows = list(csv.reader(io.StringIO(got)))
    want_rows = list(csv.reader(io.StringIO(want)))
    assert got_rows[0] == want_rows[0], f"{where}: header"
    assert len(got_rows) == len(want_rows), f"{where}: row count"
    for k, (g_row, w_row) in enumerate(zip(got_rows[1:], want_rows[1:]), start=1):
        assert len(g_row) == len(w_row), f"{where} row {k}"
        for col, g, w in zip(want_rows[0], g_row, w_row):
            if g != w:
                _assert_same(float(g), float(w), f"{where} row {k} {col}")


def test_golden_covers_every_case():
    assert [case["name"] for case in GOLDEN] == [name for name, _, _ in golden_script.CASES]


@pytest.mark.parametrize("case", GOLDEN, ids=[case["name"] for case in GOLDEN])
def test_cli_output_matches_golden(case, inputs, monkeypatch):
    monkeypatch.delenv(golden_script.SEED_ENV, raising=False)
    for key, value in case["env"].items():
        monkeypatch.setenv(key, value)
    got = golden_script.run_case(inputs, case["argv"])
    assert got["exit"] == case["exit"]
    for key in ("stdout", "stderr", "problem_json"):
        assert got[key] == case[key], key
    _assert_same(got["report"], case["report"], "report")
    if case["csv"] is None:
        assert got["csv"] is None
    else:
        _assert_same_csv(got["csv"], case["csv"], "csv")


def test_cases_replayed_in_reverse_order_in_one_process(inputs, monkeypatch):
    """Every case again, last first, so state one call left in the shared parser would show."""
    for case in reversed(GOLDEN):
        with monkeypatch.context() as patch:
            test_cli_output_matches_golden(case, inputs, patch)
