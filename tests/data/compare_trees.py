"""Compare what two checkouts of semikrylov print and compute, artifact by artifact.

Run from anywhere with ``python tests/data/compare_trees.py PARENT CHANGE
--seeds 907 11 4242 --cycles 12``. Each artifact is made once per tree, in a
process that imports that tree's ``src``; the two processes run side by side.

- ``golden``: this checkout's ``make_golden_reports.py``, every CLI case;
- ``text``: this checkout's ``report_texts.py``, the exact text of every
  report (its ``timestamp`` masked) and CSV trace file those cases write;
- ``replay``: a digest of every result of that tree's ``krylov_traces``
  workload, run for ``--cycles`` cycles per seed by this checkout's
  ``replay_krylov_traces.py --tree TREE``;
- ``unrecorded``: from the same run, a digest of every solver call of it run
  again with ``record_trace=False``;
- ``mtx``: this checkout's ``write_mtx_files.py``, the text of every ``.mtx``
  file that ``generate`` writes for a few specs, and of one
  ``save_matrix_market`` file;
- ``read``: this checkout's ``read_mtx_files.py``, what the reader makes of
  those texts and of malformed bodies with every line break;
- ``scale``: this checkout's ``scale_verdicts.py``, the rank, consistency and
  symmetry verdicts, the solver outcomes and, on the spsd problems,
  ``diagnose``'s outcome (its checks, drifts and both runs' stop reasons)
  on the golden problems scaled by 1e-12 to 1e12,
  and ``diagnose``'s outcome at full length on one scaled 40 x 40 problem
  whose last steps are at rounding level;
- ``api``: for every name in ``semikrylov.__all__``, the signature of a
  function, the dataclass fields and public member names of a class, or the
  value of a constant;
- ``help <command>``: ``semikrylov <command> -h`` for each of the four
  commands, at 80 columns.

One line per artifact reads ``<artifact>: equal`` or ``<artifact>: differs``.
A golden, mtx or read difference names the cases or files that differ, a
text, scale or api difference names each case or name with the fields (for
text, the files) that differ in it, a replay or unrecorded difference names
each operation kind (solver, for unrecorded) with its count of differing
records and, per tree, its stop reasons and its iteration total, then names
any record (paired by seed, cycle and kind) found in one tree only, and a
help difference is shown as a diff. The exit code is 0 when everything is
equal, 1 when anything differs, and 2 when a tree fails to run.
"""

import argparse
import difflib
import filecmp
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
COMMANDS = ("solve", "diagnose", "verify-bounds", "generate")
# prints {command: the text of "semikrylov <command> -h"} as JSON
HELP = """import contextlib, io, json, sys
from semikrylov.cli import run_command
texts = {}
for command in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()) as text:
        run_command([command, "-h"])
    texts[command] = text.getvalue()
print(json.dumps(texts))
"""

# prints {name: {"signature"} of a function, {"fields", "members"} of a class, {"value"} of a constant}
# for every name in semikrylov.__all__, as JSON
API = """import dataclasses, inspect, json, semikrylov
api = {}
for name in semikrylov.__all__:
    obj = getattr(semikrylov, name)
    if inspect.isclass(obj):
        fields = [f.name for f in dataclasses.fields(obj)] if dataclasses.is_dataclass(obj) else []
        api[name] = {"fields": fields, "members": sorted(m for m in dir(obj) if not m.startswith("_"))}
    else:
        api[name] = {"signature": str(inspect.signature(obj))} if callable(obj) else {"value": repr(obj)}
print(json.dumps(api))
"""


def _differing(old: dict, new: dict) -> list:
    """The keys whose values differ between two JSON objects, sorted."""
    return sorted(k for k in old.keys() | new.keys() if old.get(k) != new.get(k))


def _rows(path: Path) -> tuple[dict, dict]:
    """The replay rows of one replay output keyed by (seed, cycle, kind), and the unrecorded rows
    keyed by the operation whose row follows them and their place among its solver calls."""
    replay, unrecorded, reruns = {}, {}, []
    for row in map(json.loads, path.read_text(encoding="utf-8").splitlines()):
        if len(row) == 4:  # [solver, digest, stop reason, iterations]
            reruns.append(row)
        else:  # [seed, cycle, kind, digest, stop reason, iterations, passed]
            replay[tuple(row[:3])] = row[2:]
            unrecorded.update(((*row[:3], call), rerun) for call, rerun in enumerate(reruns))
            reruns = []
    return replay, unrecorded


def _kinds(old: dict, new: dict) -> list:
    """One line per kind with records that differ between two trees' rows, paired by key, then the
    records in one tree only. A row reads ``[kind, digest, stop reason, iterations, ...]``."""
    keys, lines = old.keys() | new.keys(), []
    for kind in sorted({(old.get(key) or new[key])[0] for key in keys}):
        ours = [key for key in keys if (old.get(key) or new[key])[0] == kind]
        differ = sum(old.get(key) != new.get(key) for key in ours)
        if not differ:
            continue
        trees = [[rows[key] for key in ours if key in rows] for rows in (old, new)]
        reasons = [", ".join(f"{r} x{n}" for r, n in sorted(Counter(row[2] for row in tree).items())) or "none"
                   for tree in trees]
        iterations = [sum(row[3] for row in tree) for tree in trees]
        lines.append(f"{kind}: {differ} of {len(ours)} records differ; stop reasons {reasons[0]} / {reasons[1]};"
                     f" iterations {iterations[0]} / {iterations[1]}")
    for side, rows, other in (("parent", old, new), ("change", new, old)):
        if only := sorted(rows.keys() - other.keys()):
            lines.append(f"only in {side}: " + ", ".join("/".join(map(str, key)) for key in only))
    return lines


def _run_both(name, trees, outs, argv, stdout=True):
    """Run ``python argv`` once per tree, at the same time, and wait for both.

    ``{tree}`` and ``{out}`` in argv stand for the tree and its output file;
    with ``stdout`` the process's standard output is that file.
    """
    procs = []
    for tree, out in zip(trees, outs):
        args = [arg.replace("{tree}", str(tree)).replace("{out}", str(out)) for arg in argv]
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), COLUMNS="80")
        with open(out if stdout else os.devnull, "wb") as sink:
            procs.append(subprocess.Popen([sys.executable, *args], env=env, stdout=sink))
    codes = [proc.wait() for proc in procs]
    for tree, code in zip(trees, codes):
        if code != 0:
            raise RuntimeError(f"{name} exited {code} in {tree}")


def compare(parent: Path, change: Path, seeds: list[int], cycles: int) -> bool:
    """Print one line per artifact; True when every artifact is equal."""
    trees, equal = (parent, change), True
    with tempfile.TemporaryDirectory() as tmp:
        def outs(name):
            return [Path(tmp, f"{name}-{side}") for side in ("parent", "change")]

        _run_both("golden", trees, outs("golden"),
                  [str(HERE / "make_golden_reports.py"), "{out}"], stdout=False)
        _run_both("text", trees, outs("text"), [str(HERE / "report_texts.py")])
        _run_both("replay", trees, outs("replay"),
                  [str(HERE / "replay_krylov_traces.py"), "--tree", "{tree}",
                   "--seeds", *map(str, seeds), "--cycles", str(cycles)])
        _run_both("mtx", trees, outs("mtx"), [str(HERE / "write_mtx_files.py")])
        _run_both("read", trees, outs("read"), [str(HERE / "read_mtx_files.py")])
        _run_both("scale", trees, outs("scale"), [str(HERE / "scale_verdicts.py")])
        _run_both("api", trees, outs("api"), ["-c", API])
        _run_both("help", trees, outs("help"), ["-c", HELP, *COMMANDS])

        replays = dict(zip(("replay", "unrecorded"), zip(*map(_rows, outs("replay")))))
        for name in ("golden", "text", "replay", "unrecorded", "mtx", "read", "scale", "api"):
            same = replays[name][0] == replays[name][1] if name in replays else filecmp.cmp(*outs(name), shallow=False)
            equal &= same
            print(f"{name}: {'equal' if same else 'differs'}")
            if name == "golden" and not same:
                old, new = (json.loads(path.read_text()) for path in outs(name))
                names = [a["name"] for a, b in zip(old, new) if a != b]
                print("  cases: " + ", ".join(names))
            if name in replays and not same:
                print("\n".join("  " + line for line in _kinds(*replays[name])))
            if name in ("text", "mtx", "read", "scale", "api") and not same:
                old, new = (json.loads(path.read_text()) for path in outs(name))
                keys = _differing(old, new)
                if name in ("text", "scale", "api"):
                    keys = [f"{k} ({', '.join(_differing(old.get(k, {}), new.get(k, {})))})" for k in keys]
                print(f"  {dict(mtx='files', api='names').get(name, 'cases')}: " + ", ".join(keys))
        old, new = (json.loads(path.read_text()) for path in outs("help"))
        for command in COMMANDS:
            same = old[command] == new[command]
            equal &= same
            print(f"help {command}: {'equal' if same else 'differs'}")
            if not same:
                diff = difflib.unified_diff(old[command].splitlines(), new[command].splitlines(),
                                            "parent", "change", lineterm="")
                print("\n".join("  " + line for line in diff))
    return equal


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout to compare against")
    parser.add_argument("change", type=Path, help="checkout to compare")
    parser.add_argument("--seeds", type=int, nargs="+", default=[907, 11, 4242],
                        help="krylov_traces seeds to replay")
    parser.add_argument("--cycles", type=int, default=12, help="cycles to replay per seed, at least 1")
    args = parser.parse_args(argv)
    if args.cycles < 1:
        parser.error(f"--cycles must be at least 1, not {args.cycles}")
    try:
        equal = compare(args.parent.resolve(), args.change.resolve(), args.seeds, args.cycles)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if equal else 1


if __name__ == "__main__":
    sys.exit(main())
