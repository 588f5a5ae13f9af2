"""Compare what two checkouts of semikrylov print and compute, artifact by artifact.

Run from anywhere with ``python tests/data/compare_trees.py PARENT CHANGE
--seeds 907 11 4242 --cycles 12``. Each artifact is made once per tree, in a
process that imports that tree's ``src``; the two processes run side by side.

- ``golden``: this checkout's ``make_golden_reports.py``, every CLI case;
- ``replay``: this checkout's ``replay_krylov_traces.py --tree TREE``, which
  runs that tree's ``krylov_traces`` workload for ``--cycles`` cycles per seed;
- ``unrecorded``: the same replay with ``--unrecorded``, every solver call of
  it run again with ``record_trace=False``;
- ``mtx``: this checkout's ``write_mtx_files.py``, the text of every ``.mtx``
  file that ``generate`` writes for a few specs, and of one
  ``save_matrix_market`` file;
- ``read``: this checkout's ``read_mtx_files.py``, what the reader makes of
  those texts and of malformed bodies with every line break;
- ``scale``: this checkout's ``scale_verdicts.py``, the rank, consistency and
  symmetry verdicts, the solver outcomes and, on the spsd problems,
  ``diagnose``'s outcome on the golden problems scaled by 1e-12 to 1e12,
  and ``diagnose``'s outcome at full length on one scaled 40 x 40 problem
  whose last steps are at rounding level;
- ``help <command>``: ``semikrylov <command> -h`` for each of the four
  commands, at 80 columns.

One line per artifact reads ``<artifact>: equal`` or ``<artifact>: differs``.
A golden, mtx or read difference names the cases or files that differ, a
scale difference names each case with the fields that differ in it, a
replay or unrecorded difference names each operation kind (solver, for
unrecorded) with its count of differing records and, per tree, its stop
reasons and its iteration total, and a help difference is shown as a diff. The exit code is 0 when everything is
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
# writes, for each record of the replay pickle PATH, [kind, digest, stop reason, iterations]
# to PATH.json
RECORDS = """import hashlib, json, pickle, sys
rows = []
with open(sys.argv[1], "rb") as pickled:
    for record in pickle.load(pickled):
        *_, kind, result = record  # (seed, cycle, kind, result) or (solver, trace)
        trace = result[0] if isinstance(result, tuple) else result
        digest = hashlib.sha256(pickle.dumps(record, protocol=4)).hexdigest()
        rows.append([kind, digest, trace.stop_reason, trace.iterations])
with open(sys.argv[1] + ".json", "w") as out:
    json.dump(rows, out)
"""


def _differing(old: dict, new: dict) -> list:
    """The keys whose values differ between two JSON objects, sorted."""
    return sorted(k for k in old.keys() | new.keys() if old.get(k) != new.get(k))


def _kinds(old: list, new: list) -> list:
    """One line per operation kind with records that differ between two RECORDS outputs."""
    kinds = {}
    for tree, rows in enumerate((old, new)):
        for kind, _, reason, iterations in rows:
            entry = kinds.setdefault(kind, {"differ": 0, "reasons": ({}, {}), "iterations": [0, 0]})
            entry["reasons"][tree][reason] = entry["reasons"][tree].get(reason, 0) + 1
            entry["iterations"][tree] += iterations
    for a, b in zip(old, new):
        kinds[a[0]]["differ"] += a != b
    lines = []
    for kind, entry in sorted(kinds.items()):
        if entry["differ"]:
            reasons = [", ".join(f"{r} x{n}" for r, n in sorted(tree.items())) for tree in entry["reasons"]]
            lines.append(f"{kind}: {entry['differ']} of {sum(entry['reasons'][0].values())} records differ;"
                         f" stop reasons {reasons[0]} / {reasons[1]};"
                         f" iterations {entry['iterations'][0]} / {entry['iterations'][1]}")
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
        _run_both("replay", trees, outs("replay"),
                  [str(HERE / "replay_krylov_traces.py"), "--tree", "{tree}",
                   "--seeds", *map(str, seeds), "--cycles", str(cycles)])
        _run_both("unrecorded", trees, outs("unrecorded"),
                  [str(HERE / "replay_krylov_traces.py"), "--tree", "{tree}", "--unrecorded",
                   "--seeds", *map(str, seeds), "--cycles", str(cycles)])
        _run_both("mtx", trees, outs("mtx"), [str(HERE / "write_mtx_files.py")])
        _run_both("read", trees, outs("read"), [str(HERE / "read_mtx_files.py")])
        _run_both("scale", trees, outs("scale"), [str(HERE / "scale_verdicts.py")])
        _run_both("help", trees, outs("help"), ["-c", HELP, *COMMANDS])

        for name in ("golden", "replay", "unrecorded", "mtx", "read", "scale"):
            same = filecmp.cmp(*outs(name), shallow=False)
            equal &= same
            print(f"{name}: {'equal' if same else 'differs'}")
            if name == "golden" and not same:
                old, new = (json.loads(path.read_text()) for path in outs(name))
                names = [a["name"] for a, b in zip(old, new) if a != b]
                print("  cases: " + ", ".join(names))
            if name in ("replay", "unrecorded") and not same:
                _run_both(name, trees, outs(name), ["-c", RECORDS, "{out}"], stdout=False)
                old, new = (json.loads(Path(f"{path}.json").read_text()) for path in outs(name))
                print("\n".join("  " + line for line in _kinds(old, new)))
            if name in ("mtx", "read", "scale") and not same:
                old, new = (json.loads(path.read_text()) for path in outs(name))
                keys = _differing(old, new)
                if name == "scale":
                    keys = [f"{k} ({', '.join(_differing(old.get(k, {}), new.get(k, {})))})" for k in keys]
                print(f"  {'files' if name == 'mtx' else 'cases'}: " + ", ".join(keys))
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
    parser.add_argument("--cycles", type=int, default=12, help="cycles to replay per seed")
    args = parser.parse_args(argv)
    try:
        equal = compare(args.parent.resolve(), args.change.resolve(), args.seeds, args.cycles)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if equal else 1


if __name__ == "__main__":
    sys.exit(main())
