"""Compare what two checkouts of semikrylov print and compute, artifact by artifact.

Run from anywhere with ``python tests/data/compare_trees.py PARENT CHANGE
--seeds 907 11 4242 --cycles 12``. Each artifact is made by this checkout's
script once per tree, in a process that imports that tree's ``src``; the two
processes run side by side. Every artifact maps a case key to a record of
named fields:

- ``cli``: ``report_texts.py``, per CLI case of ``make_golden_reports.py``
  its exit code, stdout, stderr, CSV trace, ``problem.json``, each top-level
  report key and the ``--out`` text;
- ``replay``: every result of that tree's ``krylov_traces`` workload over
  ``--cycles`` cycles per seed, from ``replay_krylov_traces.py --tree TREE``:
  its stop reason, iteration count, verdict and a digest of each field of its
  trace and reports;
- ``unrecorded``: from the same run, every solver call of it run again with
  ``record_trace=False``;
- ``mtx``: ``write_mtx_files.py``, the text of every ``.mtx`` file that
  ``generate`` writes for a few specs, and of one ``save_matrix_market`` file;
- ``read``: ``read_mtx_files.py``, what the reader makes of those texts and of
  malformed bodies with every line break;
- ``scale``: ``scale_verdicts.py``, the rank, consistency and symmetry
  verdicts, the solver outcomes and ``diagnose``'s outcome on the golden
  problems scaled by 1e-170 to 1e160, and ``diagnose``'s outcome at full
  length on one scaled 40 x 40 problem whose last steps are at rounding level;
- ``api``: for every name in ``semikrylov.__all__``, the signature of a
  function, the dataclass fields with their defaults and the public member
  names of a class, or the value of a constant;
- ``help``: ``semikrylov <command> -h`` for each of the four commands at 80
  columns, a field per entry (``usage``, ``options``, ``--method``, ...).

One line per artifact reads ``<artifact>: equal`` or ``<artifact>: differs``.
Under a difference, each key whose records differ is named with the fields
that differ in it, a field found in one tree only marked ``(parent only)`` or
``(change only)``, and a key found in one tree only with that mark alone.
``replay`` and ``unrecorded`` name each kind (the solver, for ``unrecorded``)
instead, with its count of differing records, each tree's stop reasons and
iteration total, and the fields that differ in it. The exit code is 0 when
everything is equal, 1 when anything differs, and 2 when a tree fails to run.
"""

import argparse
import itertools
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ARTIFACTS = ("cli", "replay", "unrecorded", "mtx", "read", "scale", "api", "help")
# prints {command: {field: text}} of "semikrylov <command> -h" as JSON, a field per line indented by at
# most two spaces (named by its first word) with the lines after it that are indented further
HELP = """import contextlib, io, json, re, sys
from semikrylov.cli import run_command
texts = {}
for command in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()) as text:
        run_command([command, "-h"])
    parts = re.split(r"\\n(?= {0,2}\\S)", text.getvalue())
    texts[command] = {part.split()[0].rstrip(",:"): part for part in parts}
print(json.dumps(texts))
"""

# prints {name: {"signature"} of a function, {"fields", "members"} of a class, {"value"} of a constant}
# for every name in semikrylov.__all__, as JSON; a dataclass field reads "name", "name=<default repr>" or
# "name=<factory>"
API = """import dataclasses, inspect, json, semikrylov
def field(f):
    if f.default is not dataclasses.MISSING:
        return f"{f.name}={f.default!r}"
    return f.name if f.default_factory is dataclasses.MISSING else f"{f.name}=<factory>"
api = {}
for name in semikrylov.__all__:
    obj = getattr(semikrylov, name)
    if inspect.isclass(obj):
        fields = [field(f) for f in dataclasses.fields(obj)] if dataclasses.is_dataclass(obj) else []
        api[name] = {"fields": fields, "members": sorted(m for m in dir(obj) if not m.startswith("_"))}
    else:
        api[name] = {"signature": str(inspect.signature(obj))} if callable(obj) else {"value": repr(obj)}
print(json.dumps(api))
"""


def _rows(path: Path, artifact: str):
    """The ``(key, record)`` of each row of one artifact in a replay output, read one line at a time."""
    with open(path, encoding="utf-8") as lines:
        yield from ((tuple(key), record) for name, key, record in map(json.loads, lines) if name == artifact)


def _pairs(old, new):
    """``(key, old record, new record)`` for two streams of ``(key, record)``, paired by key, with None for a
    record of one stream only, last. A record waits in memory for its pair, so same-order streams keep none."""
    waiting = {}
    for rows in itertools.zip_longest(old, new, fillvalue=(None, None)):
        for side, (key, record) in enumerate(rows):
            pair = waiting.setdefault(key, [None, None])
            pair[side] = record
            if None not in pair:
                yield key, *waiting.pop(key)
    yield from ((key, *pair) for key, pair in waiting.items() if key is not None)


def _fields(old: dict, new: dict) -> list:
    """The fields that differ between two records, sorted, a field of one record only marked as such.
    ``result``, a replay result's digest of its field digests in order, is named only when no field differs."""
    # compared inside a list, where a NaN equals itself: json.loads reads every NaN as one object
    names = [name if name in old and name in new else f"{name} ({'parent' if name in old else 'change'} only)"
             for name in sorted(old.keys() | new.keys())
             if name not in old or name not in new or [old[name]] != [new[name]]]
    return [name for name in names if name != "result"] or names


def _diff(pairs, by_kind=False) -> list:
    """The lines that name what differs between paired records: each key with the fields that differ in it, a
    record of one tree only marked as such, or, ``by_kind``, each kind (the records' ``kind`` field) with its
    count of differing records, each tree's stop reasons and iteration total, and the fields that differ in it."""
    groups = {}
    for key, old, new in pairs:
        fields = _fields(old, new) if None not in (old, new) else [f"({'parent' if new is None else 'change'} only)"]
        group = groups.setdefault((old or new)["kind"] if by_kind else key, {
            "records": 0, "differ": 0, "fields": set(), "reasons": (Counter(), Counter()), "iterations": [0, 0]})
        group["records"] += 1
        group["differ"] += bool(fields)
        group["fields"].update(fields)
        for side, record in enumerate((old, new)):
            if by_kind and record:
                group["reasons"][side][record["stop_reason"]] += 1
                group["iterations"][side] += record["iterations"]
    lines = []
    for name, group in sorted(groups.items()):
        fields = ", ".join(sorted(group["fields"]))
        if fields and by_kind:
            reasons = [", ".join(f"{r} x{n}" for r, n in sorted(tree.items())) or "none" for tree in group["reasons"]]
            fields = (f"{group['differ']} of {group['records']} records differ; stop reasons {' / '.join(reasons)};"
                      f" iterations {group['iterations'][0]} / {group['iterations'][1]}; fields {fields}")
        if fields:
            lines.append(f"{name}: {fields}")
    return lines


def _run_both(name, trees, outs, argv):
    """Run ``python argv`` once per tree, at the same time, each writing its standard output to its file in
    ``outs``, and wait for both. ``{tree}`` in argv stands for the tree."""
    procs = []
    for tree, out in zip(trees, outs):
        args = [arg.replace("{tree}", str(tree)) for arg in argv]
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), COLUMNS="80")
        with open(out, "wb") as sink:
            procs.append(subprocess.Popen([sys.executable, *args], env=env, stdout=sink))
    for tree, code in zip(trees, [proc.wait() for proc in procs]):
        if code != 0:
            raise RuntimeError(f"{name} exited {code} in {tree}")


def compare(parent: Path, change: Path, seeds: list[int], cycles: int) -> bool:
    """Print one line per artifact, then what differs in it; True when every artifact is equal."""
    trees, equal = (parent, change), True
    with tempfile.TemporaryDirectory() as tmp:
        outs = {name: [Path(tmp, f"{name}-{side}") for side in ("parent", "change")] for name in ARTIFACTS}
        for name, script in (("cli", "report_texts.py"), ("mtx", "write_mtx_files.py"), ("read", "read_mtx_files.py"),
                             ("scale", "scale_verdicts.py")):
            _run_both(name, trees, outs[name], [str(HERE / script)])
        _run_both("replay", trees, outs["replay"], [str(HERE / "replay_krylov_traces.py"), "--tree", "{tree}",
                                                    "--seeds", *map(str, seeds), "--cycles", str(cycles)])
        _run_both("api", trees, outs["api"], ["-c", API])
        _run_both("help", trees, outs["help"], ["-c", HELP, "solve", "diagnose", "verify-bounds", "generate"])
        for name in ARTIFACTS:
            if name in ("replay", "unrecorded"):
                lines = _diff(_pairs(*(_rows(path, name) for path in outs["replay"])), by_kind=True)
            else:
                lines = _diff(_pairs(*(json.loads(path.read_text()).items() for path in outs[name])))
            equal &= not lines
            print(f"{name}: {'differs' if lines else 'equal'}")
            print("".join(f"  {line}\n" for line in lines), end="")
    return equal


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout to compare against")
    parser.add_argument("change", type=Path, help="checkout to compare")
    parser.add_argument("--seeds", type=int, nargs="+", default=[907, 11, 4242], help="krylov_traces seeds to replay")
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
