"""Print the exact text of every report and CSV trace file the golden CLI cases write, as JSON.

Run with ``PYTHONPATH=<tree>/src python tests/data/report_texts.py``. Each
case of ``make_golden_reports.py`` runs once, in the environment that script
gives it, and the case ``<name>`` maps ``--out`` and ``--trace-csv`` to the
bytes of the file it wrote there, decoded, with the value of the report's
``timestamp`` masked. A case that writes neither file is left out.

The golden reports compare these files only once parsed (the report) or read
with universal newlines (the CSV), so this is what compares their layout
across two checkouts (see ``compare_trees.py``).
"""

import contextlib
import io
import json
import os
import re
import tempfile
from pathlib import Path

from make_golden_reports import CASES, write_inputs
from semikrylov.cli import SEED_ENV, run_command


def main():
    base = {key: value for key, value in os.environ.items() if key != SEED_ENV}
    texts = {}
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp))
        for name, argv, env in CASES:
            argv = [arg.replace("{tmp}", tmp) for arg in argv]
            os.environ.clear()
            os.environ.update(base, **env)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                run_command(argv)
            files = {flag: Path(argv[argv.index(flag) + 1]) for flag in ("--out", "--trace-csv") if flag in argv}
            files = {flag: path.read_bytes().decode() for flag, path in files.items() if path.is_file()}
            if "--out" in files:
                files["--out"] = re.sub(r'(\n  "timestamp": )"[^"]*"', r'\1"*"', files["--out"])
            if files:
                texts[name] = files
    print(json.dumps(texts, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
