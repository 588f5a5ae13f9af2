"""Print what every golden CLI case prints and writes, one record of named fields per case, as JSON.

Run with ``PYTHONPATH=<tree>/src python tests/data/report_texts.py``. Each
case of ``make_golden_reports.py`` runs once, through that script's
``run_case``, in the environment that script gives it. The case ``<name>``
maps to ``run_case``'s record with its ``report`` spread into one field
``report.<key>`` per top-level key, and ``--out``: the bytes of the report
file, decoded, with the value of its ``timestamp`` masked and the directory's
path stored as ``{tmp}``.

The golden reports compare the report only once parsed, so ``--out`` is what
compares its layout across two checkouts (see ``compare_trees.py``). The CSV
trace's exact bytes, ``\\r\\n`` line ends included, are pinned in
``tests/test_cli.py``.
"""

import json
import os
import re
import tempfile
from pathlib import Path

from make_golden_reports import CASES, _option, run_case, write_inputs
from semikrylov.cli import SEED_ENV


def main():
    base = {key: value for key, value in os.environ.items() if key != SEED_ENV}
    cases = {}
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp))
        for name, argv, env in CASES:
            os.environ.clear()
            os.environ.update(base, **env)
            record = cases[name] = run_case(Path(tmp), argv)
            record.update({f"report.{key}": value for key, value in (record.pop("report") or {}).items()})
            out = _option([arg.replace("{tmp}", tmp) for arg in argv], "--out")
            if out is not None and Path(out).is_file():
                text = Path(out).read_bytes().decode().replace(tmp, "{tmp}")
                record["--out"] = re.sub(r'(\n  "timestamp": )"[^"]*"', r'\1"*"', text)
    print(json.dumps(cases, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
