"""Print the Matrix Market text the package writes, as one JSON object.

Run with ``PYTHONPATH=<tree>/src python tests/data/write_mtx_files.py``. The
object maps a case name to ``{file name: the exact text of the file}``:

- ``spsd-<n>``: every ``.mtx`` file that ``semikrylov generate`` writes for
  an spsd spec at n = 1, 2, 63, 64, 65 and 400, whose matrices are symmetric
  bit for bit;
- ``rectangular``: the same for one 70 x 60 rectangular spec;
- ``signed-zero``: ``signed-zero.mtx``, ``save_matrix_market`` of a
  symmetric 70 x 70 matrix except for one 0.0 mirrored by a -0.0.

The golden reports leave the ``.mtx`` files out, so this is what compares the
writer's bytes across two checkouts (see ``compare_trees.py``).
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from semikrylov.cli import run_command
from semikrylov.mmio import save_matrix_market


def _spectrum(count: int, rank: int) -> list:
    return np.geomspace(1.0, 1e-3, rank).tolist() + [0.0] * (count - rank)


SPECS = {f"spsd-{n}": {"kind": "spsd", "dims": [n, n], "spectrum": _spectrum(n, n - n // 5),
                       "seed": 1600 + n, "x0_mode": "random_full"} for n in (1, 2, 63, 64, 65, 400)}
SPECS["rectangular"] = {"kind": "rectangular", "dims": [70, 60], "spectrum": _spectrum(60, 50),
                        "seed": 1670, "consistency_gap": 0.1, "x0_mode": "random_range"}


def mtx_texts() -> dict:
    """{case: {file name: text}} of every file listed above."""
    texts = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, spec in SPECS.items():
            spec_path, out_dir = Path(tmp, f"{name}.json"), Path(tmp, name)
            spec_path.write_text(json.dumps(spec))
            with contextlib.redirect_stdout(io.StringIO()):
                code = run_command(["generate", "--spec", str(spec_path), "--out-dir", str(out_dir)])
            if code != 0:
                raise SystemExit(f"generate exited {code} for {name}")
            texts[name] = {path.name: path.read_text(encoding="ascii") for path in sorted(out_dir.glob("*.mtx"))}
        a = np.random.default_rng(1671).normal(size=(70, 70))
        a = a + a.T
        a[40, 3], a[3, 40] = 0.0, -0.0
        save_matrix_market(Path(tmp, "signed-zero.mtx"), a)
        texts["signed-zero"] = {"signed-zero.mtx": Path(tmp, "signed-zero.mtx").read_text(encoding="ascii")}
    return texts


def main() -> int:
    json.dump(mtx_texts(), sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
