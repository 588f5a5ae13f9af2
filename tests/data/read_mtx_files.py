"""Print what the package's Matrix Market reader makes of a set of texts, as one JSON object.

Run with ``PYTHONPATH=<tree>/src python tests/data/read_mtx_files.py``. The
object maps a case name to the reader's outcome: ``<rows>x<cols> sha256:<hex>``
of the matrix's bytes, or ``error: <message>``. The cases are:

- every text that ``write_mtx_files.py`` makes, under the same names;
- ``<body>/<break>``: a malformed body with each line break that
  ``str.splitlines`` knows, written as its ``repr``. The bodies are an
  ``array`` text one entry short, one entry over, and with a bad last entry,
  and a ``coordinate symmetric`` text one entry short, with a repeated entry,
  and with an index out of range. Each spans two parse pieces and holds
  comment lines in the middle and at the end.

So a reader change gets the same parent/change check the writer has (see
``compare_trees.py``).
"""

import hashlib
import json
import sys

import numpy as np

from semikrylov.mmio import MatrixMarketError, read_matrix_market
from write_mtx_files import mtx_texts

BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x85", "\u2028"]
N = 80  # the array body is about 125 KB of text, the coordinate body about 82 KB: two pieces each


def _bodies() -> dict:
    """{name: text with "\\n" breaks} of the malformed bodies."""
    a = np.random.default_rng(1700).normal(size=(N, N))
    a = a + a.T
    values = [f"{v!r}\n" for v in a.T.ravel().tolist()]
    values.insert(N, "% a comment\n")
    array = f"%%MatrixMarket matrix array real general\n{N} {N}\n"
    rows, cols = np.tril_indices(N)
    entries = [f"{i + 1} {j + 1} {v!r}\n"
               for i, j, v in zip(rows.tolist(), cols.tolist(), a[rows, cols].tolist())]
    entries.insert(N, "%\n")
    coordinate = f"%%MatrixMarket matrix coordinate real symmetric\n{N} {N} {rows.size}\n"
    tail = "% the end\n\n"
    return {
        "array-one-short": array + "".join(values[:-1]) + tail,
        "array-one-over": array + "".join(values) + "1.5\n" + tail,
        "array-bad-entry": array + "".join(values[:-1]) + "1.5x\n" + tail,
        "coordinate-one-short": coordinate + "".join(entries[:-1]) + tail,
        "coordinate-repeated": coordinate + "".join(entries[:-1]) + entries[0] + tail,
        "coordinate-out-of-range": coordinate + "".join(entries[:-1]) + f"{N + 1} 1 1.0\n" + tail,
    }


def _outcome(text: str) -> str:
    try:
        a = read_matrix_market(text)
    except MatrixMarketError as exc:
        return f"error: {exc}"
    return f"{a.shape[0]}x{a.shape[1]} sha256:{hashlib.sha256(a.tobytes()).hexdigest()}"


def main() -> int:
    outcomes = {name: _outcome(text) for name, text in mtx_texts().items()}
    for name, text in _bodies().items():
        for end in BREAKS:
            outcomes[f"{name}/{end!r}"] = _outcome(text.replace("\n", end))
    json.dump(outcomes, sys.stdout, indent=0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
