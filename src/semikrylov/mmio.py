"""Matrix Market text I/O for dense real matrices.

Reads the ``array`` and ``coordinate`` formats with ``real`` entries and
``general`` or ``symmetric`` storage; symmetric storage is expanded to a
full dense matrix. A coordinate entry given twice is rejected, not summed
or overwritten. A size line may declare at most MAX_CELLS = 10**8 cells.
A well-formed body is parsed in bulk, any other entry by entry, so parse
failures still raise MatrixMarketError with the first bad 1-based line.
Writing always emits ``array real general`` with 17 significant digits,
which round-trips float64 exactly.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .linalg import as_matrix


class MatrixMarketError(ValueError):
    """Malformed Matrix Market content."""


_BANNER = "%%matrixmarket"
MAX_CELLS = 10**8
# one line and its end, at the line boundaries of str.splitlines; the last match is empty
_EOL = "\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029"
_LINE = re.compile(f"[^{_EOL}]*(?:\r\n|[{_EOL}]|\\Z)")


def _parse_positive_int(token: str, line_no: int, what: str) -> int:
    try:
        value = int(token)
    except ValueError:
        raise MatrixMarketError(f"line {line_no}: {what} {token!r} is not an integer") from None
    if value < 1:
        raise MatrixMarketError(f"line {line_no}: {what} must be positive, got {value}")
    return value


def _parse_real(token: str, line_no: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise MatrixMarketError(
            f"line {line_no}: entry {token!r} is not a real number"
        ) from None
    if not math.isfinite(value):
        raise MatrixMarketError(f"line {line_no}: entry {token!r} is not finite")
    return value


def _fill(mat: np.ndarray, cells: np.ndarray, values: list, symmetry: str) -> np.ndarray:
    """Set the flat cells of mat to values, mirrored across the diagonal for symmetric storage."""
    mat.flat[cells] = values
    if symmetry == "symmetric":
        ri, ci = np.divmod(cells, mat.shape[1])
        mat[ci, ri] = values
    return mat


def _entries(body: str, after: int) -> list:
    """(line number, stripped line) of each nonblank, non-comment line of body, from after + 1."""
    numbered = ((no, ln.strip()) for no, ln in enumerate(body.splitlines(), start=after + 1))
    return [(no, ln) for no, ln in numbered if ln and not ln.startswith("%")]


def _bulk_coordinate(body: list, tokens: list, rows: int, cols: int, nnz: int, symmetry: str):
    """Cells and values of a body of nnz valid 'row col value' lines, else None."""
    if len(body) != nnz or set(map(len, map(str.split, body))) != {3}:
        return None
    try:
        i, j = (np.array(list(map(int, tokens[k::3])), dtype=np.int64) for k in (0, 1))
        values = np.array(list(map(float, tokens[2::3])))
    except (ValueError, OverflowError):
        return None
    valid = (i >= 1) & (i <= rows) & (j >= 1) & (j <= cols) & np.isfinite(values)
    valid &= (symmetry == "general") | (i >= j)
    return ((i - 1) * cols + (j - 1), values) if valid.all() else None


def read_matrix_market(text) -> np.ndarray:
    """Parse Matrix Market content (str or bytes) into a dense float matrix."""
    if isinstance(text, (bytes, bytearray)):
        text = bytes(text).decode("latin-1")
    if not text:
        raise MatrixMarketError("line 1: empty input, expected a Matrix Market header")

    lines = _LINE.finditer(text)
    header = next(lines)[0].split()
    if len(header) != 5 or header[0].lower() != _BANNER:
        raise MatrixMarketError(
            "line 1: expected header '%%MatrixMarket matrix <format> <field> <symmetry>'"
        )
    obj, fmt, field, symmetry = (tok.lower() for tok in header[1:])
    if obj != "matrix":
        raise MatrixMarketError(f"line 1: unsupported object '{obj}' (only 'matrix' is supported)")
    if fmt not in ("array", "coordinate"):
        raise MatrixMarketError(
            f"line 1: unsupported format '{fmt}' (expected 'array' or 'coordinate')"
        )
    if field != "real":
        raise MatrixMarketError(f"line 1: unsupported field '{field}' (only 'real' is supported)")
    if symmetry not in ("general", "symmetric"):
        raise MatrixMarketError(
            f"line 1: unsupported symmetry '{symmetry}' (expected 'general' or 'symmetric')"
        )

    size_no, size = next(((no, m) for no, m in enumerate(lines, start=2)
                          if m[0].strip() and not m[0].lstrip().startswith("%")), (None, None))
    if size is None:
        raise MatrixMarketError(f"line {len(text.splitlines())}: missing size line")

    toks = size[0].split()
    if len(toks) != (2 if fmt == "array" else 3):
        shape = "rows cols" if fmt == "array" else "rows cols nnz"
        raise MatrixMarketError(f"line {size_no}: {fmt} size line must be '{shape}'")
    rows = _parse_positive_int(toks[0], size_no, "row count")
    cols = _parse_positive_int(toks[1], size_no, "column count")
    if fmt == "coordinate":
        try:
            nnz = int(toks[2])
        except ValueError:
            raise MatrixMarketError(f"line {size_no}: entry count {toks[2]!r} is not an integer") from None
        if nnz < 0:
            raise MatrixMarketError(f"line {size_no}: entry count must be nonnegative, got {nnz}")
    if symmetry == "symmetric" and rows != cols:
        raise MatrixMarketError(f"line {size_no}: symmetric storage requires a square matrix")
    if rows * cols > MAX_CELLS:
        raise MatrixMarketError(f"line {size_no}: {rows} x {cols} is over the {MAX_CELLS}-cell limit")

    # The bulk parse accepts only what the per-entry parse accepts and raises
    # nothing; whatever it rejects, the per-entry parse names the first bad line.
    # Every splitlines boundary is whitespace to str.split, so the body's lines
    # are listed only to drop comments, to check coordinate rows, or on failure.
    rest = text[size.end():]
    body = None
    if "%" in rest:
        body = [ln for ln in rest.splitlines() if not ln.lstrip().startswith("%")]
    tokens = rest.split() if body is None else " ".join(body).split()
    if fmt == "array":
        # Check the count before building anything the header's size implies.
        expected = rows * cols if symmetry == "general" else rows * (rows + 1) // 2
        try:
            parsed = np.array(list(map(float, tokens))) if len(tokens) == expected else None
        except ValueError:
            parsed = None
        if parsed is None or not np.isfinite(parsed).all():
            entries = _entries(rest, size_no)
            values = [(no, tok) for no, ln in entries for tok in ln.split()]
            if len(values) != expected:
                last = entries[-1][0] if entries else size_no
                raise MatrixMarketError(
                    f"line {last}: expected {expected} entries, found {len(values)}"
                )
            parsed = [_parse_real(tok, no) for no, tok in values]
        # flat cells in column-major order; symmetric storage lists the lower triangle
        if symmetry == "general":
            cells = np.arange(rows * cols).reshape(rows, cols).ravel(order="F")
        else:
            j, i = np.triu_indices(rows)
            cells = i * cols + j
        return _fill(np.zeros((rows, cols)), cells, parsed, symmetry)

    parsed = _bulk_coordinate(rest.splitlines() if body is None else body, tokens, rows, cols,
                              nnz, symmetry)
    if parsed is None:
        entries = _entries(rest, size_no)
        if len(entries) != nnz:
            last = entries[-1][0] if entries else size_no
            raise MatrixMarketError(f"line {last}: expected {nnz} entries, found {len(entries)}")
        cells, values = [], []
        for no, ln in entries:
            toks = ln.split()
            if len(toks) != 3:
                raise MatrixMarketError(f"line {no}: coordinate entry must be 'row col value'")
            i = _parse_positive_int(toks[0], no, "row index")
            j = _parse_positive_int(toks[1], no, "column index")
            if i > rows:
                raise MatrixMarketError(f"line {no}: row index {i} out of range 1..{rows}")
            if j > cols:
                raise MatrixMarketError(f"line {no}: column index {j} out of range 1..{cols}")
            values.append(_parse_real(toks[2], no))
            if symmetry == "symmetric" and i < j:
                raise MatrixMarketError(
                    f"line {no}: symmetric entries must satisfy row >= col, got ({i}, {j})"
                )
            cells.append((i - 1) * cols + (j - 1))
        parsed = np.array(cells, dtype=np.int64), values
    cells, values = parsed

    # one stable sort finds repeated cells; k is the earliest entry that repeats one
    order = np.argsort(cells, kind="stable")
    repeats = order[1:][np.diff(cells[order]) == 0]
    if repeats.size:
        k = repeats.min()
        i, j = divmod(int(cells[k]), cols)
        entries = _entries(rest, size_no)
        raise MatrixMarketError(
            f"line {entries[k][0]}: duplicate entry ({i + 1}, {j + 1}), "
            f"first given on line {entries[np.argmax(cells == cells[k])][0]}"
        )
    return _fill(np.zeros((rows, cols)), cells, values, symmetry)


def write_matrix_market(a) -> str:
    """Serialize a dense matrix as 'array real general' Matrix Market text."""
    a = as_matrix(a)
    rows, cols = a.shape
    body = ("%.17g\n" * a.size) % tuple(a.T.ravel().tolist())
    return f"%%MatrixMarket matrix array real general\n{rows} {cols}\n" + body


def load_matrix_market(path) -> np.ndarray:
    """Read a Matrix Market file from disk."""
    with open(path, "r", encoding="latin-1") as handle:
        text = handle.read()
    try:
        return read_matrix_market(text)
    except MatrixMarketError as exc:
        raise MatrixMarketError(f"{path}: {exc}") from None


def save_matrix_market(path, a) -> None:
    """Write a dense matrix to disk in Matrix Market format."""
    with open(path, "w", encoding="ascii") as handle:
        handle.write(write_matrix_market(a))
