"""Matrix Market text I/O for dense real matrices.

Reads the ``array`` and ``coordinate`` formats with ``real`` entries and
``general`` or ``symmetric`` storage; symmetric storage is expanded to a
full dense matrix. A coordinate entry given twice is rejected, not summed
or overwritten. A size line may declare at most MAX_CELLS = 10**8 cells.
Only ``_bulk`` turns a body into values, piece by piece straight into the
result arrays, so a read needs the text plus a few copies of the matrix. A
body it rejects is walked line by line once more, only to name the error and
its 1-based line; that walk keeps no values, so a malformed file costs no more
memory than a well-formed one. Writing emits ``array real general`` with 17
significant digits, formatted in blocks; files go through ``write_text_atomic``.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .linalg import as_matrix
from .report import write_text_atomic


class MatrixMarketError(ValueError):
    """Malformed Matrix Market content."""


_BANNER = "%%matrixmarket"
MAX_CELLS = 10**8
# one line and its end, at the line boundaries of str.splitlines; the last match is empty
_EOL = "\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029"
_LINE = re.compile(f"[^{_EOL}]*(?:\r\n|[{_EOL}]|\\Z)")
_SLICE = 1 << 16  # body characters parsed at a time, give or take one line
_BLOCK = 1 << 12  # values the writer formats at a time


def _parse_int(token: str, line_no: int, what: str, least: int = 1) -> int:
    try:
        value = int(token)
    except ValueError:
        raise MatrixMarketError(f"line {line_no}: {what} {token!r} is not an integer") from None
    if value < least:
        bound = "positive" if least else "nonnegative"
        raise MatrixMarketError(f"line {line_no}: {what} must be {bound}, got {value}")
    return value


def _parse_real(token: str, line_no: int) -> None:
    try:
        value = float(token)
    except ValueError:
        raise MatrixMarketError(
            f"line {line_no}: entry {token!r} is not a real number"
        ) from None
    if not math.isfinite(value):
        raise MatrixMarketError(f"line {line_no}: entry {token!r} is not finite")


def _fill(mat: np.ndarray, cells: np.ndarray, values: np.ndarray, symmetry: str) -> np.ndarray:
    """Set the flat cells of mat to values, mirrored across the diagonal for symmetric storage."""
    mat.flat[cells] = values
    if symmetry == "symmetric":
        ri, ci = np.divmod(cells, mat.shape[1])
        mat[ci, ri] = values
    return mat


def _content(text: str, start: int, no: int):
    """(line number, match) of each nonblank, non-comment line of text[start:], from line no."""
    for no, line in enumerate(_LINE.finditer(text, start), start=no):
        stripped = line[0].strip()
        if stripped and not stripped.startswith("%"):
            yield no, line
    return no - 1  # the number of the last line; the last match is the empty one at the end


def _check_entry(toks: list, no: int, fmt: str, rows: int, cols: int, symmetry: str) -> None:
    """Raise the error of the first bad entry among the tokens of line no."""
    if fmt == "array":
        for tok in toks:
            _parse_real(tok, no)
        return
    if len(toks) != 3:
        raise MatrixMarketError(f"line {no}: coordinate entry must be 'row col value'")
    i, j = _parse_int(toks[0], no, "row index"), _parse_int(toks[1], no, "column index")
    for what, index, size in (("row", i, rows), ("column", j, cols)):
        if index > size:
            raise MatrixMarketError(f"line {no}: {what} index {index} out of range 1..{size}")
    _parse_real(toks[2], no)
    if symmetry == "symmetric" and i < j:
        raise MatrixMarketError(f"line {no}: symmetric entries must satisfy row >= col, got ({i}, {j})")


def _body_error(lines, size_no: int, fmt: str, count: int, rows: int, cols: int, symmetry: str):
    """The error of a body _bulk rejected: a wrong entry count, else its first bad entry."""
    found, last, error = 0, size_no, None
    for no, line in lines:
        toks = line[0].split()
        # an array entry is a token, a coordinate entry a line
        found, last = found + (len(toks) if fmt == "array" else 1), no
        if error is None:
            try:
                _check_entry(toks, no, fmt, rows, cols, symmetry)
            except MatrixMarketError as exc:
                error = exc
    if found != count:
        return MatrixMarketError(f"line {last}: expected {count} entries, found {found}")
    return error or MatrixMarketError(f"line {last}: {fmt} body does not parse")


def _bulk(text: str, start: int, fmt: str, count: int, rows: int, cols: int, symmetry: str):
    """Flat cells (coordinate only) and values of a valid body text[start:], else None.

    This defines what a body may hold: the per-entry checks run only on a body
    it rejects, to name the error. Tokens are converted with Python's int and
    float via numpy. Slices end just after a "\\n", so none cuts a line.
    """
    width = 3 if fmt == "coordinate" else 1
    # allocate only if the body can hold count entries of 2 * width - 1 characters and a break
    if len(text) - start < 2 * width * count - 1:
        return None
    cells, values = np.empty(count if width == 3 else 0, dtype=np.int64), np.empty(count)
    k = 0
    while start < len(text):
        end = text.find("\n", start + _SLICE - 1) + 1 or len(text)
        piece, start = text[start:end], end
        if "%" in piece:
            piece = "\n".join(ln for ln in piece.splitlines() if not ln.lstrip().startswith("%"))
        tokens = piece.split()
        m = len(tokens) // width
        # a coordinate entry is a line of its own; blank lines hold none
        if k + m > count or width == 3 and set(map(len, map(str.split, piece.splitlines()))) - {0, 3}:
            return None
        try:
            values[k : k + m] = np.array(tokens[width - 1 :: width], dtype=np.float64)
            if width == 3:
                i, j = (np.array(tokens[c::3], dtype=np.int64) for c in (0, 1))
        except (ValueError, OverflowError):
            return None
        if width == 3:
            valid = (i >= 1) & (i <= rows) & (j >= 1) & (j <= cols)
            if not (valid & ((symmetry == "general") | (i >= j))).all():
                return None
            cells[k : k + m] = (i - 1) * cols + (j - 1)
        k += m
    return (cells, values) if k == count and np.isfinite(values).all() else None


def read_matrix_market(text) -> np.ndarray:
    """Parse Matrix Market content (str or bytes) into a dense float matrix."""
    if isinstance(text, (bytes, bytearray)):
        text = bytes(text).decode("latin-1")
    if not text:
        raise MatrixMarketError("line 1: empty input, expected a Matrix Market header")

    head = _LINE.match(text)
    header = head[0].split()
    if len(header) != 5 or header[0].lower() != _BANNER:
        raise MatrixMarketError(
            "line 1: expected header '%%MatrixMarket matrix <format> <field> <symmetry>'"
        )
    obj, fmt, field, symmetry = (tok.lower() for tok in header[1:])
    for what, value, *known in [("object", obj, "matrix"), ("format", fmt, "array", "coordinate"),
                                ("field", field, "real"), ("symmetry", symmetry, "general", "symmetric")]:
        if value not in known:
            hint = (f"only '{known[0]}' is supported" if len(known) == 1
                    else f"expected '{known[0]}' or '{known[1]}'")
            raise MatrixMarketError(f"line 1: unsupported {what} '{value}' ({hint})")

    lines = _content(text, head.end(), 2)
    try:
        size_no, size = next(lines)
    except StopIteration as end:
        raise MatrixMarketError(f"line {end.value}: missing size line") from None

    toks = size[0].split()
    if len(toks) != (2 if fmt == "array" else 3):
        shape = "rows cols" if fmt == "array" else "rows cols nnz"
        raise MatrixMarketError(f"line {size_no}: {fmt} size line must be '{shape}'")
    rows = _parse_int(toks[0], size_no, "row count")
    cols = _parse_int(toks[1], size_no, "column count")
    if fmt == "coordinate":
        count = _parse_int(toks[2], size_no, "entry count", least=0)
    if symmetry == "symmetric" and rows != cols:
        raise MatrixMarketError(f"line {size_no}: symmetric storage requires a square matrix")
    if rows * cols > MAX_CELLS:
        raise MatrixMarketError(f"line {size_no}: {rows} x {cols} is over the {MAX_CELLS}-cell limit")

    if fmt == "array":
        count = rows * cols if symmetry == "general" else rows * (rows + 1) // 2
    parsed = _bulk(text, size.end(), fmt, count, rows, cols, symmetry)
    if parsed is None:
        raise _body_error(lines, size_no, fmt, count, rows, cols, symmetry)
    cells, values = parsed
    if fmt == "array":
        # column-major order; symmetric storage lists the lower triangle
        if symmetry == "general":
            return values.reshape(cols, rows).T.copy()
        j, i = np.triu_indices(rows)
        return _fill(np.zeros((rows, cols)), i * cols + j, values, symmetry)

    # one stable sort finds repeated cells; k is the earliest entry that repeats one
    order = np.argsort(cells, kind="stable")
    repeats = order[1:][np.diff(cells[order]) == 0]
    if repeats.size:
        k = repeats.min()
        first = np.argmax(cells == cells[k])
        i, j = divmod(int(cells[k]), cols)
        # lines still stands just after the size line, so its k-th line holds entry k
        nos = [no for e, (no, _) in zip(range(k + 1), lines) if e in (first, k)]
        raise MatrixMarketError(
            f"line {nos[1]}: duplicate entry ({i + 1}, {j + 1}), first given on line {nos[0]}"
        )
    return _fill(np.zeros((rows, cols)), cells, values, symmetry)


def write_matrix_market(a) -> str:
    """Serialize a dense matrix as 'array real general' Matrix Market text."""
    a = as_matrix(a)
    rows, cols = a.shape
    values = a.T.ravel()
    blocks = (values[k : k + _BLOCK].tolist() for k in range(0, values.size, _BLOCK))
    body = (("%.17g\n" * len(block)) % tuple(block) for block in blocks)
    return "".join([f"%%MatrixMarket matrix array real general\n{rows} {cols}\n", *body])


def load_matrix_market(path) -> np.ndarray:
    """Read a Matrix Market file from disk."""
    with open(path, "r", encoding="latin-1") as handle:
        text = handle.read()
    try:
        return read_matrix_market(text)
    except MatrixMarketError as exc:
        raise MatrixMarketError(f"{path}: {exc}") from None


def save_matrix_market(path, a) -> None:
    """Write a dense matrix to disk in Matrix Market format, atomically."""
    write_text_atomic(path, write_matrix_market(a))
