import itertools
import math
import os
import stat
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semikrylov import mmio
from semikrylov.genmat import ProblemSpec, make_problem
from semikrylov.mmio import (
    MAX_CELLS,
    MatrixMarketError,
    load_matrix_market,
    read_matrix_market,
    save_matrix_market,
    write_matrix_market,
)
from semikrylov.report import write_text_atomic


class TestRead:
    def test_smallest_array_file(self):
        text = "%%MatrixMarket matrix array real general\n1 1\n5\n"
        np.testing.assert_array_equal(read_matrix_market(text), [[5.0]])

    def test_accepts_bytes(self):
        text = b"%%MatrixMarket matrix array real general\n1 1\n5\n"
        np.testing.assert_array_equal(read_matrix_market(text), [[5.0]])

    def test_array_is_column_major(self):
        text = "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n"
        np.testing.assert_array_equal(read_matrix_market(text), [[1.0, 3.0], [2.0, 4.0]])

    def test_coordinate_symmetric_expansion(self):
        text = (
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "2 2 3\n"
            "1 1 2\n"
            "2 1 1\n"
            "2 2 2\n"
        )
        np.testing.assert_array_equal(read_matrix_market(text), [[2.0, 1.0], [1.0, 2.0]])

    def test_array_symmetric_lower_triangle(self):
        text = "%%MatrixMarket matrix array real symmetric\n2 2\n2\n1\n3\n"
        np.testing.assert_array_equal(read_matrix_market(text), [[2.0, 1.0], [1.0, 3.0]])

    @pytest.mark.parametrize("n", [1, 3, 7])
    def test_array_symmetric_lower_triangle_sizes(self, n):
        full = np.arange(n * n, dtype=float).reshape(n, n)
        full = full + full.T - 0.5
        lower = [full[i, j] for j in range(n) for i in range(j, n)]
        text = f"%%MatrixMarket matrix array real symmetric\n{n} {n}\n" + "\n".join(
            f"{v:.17g}" for v in lower
        )
        np.testing.assert_array_equal(read_matrix_market(text), full)

    def test_comments_and_blank_lines_skipped(self):
        text = (
            "%%MatrixMarket matrix coordinate real general\n"
            "% produced by hand\n"
            "\n"
            "2 2 1\n"
            "% the only entry\n"
            "1 2 -3.5\n"
        )
        np.testing.assert_array_equal(read_matrix_market(text), [[0.0, -3.5], [0.0, 0.0]])

    def test_complex_field_rejected_by_name(self):
        text = "%%MatrixMarket matrix array complex general\n1 1\n5 0\n"
        with pytest.raises(MatrixMarketError, match="complex"):
            read_matrix_market(text)

    def test_bad_header(self):
        with pytest.raises(MatrixMarketError, match="line 1"):
            read_matrix_market("no header here\n1 1\n5\n")

    def test_out_of_range_index_names_line(self):
        text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n"
        with pytest.raises(MatrixMarketError, match="line 3"):
            read_matrix_market(text)

    def test_non_real_entry_names_line(self):
        text = "%%MatrixMarket matrix array real general\n1 1\nabc\n"
        with pytest.raises(MatrixMarketError, match="line 3"):
            read_matrix_market(text)

    def test_wrong_entry_count(self):
        text = "%%MatrixMarket matrix array real general\n2 1\n1.0\n"
        with pytest.raises(MatrixMarketError, match="expected 2 entries"):
            read_matrix_market(text)

    def test_oversized_array_header_rejected_before_allocating(self):
        text = "%%MatrixMarket matrix array real general\n3000 3000\n1.0\n"
        tracemalloc.start()
        try:
            with pytest.raises(MatrixMarketError, match="line 3: expected 9000000 entries, found 1"):
                read_matrix_market(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_symmetric_array_entry_count(self):
        text = "%%MatrixMarket matrix array real symmetric\n3 3\n1\n2\n3\n"
        with pytest.raises(MatrixMarketError, match="expected 6 entries, found 3"):
            read_matrix_market(text)

    def test_symmetric_upper_entry_rejected(self):
        text = "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n1 2 1.0\n"
        with pytest.raises(MatrixMarketError, match="row >= col"):
            read_matrix_market(text)

    def test_nonfinite_entry_rejected(self):
        text = "%%MatrixMarket matrix array real general\n1 1\ninf\n"
        with pytest.raises(MatrixMarketError, match="finite"):
            read_matrix_market(text)

    @pytest.mark.parametrize(
        "symmetry, body",
        [
            ("general", "2 2 3\n1 2 1.0\n2 2 4.0\n1 2 5.0\n"),
            ("symmetric", "2 2 3\n2 1 1.0\n2 2 4.0\n2 1 5.0\n"),
        ],
    )
    def test_duplicate_coordinate_entry_names_both_lines(self, symmetry, body):
        text = f"%%MatrixMarket matrix coordinate real {symmetry}\n% comment\n{body}"
        with pytest.raises(MatrixMarketError, match=r"line 6: duplicate .* on line 4"):
            read_matrix_market(text)


class TestWriteAndRoundtrip:
    def test_one_by_one(self):
        assert write_matrix_market([[5.0]]) == "%%MatrixMarket matrix array real general\n1 1\n5\n"

    def test_seeded_roundtrip_is_exact(self):
        spec = ProblemSpec("spsd", (5, 5), (2.0, 1.0, 0.5, 0.0, 0.0), seed=15)
        a = make_problem(spec).a
        again = read_matrix_market(write_matrix_market(a))
        np.testing.assert_array_equal(again, a)

    def test_dimensions_preserved(self):
        a = np.arange(12.0).reshape(3, 4)
        again = read_matrix_market(write_matrix_market(a))
        assert again.shape == (3, 4)
        np.testing.assert_array_equal(again, a)

    @given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_random_roundtrip(self, m, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(scale=10.0 ** rng.integers(-8, 8), size=(m, n))
        np.testing.assert_array_equal(read_matrix_market(write_matrix_market(a)), a)

    def test_file_helpers(self, tmp_path):
        a = np.array([[1.5, -2.0], [0.0, 3.25]])
        path = tmp_path / "a.mtx"
        save_matrix_market(path, a)
        np.testing.assert_array_equal(load_matrix_market(path), a)

    def test_load_error_message_names_file(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("not a matrix\n")
        with pytest.raises(MatrixMarketError, match="bad.mtx"):
            load_matrix_market(path)


# The reader as it was before bodies were parsed in bulk, one Python call per
# token, kept as the reference the bulk reader must agree with.
_BANNER = "%%matrixmarket"


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


def reference_read_matrix_market(text) -> np.ndarray:
    """Parse Matrix Market content (str or bytes) into a dense float matrix."""
    if isinstance(text, (bytes, bytearray)):
        text = bytes(text).decode("latin-1")
    lines = text.splitlines()
    if not lines:
        raise MatrixMarketError("line 1: empty input, expected a Matrix Market header")

    header = lines[0].split()
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

    body = [
        (no, stripped)
        for no, stripped in ((i + 1, ln.strip()) for i, ln in enumerate(lines[1:], start=1))
        if stripped and not stripped.startswith("%")
    ]
    if not body:
        raise MatrixMarketError(f"line {len(lines)}: missing size line")
    size_no, size_line = body[0]
    entries = body[1:]

    if fmt == "array":
        toks = size_line.split()
        if len(toks) != 2:
            raise MatrixMarketError(f"line {size_no}: array size line must be 'rows cols'")
        rows = _parse_positive_int(toks[0], size_no, "row count")
        cols = _parse_positive_int(toks[1], size_no, "column count")
        if symmetry == "symmetric" and rows != cols:
            raise MatrixMarketError(f"line {size_no}: symmetric storage requires a square matrix")
        values = [(no, tok) for no, ln in entries for tok in ln.split()]
        # Check the count before building anything the header's size implies.
        expected = rows * cols if symmetry == "general" else rows * (rows + 1) // 2
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

    toks = size_line.split()
    if len(toks) != 3:
        raise MatrixMarketError(f"line {size_no}: coordinate size line must be 'rows cols nnz'")
    rows = _parse_positive_int(toks[0], size_no, "row count")
    cols = _parse_positive_int(toks[1], size_no, "column count")
    try:
        nnz = int(toks[2])
    except ValueError:
        raise MatrixMarketError(f"line {size_no}: entry count {toks[2]!r} is not an integer") from None
    if nnz < 0:
        raise MatrixMarketError(f"line {size_no}: entry count must be nonnegative, got {nnz}")
    if symmetry == "symmetric" and rows != cols:
        raise MatrixMarketError(f"line {size_no}: symmetric storage requires a square matrix")
    if len(entries) != nnz:
        last = entries[-1][0] if entries else size_no
        raise MatrixMarketError(f"line {last}: expected {nnz} entries, found {len(entries)}")

    mat = np.zeros((rows, cols))
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

    # one stable sort finds repeated cells; k is the earliest entry that repeats one
    cells = np.array(cells, dtype=np.int64)
    order = np.argsort(cells, kind="stable")
    repeats = order[1:][np.diff(cells[order]) == 0]
    if repeats.size:
        k = repeats.min()
        i, j = divmod(int(cells[k]), cols)
        raise MatrixMarketError(
            f"line {entries[k][0]}: duplicate entry ({i + 1}, {j + 1}), "
            f"first given on line {entries[np.argmax(cells == cells[k])][0]}"
        )
    return _fill(mat, cells, values, symmetry)



# Tokens either reader may see: valid numbers, what Python's int and float
# accept beyond plain digits (underscores, signs, non-ASCII digits), what they
# reject, non-finite values, and characters that are whitespace, line breaks
# or both.
SEPARATORS = [" ", " ", "  ", "\t", "\xa0", "\x0b", "\x85", "\x1c", "\x0c"]
LINE_ENDS = ["\n", "\n", "\n", "\r\n", "\r", "\x0b", "\x85", "\u2028", "\n\n"]
INDEX_TOKENS = ["1", "2", "3", "+1", "01", "1_0", "-0", "0", "-1", "2.0", "0x10", "\u0662",
                "99999999999999999999", "1e400"]
VALUE_TOKENS = ["1", "-0", "+3", "2.5", "-1e-300", "5e-324", "1_0", ".5", "1E5", "\u0663",
                "1.7976931348623157e308", "0x10", "1e400", "nan", "inf", "-Infinity", "abc",
                "%", "1%", "1,5"]
NOISE_LINES = ["% a comment", "%", "", "   ", "\xa0", "1 2", "1 2 3 4"]


@st.composite
def matrix_market_texts(draw):
    """Mostly well-formed Matrix Market text with occasional faults of every kind."""
    rarely = st.sampled_from([False] * 5 + [True])
    fmt = draw(st.sampled_from(["array", "coordinate"]))
    symmetry = draw(st.sampled_from(["general", "symmetric"]))
    header = f"%%MatrixMarket matrix {fmt} real {symmetry}"
    if draw(rarely):
        header = draw(st.sampled_from([
            f"%%matrixmarket MATRIX {fmt.upper()} Real {symmetry}",
            f" %%MatrixMarket matrix {fmt} real {symmetry} ",
            f"%%MatrixMarket matrix {fmt} complex {symmetry}",
            f"%%MatrixMarket matrix {fmt} real",
        ]))
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 4)) if symmetry == "general" or draw(rarely) else rows
    value = st.sampled_from(VALUE_TOKENS) if draw(rarely) else st.sampled_from(["1", "-2.5", "3e-5"])
    if fmt == "array":
        count = rows * cols if symmetry == "general" else rows * (rows + 1) // 2
        count += draw(st.sampled_from([-1, 1])) if draw(rarely) else 0
        body = [[draw(value)] for _ in range(max(count, 0))]
        size = [str(rows), str(cols)]
    else:
        cells = draw(st.lists(st.tuples(st.integers(1, rows), st.integers(1, cols)), max_size=6,
                              unique=not draw(rarely)))
        if symmetry == "symmetric" and not draw(rarely):
            cells = [(max(i, j), min(i, j)) for i, j in cells]
        index = st.sampled_from(INDEX_TOKENS)
        body = [[draw(index) if draw(rarely) else str(i), draw(index) if draw(rarely) else str(j),
                 draw(value)] for i, j in cells]
        nnz = len(body) + (draw(st.sampled_from([-1, 1])) if draw(rarely) else 0)
        size = [str(rows), str(cols), str(nnz)]
    if draw(rarely):
        size[draw(st.integers(0, len(size) - 1))] = draw(st.sampled_from(INDEX_TOKENS))
    if draw(rarely):
        size = size[:-1] if draw(st.booleans()) else size + ["1"]
    if body and draw(rarely):
        row = draw(st.integers(0, len(body) - 1))
        body[row] = body[row] + [draw(value)] if draw(st.booleans()) else body[row][1:]
    separator = st.sampled_from(SEPARATORS) if draw(rarely) else st.just(" ")
    lines = [" ".join(size)] + [draw(separator).join(row) for row in body]
    for _ in range(draw(st.integers(0, 2)) if draw(rarely) else 0):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(NOISE_LINES)))
    end = st.sampled_from(LINE_ENDS) if draw(rarely) else st.just("\n")
    return "".join(ln + draw(end) for ln in [header] + lines)


def _outcome(read, text):
    try:
        a = read(text)
    except MatrixMarketError as exc:
        return "error", str(exc)
    return "matrix", a.shape, a.tobytes()


class TestBulkReader:
    @given(st.one_of(
        matrix_market_texts(),
        matrix_market_texts().map(lambda t: t.encode("latin-1", errors="replace")),
        # at most 12 pieces, so a size line that parses declares only a tiny matrix
        st.lists(st.sampled_from(
            ["%%MatrixMarket matrix array real general", "%%MatrixMarket matrix coordinate real symmetric",
             "1", "2", "_", "nan", "%", " ", "\xa0"] + SEPARATORS + LINE_ENDS
        ), max_size=12).map("".join),
    ))
    @settings(max_examples=600, deadline=None)
    def test_same_matrix_or_same_error_as_the_per_token_reader(self, text):
        outcome = _outcome(read_matrix_market, text)
        # The cell ceiling is the one new error; past it the old reader allocates the header's size.
        if outcome[0] == "error" and outcome[1].endswith(f"{MAX_CELLS}-cell limit"):
            return
        assert outcome == _outcome(reference_read_matrix_market, text)

    @pytest.mark.parametrize(
        "text",
        [
            "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n",
            "%%MatrixMarket matrix array real symmetric\n% lower triangle\n2 2\n1 2\n% then\n3\n",
            "%%MatrixMarket matrix coordinate real symmetric\n% note\n2 2 2\n1 1 2\n2 1 -1\n",
            "%%MatrixMarket matrix coordinate real general\r\n2 3 2\r\n1 3 1_0\r\n2 1 +5\r\n",
        ],
    )
    def test_well_formed_bodies_skip_the_per_entry_parse(self, text, monkeypatch):
        expected = reference_read_matrix_market(text)

        def per_entry(token, line_no):
            raise AssertionError(f"line {line_no} parsed per entry")

        monkeypatch.setattr(mmio, "_parse_real", per_entry)
        np.testing.assert_array_equal(read_matrix_market(text), expected)

    @given(st.one_of(
        matrix_market_texts(),
        matrix_market_texts().map(lambda t: t.encode("latin-1", errors="replace")),
        st.lists(st.sampled_from(
            ["%%MatrixMarket matrix array real general", "%%MatrixMarket matrix coordinate real symmetric",
             "1", "2", "_", "nan", "%", " ", "\xa0"] + SEPARATORS + LINE_ENDS
        ), max_size=12).map("".join),
    ))
    @settings(max_examples=300, deadline=None)
    def test_same_result_when_the_body_is_parsed_in_small_slices(self, text):
        # slices of a line or a few, so cuts fall next to "\r\n" pairs, comments and every entry
        for size in (1, 3, 7):
            with mock.patch.object(mmio, "_SLICE", size):
                outcome = _outcome(read_matrix_market, text)
            # past the cell ceiling the reference would allocate the header's size, so it is not run
            if not (outcome[0] == "error" and outcome[1].endswith(f"{MAX_CELLS}-cell limit")):
                assert outcome == _outcome(reference_read_matrix_market, text), size

    @pytest.mark.parametrize("size", [1, 3, 7, 1 << 16])
    def test_sliced_well_formed_bodies_skip_the_per_entry_parse(self, size, monkeypatch):
        def per_entry(token, line_no):
            raise AssertionError(f"line {line_no} parsed per entry")

        texts = [
            "%%MatrixMarket matrix array real general\r\n3 2\r\n1\r\n% mid\r\n2 3\r\n4\r\n5\r\n6\r\n",
            "%%MatrixMarket matrix coordinate real general\r\n3 3 3\r\n1 3 1_0\r\n% mid\r\n"
            "2 1 +5\r\n3 3 -2\r\n",
            "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 2\n%\n2 1 -1",
            "%%MatrixMarket matrix coordinate real general\n2 2 2\n\n1 2 3\n \t\n2 1 4\n\n",
        ]
        expected = [reference_read_matrix_market(text) for text in texts]
        monkeypatch.setattr(mmio, "_parse_real", per_entry)
        monkeypatch.setattr(mmio, "_SLICE", size)
        for text, want in zip(texts, expected):
            np.testing.assert_array_equal(read_matrix_market(text), want)

    # "\n" keeps the plain ids; every break must cut the body into pieces of about _SLICE
    @pytest.mark.parametrize("fmt, end", [
        pytest.param(fmt, end, id=fmt if end == "\n" else f"{fmt}-{end!r}")
        for end in ("\n", "\r", "\x0b", "\x85") for fmt in ("array", "coordinate")
    ])
    def test_read_peaks_at_a_few_copies_of_the_matrix(self, fmt, end):
        n = 300
        a = np.random.default_rng(5).normal(size=(n, n))
        a = a + a.T
        if fmt == "array":
            text = write_matrix_market(a)
        else:
            rows, cols = np.tril_indices(n)
            entries = zip(rows.tolist(), cols.tolist(), a[rows, cols].tolist())
            text = (f"%%MatrixMarket matrix coordinate real symmetric\n{n} {n} {rows.size}\n"
                    + "".join(f"{i + 1} {j + 1} {value!r}\n" for i, j, value in entries))
        text = text.replace("\n", end)
        tracemalloc.start()
        try:
            got = read_matrix_market(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got.tobytes() == a.tobytes()
        assert peak < 5 * a.nbytes + 1_000_000

    @pytest.mark.parametrize("fmt, size", [("coordinate", "100000 100000 1"), ("array", "100000 100000")])
    def test_size_over_the_cell_ceiling_rejected_before_allocating(self, fmt, size):
        text = f"%%MatrixMarket matrix {fmt} real general\n{size}\n1 1 1.0\n"
        tracemalloc.start()
        try:
            with pytest.raises(MatrixMarketError, match=f"line 2: .*{MAX_CELLS}-cell limit"):
                read_matrix_market(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_cell_ceiling_is_inclusive(self):
        side = math.isqrt(MAX_CELLS)
        text = f"%%MatrixMarket matrix array real general\n{side} {side}\n1.0\n"
        with pytest.raises(MatrixMarketError, match=f"expected {side * side} entries, found 1"):
            read_matrix_market(text)


def _per_value_text(a):
    rows, cols = a.shape
    out = ["%%MatrixMarket matrix array real general", f"{rows} {cols}"]
    out.extend(f"{value:.17g}" for value in a.T.ravel().tolist())
    return "\n".join(out) + "\n"


@pytest.mark.parametrize("shape", [(2000, 1), (1, 2000), (7, 3)])
def test_writer_is_byte_identical_to_per_value_formatting(shape):
    # random bit patterns cover every exponent; non-finite ones are replaced
    rng = np.random.default_rng(list(shape))
    a = rng.integers(0, 2**64, size=shape, dtype=np.uint64).view(np.float64).copy()
    a[~np.isfinite(a)] = 1.0
    big = np.finfo(np.float64).max
    specials = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, np.finfo(np.float64).tiny,
                big, -big, 1e-300, 1e300, 0.1, 1 / 3]
    a.T.flat[: len(specials)] = specials
    assert write_matrix_market(a) == _per_value_text(a)
    assert read_matrix_market(write_matrix_market(a)).tobytes() == a.tobytes()


@pytest.mark.parametrize("shape", [(mmio._BLOCK - 1, 1), (mmio._BLOCK, 1), (1, mmio._BLOCK + 1)])
def test_writer_blocks_join_to_the_per_value_text(shape):
    rng = np.random.default_rng(list(shape))
    a = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
    assert write_matrix_market(a) == _per_value_text(a)


def _first_difference(text, expected):
    """None when the texts are equal, else the first differing line: (index, text's, expected's).

    A failure shows that line, not a diff of two long texts, which takes pytest minutes."""
    if text == expected:
        return None
    pairs = enumerate(itertools.zip_longest(text.splitlines(), expected.splitlines()))
    return next((k, got, want) for k, (got, want) in pairs if got != want)


def _random_bits(rng, shape):
    """Finite float64 values with random bit patterns, so that every exponent occurs."""
    a = rng.integers(0, 2**64, size=shape, dtype=np.uint64).view(np.float64).copy()
    a[~np.isfinite(a)] = 1.0
    return a


BIG = float(np.finfo(np.float64).max)
# the longest %.17g text of a float64 has 24 characters
LONGEST = -1.2345678901234567e-308
WRITER_SPECIALS = [0.0, -0.0, 5e-324, -5e-324, BIG, -BIG, LONGEST, 2.2250738585072014e-308, 0.1,
                   1e-5, 1e-4, 1e16, 1e17, -1 / 3]
# a square matrix this wide spans more than one block of the writer
PAST_ONE_BLOCK = math.isqrt(mmio._BLOCK) + 2


@st.composite
def written_matrices(draw):
    """Square matrices, half of them symmetric bit for bit, up to just past one writer block,
    and n x 1 and 1 x n ones; a few entries (and their mirrors) are special values."""
    n = draw(st.integers(1, PAST_ONE_BLOCK))
    shape = draw(st.sampled_from([(n, n), (n, n), (n, 1), (1, n)]))
    a = _random_bits(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), shape)
    symmetric = shape[0] == shape[1] and draw(st.booleans())
    if symmetric:
        a = np.where(np.tri(n, dtype=bool), a, a.T)
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, shape[0] - 1)), draw(st.integers(0, shape[1] - 1))
        a[i, j] = draw(st.sampled_from(WRITER_SPECIALS))
        if symmetric:
            a[j, i] = a[i, j]
    return a


@given(written_matrices(), st.sampled_from([1, 2, 3, 7, mmio._BLOCK]))
@settings(max_examples=300, deadline=None)
def test_written_text_is_the_per_value_text(a, block):
    with mock.patch.object(mmio, "_BLOCK", block):
        text = write_matrix_market(a)
    rows, cols = a.shape
    head = f"%%MatrixMarket matrix array real general\n{rows} {cols}\n"
    assert _first_difference(text, head + "".join("%.17g\n" % v for v in a.T.ravel().tolist())) is None


def test_a_zero_mirrored_by_a_negative_zero_is_written_as_given():
    a = np.array([[1.0, 0.0, 3.0], [-0.0, 2.0, 0.5], [3.0, 0.5, -0.0]])
    assert _first_difference(write_matrix_market(a), _per_value_text(a)) is None
    assert write_matrix_market(a).splitlines()[2:] == ["1", "-0", "3", "0", "2", "0.5", "3", "0.5", "-0"]


@pytest.mark.parametrize("value", [5e-324, BIG, -BIG, LONGEST, -0.0], ids=repr)
def test_symmetric_matrices_write_extreme_values_in_both_places(value):
    a = np.diag([1.0, 2.0, 3.0, 4.0])
    a[3, 0] = a[0, 3] = a[2, 1] = a[1, 2] = value
    text = write_matrix_market(a)
    assert _first_difference(text, _per_value_text(a)) is None
    assert text.splitlines().count("%.17g" % value) == 4
    assert len("%.17g" % LONGEST) == 24


def test_symmetric_writer_peaks_near_the_general_writer():
    n = 600
    a = np.random.default_rng(8).normal(size=(n, n))
    a = a + a.T
    b = a.copy()
    b[5, 3] = np.nextafter(b[5, 3], np.inf)  # no longer symmetric
    peaks = []
    for m in (a, b):
        tracemalloc.start()
        try:
            text = write_matrix_market(m)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert _first_difference(text, _per_value_text(m)) is None
    assert peaks[0] <= 1.25 * peaks[1]


def _malformed_texts(a):
    """Four ways a body can fail after its head parsed: a bad last entry, a short body,
    a repeated coordinate entry, and no size line at all."""
    n = a.shape[0]
    good = write_matrix_market(a)
    short = good[: good.rstrip("\n").rfind("\n") + 1]
    rows, cols = np.tril_indices(n)
    entries = zip(rows.tolist(), cols.tolist(), a[rows, cols].tolist())
    repeated = (f"%%MatrixMarket matrix coordinate real symmetric\n{n} {n} {rows.size + 1}\n"
                + "".join(f"{i + 1} {j + 1} {value!r}\n" for i, j, value in entries) + "1 1 0.5\n")
    return {
        "bad last entry": (short + "x\n", f"line {n * n + 2}: entry 'x' is not a real number"),
        "one entry short": (short, f"line {n * n + 1}: expected {n * n} entries, found {n * n - 1}"),
        "repeated entry": (repeated, f"line {rows.size + 3}: duplicate entry (1, 1), first given on line 3"),
        "only comments": ("%%MatrixMarket matrix array real general\n" + "% a comment\n" * 200_000,
                          "line 200001: missing size line"),
    }


@pytest.mark.parametrize("case", ["bad last entry", "one entry short", "repeated entry", "only comments"])
def test_rejecting_a_malformed_body_peaks_at_a_few_copies_of_the_matrix(case):
    n = 300
    a = np.random.default_rng(5).normal(size=(n, n))
    a = a + a.T
    text, message = _malformed_texts(a)[case]
    tracemalloc.start()
    try:
        with pytest.raises(MatrixMarketError) as err:
            read_matrix_market(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(err.value) == message
    assert peak < 5 * a.nbytes + 1_000_000


@pytest.mark.parametrize(
    "text",
    [
        "%%MatrixMarket matrix array real general\n2 1\n1\n2\n",
        "%%MatrixMarket matrix array real symmetric\n2 2\n1\n2\n3\n",
        "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 2\n2 1 -1\n",
    ],
)
def test_a_body_only_the_per_entry_checks_accept_is_an_error(text, monkeypatch):
    # _bulk alone turns a body into values; the per-entry checks only name its error
    monkeypatch.setattr(mmio, "_bulk", lambda *args: None)
    monkeypatch.setattr(mmio, "_fill", mock.Mock(side_effect=AssertionError("matrix built")))
    with pytest.raises(MatrixMarketError, match=r"^line \d+: \w+ body does not parse$"):
        read_matrix_market(text)


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=oct)
@pytest.mark.parametrize("write", [
    lambda path: write_text_atomic(path, "text\n"),
    lambda path: save_matrix_market(path, [[1.0]]),
], ids=["write_text_atomic", "save_matrix_market"])
def test_written_files_get_the_mode_a_plain_open_gives(tmp_path, umask, write):
    old = os.umask(umask)
    try:
        write(tmp_path / "out")
    finally:
        os.umask(old)
    assert stat.S_IMODE(os.stat(tmp_path / "out").st_mode) == 0o666 & ~umask


def test_failed_save_leaves_no_temp_file(tmp_path):
    (tmp_path / "target").mkdir()
    with pytest.raises(OSError, match="target"):
        save_matrix_market(tmp_path / "target", [[1.0]])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["target"]


@pytest.mark.parametrize("fmt", ["array", "coordinate"])
def test_a_short_body_is_rejected_without_checking_any_entry(fmt, monkeypatch):
    a = np.random.default_rng(6).normal(size=(40, 40))
    if fmt == "array":
        text, message = _malformed_texts(a)["one entry short"]
    else:
        entries = [f"{i + 1} {j + 1} {a[i, j]!r}\n" for i in range(40) for j in range(40)]
        text = "%%MatrixMarket matrix coordinate real general\n40 40 1600\n" + "".join(entries[:-1])
        message = "line 1601: expected 1600 entries, found 1599"
    monkeypatch.setattr(mmio, "_check_entry", mock.Mock(side_effect=AssertionError("entry checked")))
    with pytest.raises(MatrixMarketError) as err:
        read_matrix_market(text)
    assert str(err.value) == message
    mmio._check_entry.assert_not_called()


# every ASCII character that str.split or str.splitlines treats specially, and some that neither does
ASCII_PIECES = ["1", "x", "%", "\x00", "\x1b", " ", "\t", "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c",
                "\x1d", "\x1e", "\x1f"]


@given(st.one_of(st.lists(st.sampled_from(ASCII_PIECES), max_size=20).map("".join),
                 st.lists(st.sampled_from(ASCII_PIECES + SEPARATORS + LINE_ENDS), max_size=20).map("".join)))
@settings(max_examples=500, deadline=None)
def test_tokens_per_line_are_those_of_str_split_on_str_splitlines(piece):
    # only blank lines may differ, such as the one after a final line break
    counts = [n for n in mmio._tokens_per_line(piece).tolist() if n]
    assert counts == [n for n in map(len, map(str.split, piece.splitlines())) if n]


# line breaks of str.splitlines: "\r\n" is one, the others are one character each
BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x85", "\u2028"]
ARRAY_HEAD = "%%MatrixMarket matrix array real general|"
WRONG_COUNTS = {  # "|" stands for the line break
    "one short": (ARRAY_HEAD + "2 2|1|2|3|", "line 5: expected 4 entries, found 3"),
    "no last break": (ARRAY_HEAD + "2 2|1|2|3", "line 5: expected 4 entries, found 3"),
    "trailing noise": (ARRAY_HEAD + "2 2|1|2|% c|3||% d|  |%||", "line 6: expected 4 entries, found 3"),
    "one over": (ARRAY_HEAD + "2 2|1 2|% c|3 4 5|% d|", "line 5: expected 4 entries, found 5"),
    "no content line": (ARRAY_HEAD + "% a|2 2|% c||  |", "line 3: expected 4 entries, found 0"),
    "coordinate": ("%%MatrixMarket matrix coordinate real general|2 2 2|1 1 1|% x||",
                   "line 3: expected 2 entries, found 1"),
}


@pytest.mark.parametrize("piece", [1, 3, 16, mmio._SLICE])
@pytest.mark.parametrize("end", BREAKS, ids=repr)
@pytest.mark.parametrize("case", list(WRONG_COUNTS))
def test_a_wrong_count_names_the_last_content_line(case, end, piece):
    text, message = WRONG_COUNTS[case]
    text = text.replace("|", end)
    with mock.patch.object(mmio, "_SLICE", piece):
        assert _outcome(read_matrix_market, text) == ("error", message)
    assert _outcome(reference_read_matrix_market, text) == ("error", message)


@pytest.mark.parametrize("end", BREAKS, ids=repr)
def test_a_wrong_count_is_named_past_a_long_run_of_trailing_comments(end):
    text = (ARRAY_HEAD + "3 1|1|2|").replace("|", end)
    text += f"% {'x' * 100}{end}" * 3000  # over four times _SLICE characters
    assert _outcome(read_matrix_market, text) == ("error", "line 4: expected 3 entries, found 2")


def test_a_wrong_count_walks_only_the_end_of_the_text(monkeypatch, end="\n"):
    a = np.random.default_rng(9).normal(size=(300, 300))
    text, message = _malformed_texts(a)["one entry short"]
    text = text.replace("\n", end)
    walked, content = [], mmio._content

    def counted(*args):
        for no, line in content(*args):
            walked.append(no)
            yield no, line

    monkeypatch.setattr(mmio, "_content", counted)
    with pytest.raises(MatrixMarketError) as err:
        read_matrix_market(text)
    assert str(err.value) == message
    # the size line, then the lines of the last _SLICE characters or so, not all 90,000
    assert 1 < len(walked) < 2 * mmio._SLICE / 20


@pytest.mark.parametrize("end", ["\r", "\x0b", "\x85"], ids=repr)
def test_a_wrong_count_walks_only_the_end_of_a_text_with_other_breaks(monkeypatch, end):
    test_a_wrong_count_walks_only_the_end_of_the_text(monkeypatch, end)
