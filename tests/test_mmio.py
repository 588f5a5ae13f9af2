import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semikrylov.genmat import ProblemSpec, make_problem
from semikrylov.mmio import (
    MatrixMarketError,
    load_matrix_market,
    read_matrix_market,
    save_matrix_market,
    write_matrix_market,
)


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
