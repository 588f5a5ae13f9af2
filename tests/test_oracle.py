import numpy as np
import pytest

from semikrylov.linalg import svd, symmetric_eig
from semikrylov.oracle import (
    consistency_check,
    pinv_apply_rect,
    pseudoinverse_apply,
    pseudoinverse_matrix,
    split,
    unsplit,
)


def _random_spsd(rng, n, rank):
    g = rng.normal(size=(n, rank))
    return g @ g.T


class TestSplit:
    def test_diagonal_case(self):
        dec = symmetric_eig(np.diag([2.0, 1.0, 0.0]))
        parts = split(dec, [2.0, 1.0, 0.0])
        np.testing.assert_allclose(np.sort(np.abs(parts.range_part)), [1.0, 2.0], atol=1e-14)
        np.testing.assert_allclose(parts.null_part, [0.0], atol=1e-14)

    def test_pure_null_vector(self):
        dec = symmetric_eig(np.diag([2.0, 1.0, 0.0]))
        parts = split(dec, [0.0, 0.0, 5.0])
        np.testing.assert_allclose(parts.range_part, [0.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(np.abs(parts.null_part), [5.0], atol=1e-14)

    def test_zero_vector(self):
        dec = symmetric_eig(np.diag([2.0, 1.0, 0.0]))
        parts = split(dec, [0.0, 0.0, 0.0])
        assert np.all(parts.range_part == 0.0)
        assert np.all(parts.null_part == 0.0)

    def test_dimension_mismatch(self):
        dec = symmetric_eig(np.eye(3))
        with pytest.raises(ValueError):
            split(dec, [1.0, 2.0])

    def test_norm_preserved_and_reassembly(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 25))
            a = _random_spsd(rng, n, max(1, n // 2))
            dec = symmetric_eig(a)
            v = rng.normal(size=n)
            parts = split(dec, v)
            total = np.linalg.norm(parts.range_part) ** 2 + np.linalg.norm(parts.null_part) ** 2
            assert abs(total - np.linalg.norm(v) ** 2) <= 1e-12 * np.linalg.norm(v) ** 2
            np.testing.assert_allclose(
                unsplit(dec, parts), v, atol=1e-12 * max(np.linalg.norm(v), 1.0)
            )


class TestPseudoinverseApply:
    def test_diagonal_inversion(self):
        dec = symmetric_eig(np.diag([2.0, 1.0, 0.0]))
        np.testing.assert_allclose(
            pseudoinverse_apply(dec, [2.0, 1.0, 0.0]), [1.0, 1.0, 0.0], atol=1e-14
        )

    def test_null_input_annihilated(self):
        dec = symmetric_eig(np.diag([2.0, 1.0, 0.0]))
        np.testing.assert_allclose(
            pseudoinverse_apply(dec, [0.0, 0.0, 7.0]), np.zeros(3), atol=1e-14
        )

    def test_full_rank_matches_direct_solve(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        dec = symmetric_eig(a)
        np.testing.assert_allclose(
            pseudoinverse_apply(dec, [1.0, 1.0]), [1.0 / 3.0, 1.0 / 3.0], atol=1e-13
        )

    def test_result_lies_in_range(self):
        rng = np.random.default_rng(17)
        a = _random_spsd(rng, 12, 5)
        dec = symmetric_eig(a)
        x = pseudoinverse_apply(dec, rng.normal(size=12))
        assert np.linalg.norm(dec.q2.T @ x) <= 1e-12 * max(np.linalg.norm(x), 1e-300)

    def test_penrose_conditions(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            n = int(rng.integers(2, 21))
            a = _random_spsd(rng, n, max(1, n // 2))
            dec = symmetric_eig(a)
            p = pseudoinverse_matrix(dec)
            fro_a = np.linalg.norm(a)
            fro_p = np.linalg.norm(p)
            assert np.linalg.norm(a @ p @ a - a) <= 1e-10 * fro_a
            assert np.linalg.norm(p @ a @ p - p) <= 1e-10 * fro_p
            assert np.linalg.norm(a @ p - (a @ p).T) <= 1e-10 * max(fro_a * fro_p, 1.0)
            assert np.linalg.norm(p @ a - (p @ a).T) <= 1e-10 * max(fro_a * fro_p, 1.0)

    def test_consistent_rhs_reproduced(self):
        rng = np.random.default_rng(41)
        a = _random_spsd(rng, 15, 8)
        dec = symmetric_eig(a)
        b = a @ rng.normal(size=15)
        x = pseudoinverse_apply(dec, b)
        np.testing.assert_allclose(a @ x, b, atol=1e-10 * np.linalg.norm(b))

    def test_minimum_norm_property(self):
        rng = np.random.default_rng(43)
        a = _random_spsd(rng, 10, 4)
        dec = symmetric_eig(a)
        xstar = pseudoinverse_apply(dec, a @ rng.normal(size=10))
        for _ in range(10):
            z = dec.q2 @ rng.normal(size=10 - dec.rank)
            assert np.linalg.norm(xstar + z) >= np.linalg.norm(xstar) - 1e-12


class TestPinvApplyRect:
    def test_min_norm_least_squares(self):
        # normal equations give x1 = 1 with x2 free; minimum norm sets x2 = 0
        sd = svd([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        np.testing.assert_allclose(pinv_apply_rect(sd, [1.0, 1.0, 0.0]), [1.0, 0.0], atol=1e-14)

    def test_identity(self):
        sd = svd(np.eye(2))
        np.testing.assert_allclose(pinv_apply_rect(sd, [3.0, 4.0]), [3.0, 4.0], atol=1e-14)

    def test_zero_rhs(self):
        sd = svd(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
        np.testing.assert_array_equal(pinv_apply_rect(sd, np.zeros(3)), np.zeros(2))

    def test_residual_orthogonal_to_range(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            m, n = int(rng.integers(2, 20)), int(rng.integers(2, 20))
            a = rng.normal(size=(m, n))
            sd = svd(a)
            b = rng.normal(size=m)
            x = pinv_apply_rect(sd, b)
            residual = b - a @ x
            assert np.linalg.norm(a.T @ residual) <= 1e-10 * max(np.linalg.norm(b), 1.0) * max(
                sd.sigmas[0], 1.0
            )

    def test_dimension_mismatch(self):
        sd = svd(np.ones((3, 2)))
        with pytest.raises(ValueError):
            pinv_apply_rect(sd, [1.0, 2.0])

    def test_on_an_eigendecomposition_it_is_pseudoinverse_apply_bit_for_bit(self):
        rng = np.random.default_rng(31)
        dec = symmetric_eig(_random_spsd(rng, 8, 5))
        b = rng.normal(size=8)
        np.testing.assert_array_equal(pinv_apply_rect(dec, b), pseudoinverse_apply(dec, b))


class TestConsistencyCheck:
    def test_range_rhs_is_consistent(self):
        dec = symmetric_eig(np.diag([2.0, 1.0, 0.0]))
        report = consistency_check(dec, [2.0, 1.0, 0.0])
        assert report.consistent
        assert report.null_norm <= 1e-14

    def test_pure_null_rhs(self):
        dec = symmetric_eig(np.diag([2.0, 1.0, 0.0]))
        report = consistency_check(dec, [0.0, 0.0, 1.0])
        assert not report.consistent
        assert abs(report.null_norm - 1.0) <= 1e-14

    def test_below_threshold_counts_as_consistent(self):
        dec = symmetric_eig(np.diag([2.0, 1.0, 0.0]))
        report = consistency_check(dec, [1.0, 1.0, 1e-14], tol=1e-10)
        assert report.consistent

    @pytest.mark.parametrize("gap", [0.0, 1e-3])
    def test_an_svd_is_checked_against_u2(self, gap):
        rng = np.random.default_rng(32)
        a = rng.normal(size=(7, 3)) @ rng.normal(size=(3, 5))
        sd = svd(a)
        b = a @ rng.normal(size=5) + gap * sd.u2[:, 0]
        report = consistency_check(sd, b)
        assert report.null_norm == float(np.linalg.norm(sd.u2.T @ b))
        assert report.consistent == (gap == 0.0)

    def test_an_svd_refuses_a_rhs_of_the_wrong_length(self):
        with pytest.raises(ValueError, match="right-hand side has length 5, expected 7"):
            consistency_check(svd(np.ones((7, 5))), np.ones(5))
