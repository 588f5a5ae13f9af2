import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semikrylov import linalg
from semikrylov.cli import run_command
from semikrylov.genmat import ProblemSpec, make_problem
from semikrylov.linalg import (
    ConvergenceError,
    as_matrix,
    as_vector,
    matvec,
    svd,
    symmetric_eig,
)
from semikrylov.mmio import save_matrix_market


class TestValidation:
    def test_as_matrix_rejects_non_2d(self):
        with pytest.raises(ValueError):
            as_matrix([1.0, 2.0])

    def test_as_matrix_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            as_matrix([[1.0, np.nan]])

    def test_as_vector_rejects_empty(self):
        with pytest.raises(ValueError):
            as_vector([])

    def test_as_vector_rejects_inf(self):
        with pytest.raises(ValueError):
            as_vector([np.inf])


class TestMatvec:
    def test_identity(self):
        np.testing.assert_array_equal(matvec(np.eye(3), [1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])

    def test_diagonal_scaling(self):
        np.testing.assert_array_equal(
            matvec(np.diag([2.0, 1.0, 0.0]), [2.0, 1.0, 0.0]), [4.0, 1.0, 0.0]
        )

    def test_hand_case(self):
        np.testing.assert_allclose(
            matvec([[1.0, 2.0], [3.0, 4.0]], [1.0, 1.0]), [3.0, 7.0], atol=1e-15
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            matvec(np.eye(3), [1.0, 2.0])

    @given(
        st.integers(1, 6),
        st.integers(1, 6),
        st.integers(0, 2**32 - 1),
        st.floats(-10, 10),
        st.floats(-10, 10),
    )
    @settings(max_examples=50, deadline=None)
    def test_linearity(self, m, n, seed, alpha, beta):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(m, n))
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        lhs = matvec(a, alpha * x + beta * y)
        rhs = alpha * matvec(a, x) + beta * matvec(a, y)
        scale = max(float(np.abs(rhs).max()), 1.0)
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12 * scale)


class TestSymmetricEig:
    def test_already_diagonal(self):
        dec = symmetric_eig(np.diag([2.0, 1.0, 0.0]))
        np.testing.assert_allclose(dec.lambdas, [2.0, 1.0, 0.0], atol=1e-14)
        assert dec.rank == 2
        np.testing.assert_allclose(np.abs(dec.q), np.eye(3), atol=1e-14)

    def test_2x2_known_eigenvalues(self):
        # characteristic polynomial l^2 - 4l + 3 has roots 3 and 1
        dec = symmetric_eig([[2.0, 1.0], [1.0, 2.0]])
        np.testing.assert_allclose(dec.lambdas, [3.0, 1.0], atol=1e-12)

    def test_zero_matrix(self):
        dec = symmetric_eig(np.zeros((3, 3)))
        np.testing.assert_array_equal(dec.lambdas, np.zeros(3))
        assert dec.rank == 0
        np.testing.assert_allclose(dec.q.T @ dec.q, np.eye(3), atol=1e-14)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            symmetric_eig(np.ones((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            symmetric_eig([[1.0, 2.0], [0.0, 1.0]])

    def test_rejects_bad_rank_tol(self):
        with pytest.raises(ValueError):
            symmetric_eig(np.eye(2), rank_tol=0.0)

    @pytest.mark.parametrize("decompose", [symmetric_eig, svd])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
    def test_rank_tol_must_be_finite_and_positive(self, decompose, value):
        with pytest.raises(ValueError, match=f"rank_tol must be finite and positive, got {value}"):
            decompose(np.eye(2), rank_tol=value)

    def test_reconstruction_and_orthogonality(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(1, 31))
            g = rng.normal(size=(n, n))
            a = 0.5 * (g + g.T)
            dec = symmetric_eig(a)
            recon = (dec.q * dec.lambdas) @ dec.q.T
            fro = max(np.linalg.norm(a), 1e-300)
            assert np.linalg.norm(recon - a) <= 1e-12 * fro
            assert np.abs(dec.q.T @ dec.q - np.eye(n)).max() <= 1e-12
            assert np.all(np.diff(dec.lambdas) <= 1e-14)

    def test_rank_cut_is_relative(self):
        dec = symmetric_eig(np.diag([5.0, 1e-3, 1e-14]))
        assert dec.rank == 2
        coarse = symmetric_eig(np.diag([5.0, 1e-3, 1e-14]), rank_tol=1e-2)
        assert coarse.rank == 1

    def test_agrees_with_lapack_eigenvalues(self):
        rng = np.random.default_rng(5)
        g = rng.normal(size=(20, 20))
        a = 0.5 * (g + g.T)
        dec = symmetric_eig(a)
        reference = np.sort(np.linalg.eigvalsh(a))[::-1]
        np.testing.assert_allclose(dec.lambdas, reference, atol=1e-11 * np.abs(reference).max())


class TestSvd:
    def test_identity(self):
        sd = svd(np.eye(2))
        np.testing.assert_allclose(sd.sigmas, [1.0, 1.0], atol=1e-14)
        assert sd.rank == 2

    def test_single_unit_column(self):
        sd = svd([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        np.testing.assert_allclose(sd.sigmas, [1.0, 0.0], atol=1e-14)
        assert sd.rank == 1

    def test_known_singular_values(self):
        # A^T A has eigenvalues 4 and 1, so the singular values are 2 and 1
        sd = svd([[2.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        np.testing.assert_allclose(sd.sigmas, [2.0, 1.0], atol=1e-12)
        assert sd.rank == 2

    def test_reconstruction_and_orthogonality(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            m = int(rng.integers(1, 31))
            n = int(rng.integers(1, 31))
            a = rng.normal(size=(m, n))
            sd = svd(a)
            smat = np.zeros((m, n))
            np.fill_diagonal(smat, sd.sigmas)
            fro = max(np.linalg.norm(a), 1e-300)
            assert np.linalg.norm(sd.u @ smat @ sd.v.T - a) <= 1e-10 * fro
            assert np.abs(sd.u.T @ sd.u - np.eye(m)).max() <= 1e-12
            assert np.abs(sd.v.T @ sd.v - np.eye(n)).max() <= 1e-12
            assert np.all(np.diff(sd.sigmas) <= 1e-14)

    def test_matches_gram_eigenvalues(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            m = int(rng.integers(2, 31))
            n = int(rng.integers(2, 31))
            a = rng.normal(size=(m, n))
            sd = svd(a)
            gram_eigs = symmetric_eig(a.T @ a).lambdas[: len(sd.sigmas)]
            np.testing.assert_allclose(
                sd.sigmas**2, gram_eigs, atol=1e-9 * max(sd.sigmas[0] ** 2, 1e-300)
            )

    def test_rank_deficient_wide_matrix(self):
        rng = np.random.default_rng(7)
        left = np.linalg.qr(rng.normal(size=(4, 4)))[0]
        right = np.linalg.qr(rng.normal(size=(9, 9)))[0]
        sig = np.array([3.0, 1.5, 0.0, 0.0])
        a = (left * sig) @ right[:, :4].T
        sd = svd(a)
        np.testing.assert_allclose(sd.sigmas, sig, atol=1e-12)
        assert sd.rank == 2

    def test_zero_matrix(self):
        sd = svd(np.zeros((3, 2)))
        np.testing.assert_array_equal(sd.sigmas, np.zeros(2))
        assert sd.rank == 0
        np.testing.assert_allclose(sd.u.T @ sd.u, np.eye(3), atol=1e-14)


def _raise_linalg_error(*args, **kwargs):
    raise np.linalg.LinAlgError("forced failure")


class TestLapackFailure:
    """LAPACK's LinAlgError surfaces as ConvergenceError, and the CLI exits 2."""

    @pytest.mark.parametrize(
        "lapack_name, decompose, matrix",
        [("eigh", symmetric_eig, np.eye(3)), ("svd", svd, np.ones((3, 2)))],
    )
    def test_raises_convergence_error(self, monkeypatch, lapack_name, decompose, matrix):
        monkeypatch.setattr(linalg.np.linalg, lapack_name, _raise_linalg_error)
        with pytest.raises(ConvergenceError) as info:
            decompose(matrix)
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)

    @pytest.mark.parametrize("lapack_name, method", [("eigh", "cg"), ("svd", "cgls")])
    def test_solve_exits_2_with_error_line(self, monkeypatch, tmp_path, capsys, lapack_name, method):
        spec = ProblemSpec("spsd", (6, 6), (2.0, 1.0, 0.5, 0.0, 0.0, 0.0), seed=3)
        problem = make_problem(spec)
        save_matrix_market(tmp_path / "a.mtx", problem.a)
        save_matrix_market(tmp_path / "b.mtx", problem.b.reshape(-1, 1))
        monkeypatch.setattr(linalg.np.linalg, lapack_name, _raise_linalg_error)
        code = run_command([
            "solve", "--method", method,
            "--matrix", str(tmp_path / "a.mtx"), "--rhs", str(tmp_path / "b.mtx"),
        ])
        assert code == 2
        assert any(line.startswith("error:") for line in capsys.readouterr().err.splitlines())


_GRADED_RANK = 40
_GRADED_VALUES = tuple(np.geomspace(1.0, 1e-8, _GRADED_RANK))


@pytest.mark.parametrize(
    "kind, dims",
    [("spsd", (80, 80)), ("rectangular", (80, 50)), ("rectangular", (50, 80))],
    ids=["spsd", "tall", "wide"],
)
def test_graded_spectrum_rank_cut(kind, dims):
    """LAPACK is accurate relative to ||A||; the rank cut must still find every
    value of a spectrum graded over eight decades, down to 1e-8."""
    k = dims[1] if kind == "spsd" else min(dims)
    spec = ProblemSpec(kind, dims, _GRADED_VALUES + (0.0,) * (k - _GRADED_RANK), seed=97)
    a = make_problem(spec).a
    if kind == "spsd":
        dec = symmetric_eig(a)
        rank, smallest = dec.rank, dec.lambdas_r[-1]
    else:
        sd = svd(a)
        rank, smallest = sd.rank, sd.sigmas_r[-1]
    assert rank == _GRADED_RANK
    np.testing.assert_allclose(smallest, _GRADED_VALUES[-1], rtol=1e-6)
