import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semikrylov import linalg
from semikrylov.cli import run_command
from semikrylov.genmat import ProblemSpec, make_problem
from semikrylov.linalg import (
    ConvergenceError,
    as_matrix,
    as_vector,
    check_symmetric,
    matvec,
    svd,
    symmetric_eig,
)
from semikrylov.decomposition import decomposed_cg_run
from semikrylov.mmio import save_matrix_market
from semikrylov.oracle import consistency_check, pinv_apply_rect, pseudoinverse_apply, split
from semikrylov.solvers import cg_solve, cgls_solve, cgne_solve


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

    def test_as_matrix_rejects_an_empty_dimension(self):
        with pytest.raises(ValueError, match=r"matrix dimensions must be positive, got \(0, 3\)"):
            as_matrix(np.zeros((0, 3)))

    def test_as_vector_rejects_non_1d(self):
        with pytest.raises(ValueError, match="expected a 1-d vector, got ndim=2"):
            as_vector(np.zeros((2, 2)))


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


class TestSharedNames:
    """An eigendecomposition reads as an SVD with U = V = Q and sigmas = lambdas."""

    def _dec(self):
        g = np.random.default_rng(29).normal(size=(6, 4))
        return symmetric_eig(g @ g.T)

    def test_the_svd_names_are_the_eigendecomposition_names(self):
        dec = self._dec()
        assert dec.rank == 4 and dec.shape == (dec.dim, dec.dim) == (6, 6)
        for svd_name, eig_name in [("u1", "q1"), ("v1", "q1"), ("u2", "q2"), ("v2", "q2"),
                                   ("sigmas_r", "lambdas_r")]:
            np.testing.assert_array_equal(getattr(dec, svd_name), getattr(dec, eig_name))

    def test_apply_transpose_is_apply_bit_for_bit(self):
        dec = self._dec()
        x = np.random.default_rng(30).normal(size=6)
        np.testing.assert_array_equal(dec.apply_transpose(x), dec.apply(x))


class TestSvd:
    def test_identity(self):
        sd = svd(np.eye(2))
        np.testing.assert_allclose(sd.sigmas, [1.0, 1.0], atol=1e-14)
        assert sd.rank == 2

    def test_single_unit_column(self):
        sd = svd([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        np.testing.assert_allclose(sd.sigmas, [1.0, 0.0], atol=1e-14)
        assert sd.rank == 1

    def test_v2_spans_the_null_space(self):
        a = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        v2 = svd(a).v2
        assert v2.shape == (3, 2)
        np.testing.assert_array_equal(a @ v2, np.zeros((2, 2)))

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


_EIG = symmetric_eig(np.diag([2.0, 1.0, 0.0]))
_TALL = np.arange(12.0).reshape(4, 3)

# every entry point that takes A, b or a start states its shape rule in one of two messages
SHAPE_CASES = {
    "cg_solve b": (lambda: cg_solve(np.eye(3), np.ones(2), np.zeros(3)),
                   "right-hand side has length 2, expected 3"),
    "cg_solve x0": (lambda: cg_solve(np.eye(3), np.ones(3), np.zeros(4)),
                    "initial guess has length 4, expected 3"),
    "cgls_solve b": (lambda: cgls_solve(_TALL, np.ones(3), np.zeros(3)),
                     "right-hand side has length 3, expected 4"),
    "cgls_solve x0": (lambda: cgls_solve(_TALL, np.ones(4), np.zeros(4)),
                      "initial guess has length 4, expected 3"),
    "cgne_solve b": (lambda: cgne_solve(_TALL.T, np.ones(4), np.zeros(3)),
                     "right-hand side has length 4, expected 3"),
    "cgne_solve y0": (lambda: cgne_solve(_TALL.T, np.ones(3), np.zeros(4)),
                      "initial guess has length 4, expected 3"),
    "decomposed_cg_run b": (lambda: decomposed_cg_run(_EIG, np.ones(2), np.zeros(3), 2),
                            "right-hand side has length 2, expected 3"),
    "decomposed_cg_run x0": (lambda: decomposed_cg_run(_EIG, np.ones(3), np.zeros(4), 2),
                             "initial guess has length 4, expected 3"),
    "split": (lambda: split(_EIG, np.ones(2)), "vector has length 2, expected 3"),
    "pseudoinverse_apply": (lambda: pseudoinverse_apply(_EIG, np.ones(4)),
                            "right-hand side has length 4, expected 3"),
    "consistency_check": (lambda: consistency_check(_EIG, np.ones(2)),
                          "right-hand side has length 2, expected 3"),
    "pinv_apply_rect": (lambda: pinv_apply_rect(svd(_TALL), np.ones(3)),
                        "right-hand side has length 3, expected 4"),
    "matvec": (lambda: matvec(_TALL, np.ones(4)), "vector has length 4, expected 3"),
    "cg_solve square": (lambda: cg_solve(_TALL, np.ones(4), np.zeros(3)),
                        "matrix must be square, got 4x3"),
    "symmetric_eig square": (lambda: symmetric_eig(_TALL), "matrix must be square, got 4x3"),
}


@pytest.mark.parametrize("call, message", SHAPE_CASES.values(), ids=SHAPE_CASES.keys())
def test_shape_rule_at_every_entry_point(call, message):
    with pytest.raises(ValueError) as excinfo:
        call()
    assert str(excinfo.value) == message


_SCALED_SPSD = tuple(np.geomspace(1.0, 1e-2, 20)) + (0.0,) * 20
_SCALED_GAP = make_problem(ProblemSpec("spsd", (40, 40), _SCALED_SPSD, seed=5, consistency_gap=1e-3))
_SCALED_TWIN = make_problem(ProblemSpec("spsd", (40, 40), _SCALED_SPSD, seed=5))  # the same A, b in range
_SCALED_RECT = make_problem(ProblemSpec(
    "rectangular", (50, 40), tuple(np.geomspace(1.0, 1e-2, 30)) + (0.0,) * 10, seed=5))


@given(st.floats(-12.0, 12.0))
@example(-12.0)
@settings(max_examples=50, deadline=None)
def test_oracle_verdicts_do_not_depend_on_scale(u):
    """The rank cut, the consistency test and the symmetry test give the same
    verdicts on c A (and c b) for every c in 10^[-12, 12] as at c = 1."""
    c = 10.0**u
    a = c * _SCALED_GAP.a
    dec, sd = symmetric_eig(a), svd(c * _SCALED_RECT.a)
    assert (dec.rank, sd.rank) == (20, 30)
    assert not consistency_check(dec, c * _SCALED_GAP.b).consistent
    assert consistency_check(dec, c * _SCALED_TWIN.b).consistent
    assert consistency_check(sd, c * _SCALED_RECT.b).consistent

    check_symmetric(a)
    upper = np.triu(np.ones_like(a), 1)
    check_symmetric(c * (_SCALED_GAP.a + 1e-14 * np.max(np.abs(_SCALED_GAP.a)) * upper))
    with pytest.raises(ValueError, match="not symmetric"):
        check_symmetric(c * (_SCALED_GAP.a + 1e-6 * np.max(np.abs(_SCALED_GAP.a)) * upper))
