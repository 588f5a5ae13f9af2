import re
from dataclasses import asdict

import numpy as np
import pytest

from semikrylov.genmat import GeneratedProblem, ProblemSpec, make_problem, random_orthogonal
from semikrylov.linalg import symmetric_eig
from semikrylov.oracle import consistency_check


class TestRandomOrthogonal:
    def test_one_by_one_is_a_sign(self):
        q = random_orthogonal(1, 0)
        assert q.shape == (1, 1)
        assert abs(abs(q[0, 0]) - 1.0) <= 1e-15

    def test_columns_orthonormal(self):
        for n, seed in ((3, 0), (10, 1), (25, 42)):
            q = random_orthogonal(n, seed)
            assert np.abs(q.T @ q - np.eye(n)).max() <= 1e-12

    def test_deterministic(self):
        np.testing.assert_array_equal(random_orthogonal(8, 123), random_orthogonal(8, 123))
        assert not np.array_equal(random_orthogonal(8, 123), random_orthogonal(8, 124))

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            random_orthogonal(0, 1)


class TestProblemSpec:
    def test_validates_sorted_spectrum(self):
        with pytest.raises(ValueError):
            ProblemSpec("spsd", (3, 3), (1.0, 2.0, 0.0), seed=1)

    def test_validates_spectrum_length(self):
        with pytest.raises(ValueError):
            ProblemSpec("spsd", (3, 3), (1.0, 0.5), seed=1)
        with pytest.raises(ValueError):
            ProblemSpec("rectangular", (4, 3), (1.0, 0.5), seed=1)

    def test_validates_kind_and_mode(self):
        with pytest.raises(ValueError):
            ProblemSpec("banded", (3, 3), (1.0, 0.5, 0.0), seed=1)
        with pytest.raises(ValueError):
            ProblemSpec("spsd", (3, 3), (1.0, 0.5, 0.0), seed=1, x0_mode="warm")

    def test_round_trips_through_dict(self):
        spec = ProblemSpec(
            "rectangular", (6, 4), (2.0, 1.0, 0.5, 0.0), seed=9, consistency_gap=0.25,
            x0_mode="random_range",
        )
        assert ProblemSpec.from_dict(spec.to_dict()) == spec

    def test_to_dict_is_the_asdict_form_and_a_copy(self):
        """Key for key and in order, as dataclasses.asdict gave it, and mutating it leaves the spec as it was."""
        spec = ProblemSpec("spsd", (3, 3), (1.0, 0.5, 0.0), seed=4, consistency_gap=0.25, x0_mode="random_full")
        d = spec.to_dict()
        assert list(d.items()) == list((asdict(spec) | {"dims": [3, 3], "spectrum": [1.0, 0.5, 0.0]}).items())
        d["dims"].append(1)
        d["spectrum"][0] = 9.0
        d["seed"] = 5
        assert spec == ProblemSpec("spsd", (3, 3), (1.0, 0.5, 0.0), seed=4, consistency_gap=0.25,
                                   x0_mode="random_full")
        assert spec.to_dict() == asdict(spec) | {"dims": [3, 3], "spectrum": [1.0, 0.5, 0.0]}

    def test_missing_field_is_a_value_error(self):
        with pytest.raises(ValueError):
            ProblemSpec.from_dict({"kind": "spsd", "dims": [2, 2], "spectrum": [1.0, 0.0]})

    @pytest.mark.parametrize("field, value", [
        ("dims", [2.0, 2.0]), ("dims", [True, True]), ("seed", 1.5), ("seed", "1"), ("seed", True),
        ("spectrum", ["1", "0"]), ("consistency_gap", False), ("consistency_gap", "0.1"),
        # as the Python API is given them
        ("dims", (2.5, 2.5)), ("dims", (np.bool_(True), np.bool_(True))), ("dims", 2), ("seed", 1.9),
        ("seed", np.float64(1.0)), ("spectrum", ("1", "0")), ("consistency_gap", np.bool_(False)),
    ])
    def test_a_field_of_another_json_type_is_named_not_coerced(self, field, value):
        payload = {"kind": "spsd", "dims": [2, 2], "spectrum": [1.0, 0.0], "seed": 1, field: value}
        for build in (ProblemSpec.from_dict, lambda d: ProblemSpec(**d)):
            with pytest.raises(ValueError, match=f"^problem spec field '{field}' "):
                build(payload)

    @pytest.mark.parametrize("field, value, message", [
        ("dims", [2, 2, 2], "dims must be a pair (m, n)"),
        ("dims", [0, 2], "dims must be positive"),
        ("spectrum", [1.0, -1.0], "spectrum must be nonnegative"),
        ("consistency_gap", -0.1, "consistency_gap must be nonnegative"),
        ("spectrum", [10**400, 0], "problem spec has a malformed field: int too large to convert to float"),
        ("seed", -1, "seed must fit an unsigned 64-bit integer"),
        ("seed", 2**64, "seed must fit an unsigned 64-bit integer"),
    ], ids=["dims-not-a-pair", "dims-not-positive", "negative-spectrum", "negative-gap", "huge-int",
            "negative-seed", "seed-2**64"])
    def test_a_bad_field_value_is_refused_with_its_message(self, field, value, message):
        payload = {"kind": "spsd", "dims": [2, 2], "spectrum": [1.0, 0.0], "seed": 1, field: value}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ProblemSpec.from_dict(payload)

    def test_numpy_scalars_are_taken_as_the_numbers_they_hold(self):
        spec = ProblemSpec("spsd", (np.int64(2), np.uint8(2)), (np.float32(1.0), np.int64(0)),
                           seed=np.uint64(3), consistency_gap=np.float64(0.0))
        assert spec == ProblemSpec("spsd", (2, 2), (1.0, 0.0), seed=3)
        assert ProblemSpec("spsd", (2, 2), np.array([1.0, 0.0]), seed=3) == spec


class TestMakeProblem:
    def test_deterministic_outputs(self):
        spec = ProblemSpec("spsd", (10, 10), tuple(np.geomspace(1, 0.1, 7)) + (0.0,) * 3, seed=5)
        first = make_problem(spec)
        second = make_problem(spec)
        for name in ("a", "b", "x0", "xstar_reference"):
            np.testing.assert_array_equal(getattr(first, name), getattr(second, name))

    def test_spectrum_roundtrip(self):
        spectrum = tuple(np.geomspace(2.0, 0.02, 8)) + (0.0, 0.0)
        spec = ProblemSpec("spsd", (10, 10), spectrum, seed=6)
        problem = make_problem(spec)
        dec = symmetric_eig(problem.a)
        np.testing.assert_allclose(dec.lambdas, spectrum, atol=1e-10 * spectrum[0])
        assert dec.rank == 8

    def test_flat_spectrum_gives_identity(self):
        spec = ProblemSpec("spsd", (6, 6), (1.0,) * 6, seed=7)
        problem = make_problem(spec)
        np.testing.assert_allclose(problem.a, np.eye(6), atol=1e-12)

    def test_consistency_gap_is_exact(self):
        spec = ProblemSpec(
            "spsd", (12, 12), tuple(np.geomspace(1, 0.1, 8)) + (0.0,) * 4, seed=8,
            consistency_gap=0.37,
        )
        problem = make_problem(spec)
        dec = symmetric_eig(problem.a)
        report = consistency_check(dec, problem.b)
        assert abs(report.null_norm - 0.37) <= 1e-10

    def test_rectangular_gap_lands_on_gram_null_space(self):
        spec = ProblemSpec("rectangular", (3, 2), (2.0, 1.0), seed=9, consistency_gap=0.5)
        problem = make_problem(spec)
        gram = problem.a @ problem.a.T
        dec = symmetric_eig(gram)
        report = consistency_check(dec, problem.b)
        assert abs(report.null_norm - 0.5) <= 1e-10

    def test_gap_without_null_space_is_an_error(self):
        spec = ProblemSpec("spsd", (4, 4), (2.0, 1.5, 1.0, 0.5), seed=10, consistency_gap=0.1)
        with pytest.raises(ValueError):
            make_problem(spec)

    def test_xstar_solves_the_normal_equations(self):
        spec = ProblemSpec(
            "rectangular", (9, 6), tuple(np.geomspace(1, 0.2, 4)) + (0.0, 0.0), seed=11,
            consistency_gap=0.3,
        )
        problem = make_problem(spec)
        residual = problem.b - problem.a @ problem.xstar_reference
        assert np.linalg.norm(problem.a.T @ residual) <= 1e-12

    def test_x0_modes(self):
        base = dict(kind="spsd", dims=(8, 8), spectrum=(2.0, 1.0, 0.5, 0.2, 0.0, 0.0, 0.0, 0.0))
        zero = make_problem(ProblemSpec(**base, seed=12, x0_mode="zero"))
        np.testing.assert_array_equal(zero.x0, np.zeros(8))
        ranged = make_problem(ProblemSpec(**base, seed=12, x0_mode="random_range"))
        dec = symmetric_eig(ranged.a)
        assert np.linalg.norm(dec.q2.T @ ranged.x0) <= 1e-10 * np.linalg.norm(ranged.x0)
        full = make_problem(ProblemSpec(**base, seed=12, x0_mode="random_full"))
        assert np.linalg.norm(dec.q2.T @ full.x0) > 1e-6 * np.linalg.norm(full.x0)

    def test_returns_generated_problem(self):
        spec = ProblemSpec("spsd", (4, 4), (1.0, 0.5, 0.0, 0.0), seed=13)
        problem = make_problem(spec)
        assert isinstance(problem, GeneratedProblem)
        assert problem.a.shape == (4, 4)
        assert problem.b.shape == (4,)
