"""Seeded construction of singular test problems with known factors.

Problems are assembled from random orthogonal factors and a prescribed
spectrum, so the exact minimum-norm solution and the exact null-space
content of the right-hand side are known by construction, independent of
any decomposition computed later. All randomness flows through PCG64
streams derived from the single seed, with normal deviates produced by a
Box-Muller transform over the raw uniform stream: the uniform stream of a
named bit generator is stable across numpy versions, so a spec reproduces
bit-identically on one platform and to rounding across platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mmio import MAX_CELLS

KINDS = ("spsd", "rectangular")
X0_MODES = ("zero", "random_range", "random_full")


def _generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def _subseeds(seed: int, count: int) -> list[int]:
    state = np.random.SeedSequence(seed).generate_state(count, dtype=np.uint64)
    return [int(s) for s in state]


def _normals(rng: np.random.Generator, size: int) -> np.ndarray:
    """Box-Muller standard normals over the generator's uniform stream."""
    half = (size + 1) // 2
    u1 = rng.random(half)
    u2 = rng.random(half)
    u1 = np.where(u1 > 0.0, u1, np.finfo(np.float64).tiny)
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    z = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])
    return z[:size]


def random_orthogonal(n: int, seed: int) -> np.ndarray:
    """Deterministic random n x n orthogonal matrix for a given (n, seed).

    QR of a seeded standard-normal matrix, with column signs fixed so the
    triangular factor has a nonnegative diagonal.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    g = _normals(_generator(seed), n * n).reshape(n, n)
    q, r = np.linalg.qr(g)
    signs = np.where(np.diag(r) < 0.0, -1.0, 1.0)
    return q * signs


@dataclass(frozen=True)
class ProblemSpec:
    """Recipe for one seeded test problem.

    kind "spsd" builds a symmetric positive semidefinite matrix from the
    given eigenvalues; "rectangular" builds an m x n matrix from the given
    singular values. consistency_gap is the exact norm of the null-space
    component added to the right-hand side (requires a rank-deficient
    range). x0_mode picks the initial guess: zero, a random vector in the
    row space, or a random full vector.
    """

    kind: str
    dims: tuple[int, int]
    spectrum: tuple[float, ...]
    seed: int
    consistency_gap: float = 0.0
    x0_mode: str = "zero"

    def __post_init__(self):
        for name, number in zip(("dims", "seed", "spectrum", "consistency_gap"), (int, int, float, float)):
            entries = getattr(self, name) if name in ("dims", "spectrum") else [getattr(self, name)]
            kinds = (int, np.integer) + ((float, np.floating) if number is float else ())
            if not isinstance(entries, (list, tuple, np.ndarray)) or any(
                    isinstance(v, bool) or not isinstance(v, kinds) for v in entries):
                raise ValueError(f"problem spec field {name!r} must hold {number.__name__} values")
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "spectrum", tuple(float(s) for s in self.spectrum))
        object.__setattr__(self, "consistency_gap", float(self.consistency_gap))
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if len(self.dims) != 2:
            raise ValueError("dims must be a pair (m, n)")
        m, n = self.dims
        if m < 1 or n < 1:
            raise ValueError("dims must be positive")
        if max(m, n) ** 2 > MAX_CELLS:
            raise ValueError(f"dims {[m, n]} exceed the limit max(m, n)**2 <= {MAX_CELLS}")
        if self.kind == "spsd":
            if m != n:
                raise ValueError("spsd problems must be square")
            if len(self.spectrum) != n:
                raise ValueError("spsd spectrum must list one eigenvalue per dimension")
        else:
            if len(self.spectrum) != min(m, n):
                raise ValueError("rectangular spectrum must list min(m, n) singular values")
        for name in ("spectrum", "consistency_gap"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")
        if any(s < 0.0 for s in self.spectrum):
            raise ValueError("spectrum must be nonnegative")
        if any(s < t for s, t in zip(self.spectrum, self.spectrum[1:])):
            raise ValueError("spectrum must be sorted descending")
        if not (0 <= int(self.seed) < 2**64):
            raise ValueError("seed must fit an unsigned 64-bit integer")
        object.__setattr__(self, "seed", int(self.seed))
        if self.consistency_gap < 0.0:
            raise ValueError("consistency_gap must be nonnegative")
        if self.x0_mode not in X0_MODES:
            raise ValueError(f"x0_mode must be one of {X0_MODES}, got {self.x0_mode!r}")

    @property
    def positive_count(self) -> int:
        """Prescribed rank: number of strictly positive spectrum entries."""
        return sum(1 for s in self.spectrum if s > 0.0)

    def to_dict(self) -> dict:
        # every other field is an immutable scalar, so no deep copy is needed
        return vars(self) | {"dims": list(self.dims), "spectrum": list(self.spectrum)}

    @classmethod
    def from_dict(cls, d: dict) -> "ProblemSpec":
        """Build a spec from its JSON form; a non-object or a bad or mistyped field raises ValueError."""
        if not isinstance(d, dict):
            raise ValueError(f"problem spec must be an object, got {type(d).__name__}")
        try:
            return cls(
                kind=d["kind"],
                dims=d["dims"],
                spectrum=d["spectrum"],
                seed=d["seed"],
                consistency_gap=d.get("consistency_gap", 0.0),
                x0_mode=d.get("x0_mode", "zero"),
            )
        except KeyError as exc:
            raise ValueError(f"problem spec is missing required field {exc}") from exc
        except OverflowError as exc:
            raise ValueError(f"problem spec has a malformed field: {exc}") from exc


@dataclass(frozen=True)
class GeneratedProblem:
    a: np.ndarray
    b: np.ndarray
    x0: np.ndarray
    xstar_reference: np.ndarray


def make_problem(spec: ProblemSpec) -> GeneratedProblem:
    """Assemble (A, b, x0) plus the factor-exact minimum-norm solution.

    b is A w for a seeded w, plus consistency_gap times a seeded unit
    vector orthogonal to the range, so the null-space content of b equals
    the gap exactly (up to rounding). xstar_reference is computed from the
    generating factors themselves, never from a recomputed decomposition.
    """
    m, n = spec.dims
    r = spec.positive_count
    if spec.consistency_gap > 0.0 and r == m:
        raise ValueError(
            "consistency_gap requires a rank-deficient range (rank < number of rows)"
        )
    orth_seed, orth_seed2, w_seed, gap_seed, x0_seed = _subseeds(spec.seed, 5)
    spectrum = np.asarray(spec.spectrum, dtype=np.float64)

    # spsd takes the same orthogonal factor on both sides (m == n); views, never copies
    u = random_orthogonal(m, orth_seed)
    v = u if spec.kind == "spsd" else random_orthogonal(n, orth_seed2)
    k = min(m, n)
    a = (u[:, :k] * spectrum) @ v[:, :k].T
    if spec.kind == "spsd":
        a = 0.5 * (a + a.T)
    left1, left2, right1 = u[:, :r], u[:, r:], v[:, :r]

    w = _normals(_generator(w_seed), n)
    b = a @ w
    if spec.consistency_gap > 0.0:
        g = _normals(_generator(gap_seed), m - r)
        b = b + spec.consistency_gap * (left2 @ (g / np.linalg.norm(g)))

    xstar = right1 @ ((left1.T @ b) / spectrum[:r])

    if spec.x0_mode == "zero":
        x0 = np.zeros(n)
    elif spec.x0_mode == "random_range":
        x0 = right1 @ _normals(_generator(x0_seed), r)
    else:
        x0 = _normals(_generator(x0_seed), n)

    return GeneratedProblem(a, b, x0, xstar)
