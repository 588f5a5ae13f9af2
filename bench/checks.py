"""Independent references and the correctness gate.

Everything here uses numpy alone: Matrix Market text is parsed with the
standard float parser, projections and pseudoinverse solutions come from
numpy's own LAPACK. The program under test computes none of the references
its answers are checked against. Each check returns a list of problems; an
empty list means the answer passed.
"""

from __future__ import annotations

import numpy as np

ACCURACY_TOL = 1e-8
SPECTRUM_TOL = 1e-8
RANK_TOL = 1e-10


class Factors:
    """Range and null bases of a matrix from numpy's LAPACK, cut at the rank the spec prescribes.

    For a symmetric matrix the left and right bases coincide. ``pinv``
    applies the pseudoinverse, ``row_null`` projects onto the null space of
    the matrix and ``col_null_unit`` gives a unit vector outside its range.
    """

    def __init__(self, a: np.ndarray, rank: int, symmetric: bool):
        if symmetric:
            lam, q = np.linalg.eigh(a)
            order = np.argsort(-lam, kind="stable")
            lam, q = lam[order], q[:, order]
            self.left, self.right = q, q
        else:
            u, lam, vt = np.linalg.svd(a, full_matrices=True)
            self.left, self.right = u, vt.T
        self.values = lam[:rank]
        self.rank = rank
        self.numerical_rank = int(np.sum(np.abs(lam) > RANK_TOL * np.max(np.abs(lam))))

    def pinv(self, b: np.ndarray) -> np.ndarray:
        u1, v1 = self.left[:, : self.rank], self.right[:, : self.rank]
        return v1 @ ((u1.T @ b) / self.values)

    def row_null(self, x: np.ndarray) -> np.ndarray:
        v2 = self.right[:, self.rank :]
        return v2 @ (v2.T @ x)

    def col_null_unit(self, g: np.ndarray) -> np.ndarray:
        """Unit vector in the complement of the range, from coefficients ``g``."""
        u2 = self.left[:, self.rank :]
        v = u2 @ g[: u2.shape[1]]
        return v / np.linalg.norm(v)


def relative_error(x: np.ndarray, reference: np.ndarray) -> float:
    return float(np.linalg.norm(x - reference)) / float(np.linalg.norm(reference))


def check_accuracy(x: np.ndarray, reference: np.ndarray, tol: float = ACCURACY_TOL) -> list[str]:
    err = relative_error(x, reference)
    if not err <= tol:
        return [f"solution is {err:.3e} from the reference (limit {tol:g})"]
    return []


def spectrum_facts(spectrum) -> tuple[int, float, float]:
    """(rank, largest, smallest positive) of a prescribed spectrum."""
    positive = [s for s in spectrum if s > 0.0]
    return len(positive), max(positive), min(positive)


def _close(value: float, expected: float, tol: float = SPECTRUM_TOL) -> bool:
    return abs(value - expected) <= tol * abs(expected)


def check_oracle(rank: int, largest: float, smallest: float, spectrum) -> list[str]:
    """The reported rank and extreme nonzero spectral values match the spec."""
    want_rank, want_largest, want_smallest = spectrum_facts(spectrum)
    problems = []
    if rank != want_rank:
        problems.append(f"rank {rank}, spec prescribes {want_rank}")
    if not _close(largest, want_largest):
        problems.append(f"largest spectral value {largest!r}, spec has {want_largest!r}")
    if not _close(smallest, want_smallest):
        problems.append(f"smallest nonzero spectral value {smallest!r}, spec has {want_smallest!r}")
    return problems


def check_summary(report: dict, spectrum) -> list[str]:
    """check_oracle on a CLI JSON report's rank and spectral_summary."""
    summary = report.get("spectral_summary") or {}
    if "lambda_1" in summary:
        largest, smallest = summary["lambda_1"], summary["lambda_r"]
    else:
        largest, smallest = summary.get("sigma_1", float("nan")), summary.get("sigma_r", float("nan"))
    return check_oracle(report.get("rank"), largest, smallest, spectrum)


def check_equal(name: str, got, expected) -> list[str]:
    if got != expected:
        return [f"{name} is {got!r}, expected {expected!r}"]
    return []


def check_true(name: str, value) -> list[str]:
    return [] if value is True else [f"{name} is {value!r}, expected True"]


def check_bitwise(name: str, got: np.ndarray, expected: np.ndarray) -> list[str]:
    """Bit-exact equality, so a round trip that loses a last digit fails."""
    if got.shape != expected.shape:
        return [f"{name} has shape {got.shape}, expected {expected.shape}"]
    if got.tobytes() != expected.tobytes():
        return [f"{name} differs from the reference in {int(np.sum(got != expected))} entries"]
    return []


def parse_mtx_array(text: str) -> np.ndarray:
    """Parse 'array real general' Matrix Market text without the program's reader."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("%")]
    header = text.split("\n", 1)[0].split()
    if [tok.lower() for tok in header[1:]] != ["matrix", "array", "real", "general"]:
        raise ValueError(f"unexpected Matrix Market header {header}")
    rows, cols = (int(tok) for tok in lines[0].split())
    values = np.array([float(tok) for ln in lines[1:] for tok in ln.split()])
    if values.size != rows * cols:
        raise ValueError(f"expected {rows * cols} entries, found {values.size}")
    return values.reshape(cols, rows).T.copy()


def coordinate_symmetric_text(a: np.ndarray) -> str:
    """Render a symmetric matrix as 'coordinate real symmetric' text, lower triangle only."""
    n = a.shape[0]
    rows, cols = np.tril_indices(n)
    entries = zip(rows.tolist(), cols.tolist(), a[rows, cols].tolist())
    body = [f"{i + 1} {j + 1} {value!r}" for i, j, value in entries]
    head = ["%%MatrixMarket matrix coordinate real symmetric", f"{n} {n} {len(body)}"]
    return "\n".join(head + body) + "\n"
