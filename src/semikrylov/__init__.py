"""Solvers and diagnostics for singular symmetric positive semidefinite
systems and rank-deficient least squares problems.

The solvers (plain CG, CGLS, CGNE) record complete iteration traces. A
spectral oracle (LAPACK eigendecomposition and SVD via numpy, accurate
relative to ||A||, and the pseudoinverse built on them) provides ground
truth: iterates can be split into range and null-space components to
verify minimum-norm convergence, null-space stagnation and confinement,
and geometric energy-norm bounds.
"""

from .bounds import BoundReport, cg_bound_verify, cgls_bound_verify, cgne_bound_verify
from .decomposition import (
    ConfinementReport,
    DecomposedTrace,
    EquivalenceReport,
    decomposed_cg_run,
    equivalence_check,
    null_direction_confinement,
)
from .genmat import GeneratedProblem, ProblemSpec, make_problem, random_orthogonal
from .linalg import (
    DEFAULT_RANK_TOL,
    ConvergenceError,
    SingularDecomposition,
    SpectralDecomposition,
    as_matrix,
    as_vector,
    matvec,
    svd,
    symmetric_eig,
)
from .mmio import (
    MatrixMarketError,
    load_matrix_market,
    read_matrix_market,
    save_matrix_market,
    write_matrix_market,
)
from .oracle import (
    ConsistencyReport,
    SplitVector,
    consistency_check,
    pinv_apply_rect,
    pseudoinverse_apply,
    pseudoinverse_matrix,
    split,
    unsplit,
)
from .report import RunReport
from .solvers import SolveTrace, SolverConfig, cg_solve, cgls_solve, cgne_solve

__all__ = [
    "BoundReport",
    "ConfinementReport",
    "ConsistencyReport",
    "ConvergenceError",
    "DEFAULT_RANK_TOL",
    "DecomposedTrace",
    "EquivalenceReport",
    "GeneratedProblem",
    "MatrixMarketError",
    "ProblemSpec",
    "RunReport",
    "SingularDecomposition",
    "SolveTrace",
    "SolverConfig",
    "SpectralDecomposition",
    "SplitVector",
    "as_matrix",
    "as_vector",
    "cg_bound_verify",
    "cg_solve",
    "cgls_bound_verify",
    "cgls_solve",
    "cgne_bound_verify",
    "cgne_solve",
    "consistency_check",
    "decomposed_cg_run",
    "equivalence_check",
    "load_matrix_market",
    "make_problem",
    "matvec",
    "null_direction_confinement",
    "pinv_apply_rect",
    "pseudoinverse_apply",
    "pseudoinverse_matrix",
    "random_orthogonal",
    "read_matrix_market",
    "save_matrix_market",
    "split",
    "svd",
    "symmetric_eig",
    "unsplit",
    "write_matrix_market",
]

__version__ = "0.1.0"
