"""Exact partial fractions of the matrix resolvent, and what they unlock.

The resolvent (sI - A)^{-1} of a square rational matrix decomposes into
partial fractions with constant matrix coefficients.  Those coefficients
carry the spectral structure of A directly: their columns are chains of
generalized eigenvectors, and term-by-term inverse Laplace transformation
turns the decomposition into a closed-form matrix exponential and exact
solutions of y' = A y.  Everything is computed in exact rational (or
Gaussian-rational) arithmetic; floating point appears only in the
independent verification oracle.
"""

from .chains import (
    Chain,
    ChainBasis,
    extract_column_chains,
    generalized_rank,
    geometric_multiplicity,
    membership_check,
    select_chain_basis,
)
from .errors import (
    DimensionMismatch,
    EmptyMatrix,
    EvalAtPole,
    HintMismatch,
    IncompleteBasis,
    InconsistentSystem,
    IrrationalSpectrum,
    MatrixParseError,
    MatrixTooLarge,
    NonSquareMatrix,
    NotAGeneralizedEigenvector,
    RepeatedQuadraticFactor,
    RespfdError,
    SelfCheckFailed,
    SingularSeriesDivision,
)
from .exponential import (
    BasisFunction,
    ClosedFormExp,
    GeneralSolution,
    IVPSolution,
    decompose,
    exp_derivative,
    exp_eval,
    exp_from_pfd,
    general_solution,
    matrix_exponential,
    numeric_oracle_exp,
    premultiply,
    relative_error,
    solve_ivp,
)
from .io import matrix_to_file_text, parse_matrix
from .linalg import (
    Matrix,
    PolyMatrix,
    det,
    faddeev_leverrier,
    inverse,
    mat_vec,
    nullspace,
    rank,
    solve,
)
from .pfd import (
    CheckResult,
    EigenvalueTerm,
    QuadraticTerm,
    ResolventPFD,
    all_passed,
    pfd_real,
    pfd_residue,
    pfd_undetermined,
    reconstruct_resolvent,
    verify_pfd,
    verify_real_pfd,
)
from .polynomials import FactoredCharPoly, Poly, factor_charpoly
from .scalars import (
    GaussianRational,
    format_scalar,
    parse_rational,
    parse_scalar,
    rational_sqrt,
)

__version__ = "1.0.0"
