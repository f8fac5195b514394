"""Exception types shared across the package.

Domain errors (unfactorable spectra, inconsistent systems, ...) are distinct
from usage errors (bad matrix files, bad flags) and from failed internal
self-checks, so the CLI can map them to different exit codes.
"""

from __future__ import annotations


class RespfdError(Exception):
    """Base class for all domain errors raised by this package."""


class DimensionMismatch(RespfdError):
    """Matrix or vector dimensions are incompatible for the operation."""


class MatrixTooLarge(RespfdError):
    """Exact adjugate cost grows fast; sizes beyond the soft limit are refused."""


class InconsistentSystem(RespfdError):
    """A linear solve was requested for an unsolvable right-hand side."""


class SingularSeriesDivision(RespfdError):
    """Power-series division needs a denominator with nonzero constant term."""


class IrrationalSpectrum(RespfdError):
    """The characteristic polynomial has factors outside the supported shapes.

    Carries the unfactorable residual so error messages can name it.
    """

    def __init__(self, message: str, residual=None):
        super().__init__(message)
        self.residual = residual


class RepeatedQuadraticFactor(RespfdError):
    """Real mode requires simple irreducible quadratic factors."""

    def __init__(self, message: str, quadratic=None):
        super().__init__(message)
        self.quadratic = quadratic


class HintMismatch(RespfdError):
    """A user-supplied root hint failed exact verification."""


class EvalAtPole(RespfdError):
    """The resolvent cannot be evaluated at an eigenvalue."""


class NotAGeneralizedEigenvector(RespfdError):
    """The vector does not lie in the requested generalized eigenspace."""


class IncompleteBasis(RespfdError):
    """Column chains failed to span the generalized eigenspace."""


class SelfCheckFailed(AssertionError):
    """An exact internal consistency check failed: a bug, never bad input.

    Carries the pipeline stage that ran the check so the CLI can name it.
    """

    def __init__(self, stage: str, message: str):
        super().__init__(message)
        self.stage = stage


class MatrixParseError(ValueError):
    """A matrix file token failed to parse; carries the position."""

    def __init__(self, message: str, line: int, column: int | None = None):
        position = f"line {line}" if column is None else f"line {line}, column {column}"
        super().__init__(f"{position}: {message}")
        self.line = line
        self.column = column


class NonSquareMatrix(ValueError):
    """Matrix input is ragged or not square."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class EmptyMatrix(ValueError):
    """Matrix input contains no rows."""
