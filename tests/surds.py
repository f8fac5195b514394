"""Quadratic surds for tests: Q(sqrt(d)) arithmetic, kept out of the package.

The package stores every matrix over Q or Q(i) and keeps an irrational
sqrt(d) only in a sine basis label.  These helpers let tests step outside
that: evaluate a real-mode decomposition at a surd point, or fold a sine
term's 1/sqrt(d) scale into its coefficient matrix.
"""

from __future__ import annotations

import math
from fractions import Fraction

from respfd.exponential import BasisFunction, ClosedFormExp
from respfd.linalg import Matrix
from respfd.scalars import rational_sqrt
from tests import reference


class SqrtExt:
    """An element a + b*sqrt(d) of Q(sqrt(d)), d a fixed positive non-square."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a: Fraction | int, b: Fraction | int, d: Fraction | int):
        d = Fraction(d)
        if d <= 0:
            raise ValueError("the extension radicand must be positive")
        if rational_sqrt(d) is not None:
            raise ValueError(f"radicand {d} is a perfect square; use Fraction")
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):
        raise AttributeError("SqrtExt is immutable")

    def __repr__(self) -> str:
        return f"SqrtExt({self.a!r}, {self.b!r}, {self.d!r})"

    def __str__(self) -> str:
        return f"{self.a} + {self.b}*sqrt({self.d})"

    def _coerce(self, value) -> "SqrtExt | None":
        if isinstance(value, SqrtExt):
            if value.d != self.d:
                raise ValueError("cannot mix different quadratic extensions")
            return value
        if isinstance(value, (int, Fraction)):
            return SqrtExt.__new__(SqrtExt)._init_raw(Fraction(value), Fraction(0), self.d)
        return None

    def _init_raw(self, a, b, d) -> "SqrtExt":
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)
        return self

    def __eq__(self, other) -> bool:
        if isinstance(other, SqrtExt):
            return self.d == other.d and self.a == other.a and self.b == other.b
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __bool__(self) -> bool:
        return bool(self.a) or bool(self.b)

    def __neg__(self) -> "SqrtExt":
        return SqrtExt.__new__(SqrtExt)._init_raw(-self.a, -self.b, self.d)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return SqrtExt.__new__(SqrtExt)._init_raw(self.a + other.a, self.b + other.b, self.d)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return SqrtExt.__new__(SqrtExt)._init_raw(self.a - other.a, self.b - other.b, self.d)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return SqrtExt.__new__(SqrtExt)._init_raw(
            self.a * other.a + self.b * other.b * self.d,
            self.a * other.b + self.b * other.a,
            self.d,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        n = other.a * other.a - other.b * other.b * other.d
        if n == 0:
            # a^2 = b^2 d with d non-square forces a = b = 0
            raise ZeroDivisionError("division by zero extension element")
        conj = other.conjugate()
        num = self * conj
        return SqrtExt.__new__(SqrtExt)._init_raw(num.a / n, num.b / n, self.d)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def conjugate(self) -> "SqrtExt":
        return SqrtExt.__new__(SqrtExt)._init_raw(self.a, -self.b, self.d)

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(float(self.d))


def coefficient_of(cf: ClosedFormExp, basis: BasisFunction) -> Matrix:
    """The matrix multiplying `basis` in the closed form (zero if absent)."""
    for b, c in cf.terms:
        if b == basis:
            return c
    return Matrix.zeros(cf.size, cf.size)


def sin_coefficient_materialized(cf: ClosedFormExp, basis: BasisFunction) -> tuple:
    """Fold a sine term's 1/sqrt(d) scale into the matrix, over Q(sqrt(d)).

    Only meaningful for inv_scale terms; the result is row tuples of SqrtExt
    entries b*sqrt(d) with b = entry/d (a Matrix holds only Q(i) entries).
    """
    if basis.kind != "sin" or not basis.inv_scale:
        raise ValueError("materialization applies to 1/sqrt(d)-scaled sine terms")
    coeff = coefficient_of(cf, basis)
    factor = SqrtExt(Fraction(0), Fraction(1) / basis.d, basis.d)  # = 1/sqrt(d)
    return reference.scale_rows(coeff.rows, factor)
