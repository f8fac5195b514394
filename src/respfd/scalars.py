"""Exact scalar arithmetic: rationals and Gaussian rationals.

Rational numbers are plain ``fractions.Fraction`` values (arbitrary precision,
always gcd-reduced with a positive denominator), so all core computation is
exact.  One extension type lives here:

  GaussianRational  --  re + im*i  with rational re, im.  Eigenvalues of
                        rational matrices that are complex but expressible
                        over the rationals land in this field.

It interoperates with ``int`` and ``Fraction`` through the usual
operator protocol, so polynomial and matrix code stays generic.

Textual syntax used everywhere (files, CLI, JSON): integer ``-12``, rational
``p/q`` such as ``-3/4``, Gaussian rational ``re+im i`` such as ``-2+3i``.
``parse_scalar(format_scalar(x)) == x`` holds bit-exactly.  latex_scalar
spells the same values in LaTeX, with a LaTeX fraction for p/q.
"""

from __future__ import annotations

import math
import re as _re
from fractions import Fraction
from typing import Union

# Scalars accepted by the generic matrix / polynomial code.
Scalar = Union[int, Fraction, "GaussianRational"]

_RATIONAL_RE = _re.compile(r"[+-]?\d+(?:/\d+)?")
_GAUSSIAN_RE = _re.compile(
    r"(?:(?P<re>[+-]?\d+(?:/\d+)?)(?=[+-]))?(?P<im>[+-]?(?:\d+(?:/\d+)?)?)i"
)


class GaussianRational:
    """An element re + im*i of Q(i), with exact Fraction components."""

    __slots__ = ("re", "im")

    def __init__(self, re: Fraction | int = 0, im: Fraction | int = 0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        return format_scalar(self)

    @staticmethod
    def _coerce(value) -> "GaussianRational | None":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(value)
        return None

    def __eq__(self, other) -> bool:
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        # Gaussian rationals with zero imaginary part must hash like their
        # rational value, matching __eq__.
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        n = other.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        conj = other.conjugate()
        return GaussianRational(
            (self.re * conj.re - self.im * conj.im) / n,
            (self.re * conj.im + self.im * conj.re) / n,
        )

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm(self) -> Fraction:
        """Field norm N(a+bi) = a^2 + b^2."""
        return self.re * self.re + self.im * self.im

    def inverse(self) -> "GaussianRational":
        return GaussianRational(1) / self

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))


def rational_sqrt(x: Fraction | int) -> Fraction | None:
    """Return the exact rational square root of x, or None if there is none."""
    x = Fraction(x)
    if x < 0:
        return None
    if x == 0:
        return Fraction(0)
    num_root = math.isqrt(x.numerator)
    den_root = math.isqrt(x.denominator)
    if num_root * num_root == x.numerator and den_root * den_root == x.denominator:
        return Fraction(num_root, den_root)
    return None


def is_rational(x) -> bool:
    """True for values living in plain Q (possibly a demotable Gaussian rational)."""
    if isinstance(x, (int, Fraction)):
        return True
    if isinstance(x, GaussianRational):
        return x.im == 0
    return False


def as_fraction(x) -> Fraction:
    """Demote x to a Fraction; raises ValueError if it is genuinely irrational/complex."""
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if isinstance(x, GaussianRational) and x.im == 0:
        return x.re
    raise ValueError(f"{x!r} is not a rational value")


def scalar_re(x) -> Fraction:
    return x.re if isinstance(x, GaussianRational) else Fraction(x)


def scalar_im(x) -> Fraction:
    return x.im if isinstance(x, GaussianRational) else Fraction(0)


def scalar_key(x) -> tuple[Fraction, Fraction]:
    """Deterministic sort key: (real part, imaginary part)."""
    return (scalar_re(x), scalar_im(x))


def parse_rational(token: str) -> Fraction:
    """Parse strict integer / p/q syntax; rejects decimals and whitespace."""
    token = token.strip()
    if not _RATIONAL_RE.fullmatch(token):
        raise ValueError(f"not a rational token: {token!r}")
    value = Fraction(token)  # raises ZeroDivisionError on p/0
    return value


def parse_scalar(token: str) -> Fraction | GaussianRational:
    """Parse a rational or Gaussian-rational token such as -3/4, 2+3i, -i."""
    token = token.strip().replace(" ", "")
    if token.endswith(("i", "I")):
        m = _GAUSSIAN_RE.fullmatch(token[:-1] + "i")
        if not m:
            raise ValueError(f"not a Gaussian rational token: {token!r}")
        re_part = Fraction(m.group("re")) if m.group("re") else Fraction(0)
        im_text = m.group("im")
        if im_text in ("", "+"):
            im_part = Fraction(1)
        elif im_text == "-":
            im_part = Fraction(-1)
        else:
            im_part = Fraction(im_text)
        return GaussianRational(re_part, im_part)
    return parse_rational(token)


def _spell(x, rational) -> str:
    """The case analysis of every scalar spelling; `rational` spells one Fraction."""
    if isinstance(x, (int, Fraction)):
        return rational(Fraction(x))
    if not isinstance(x, GaussianRational):
        raise TypeError(f"unsupported scalar type: {type(x).__name__}")
    if x.im == 0:
        return rational(x.re)
    im_text = "i" if x.im == 1 else "-i" if x.im == -1 else f"{rational(x.im)}i"
    if x.re == 0:
        return im_text
    sign = "+" if x.im > 0 else ""
    return f"{rational(x.re)}{sign}{im_text}"


def format_scalar(x) -> str:
    """Render a scalar in the textual syntax parse_scalar understands."""
    return _spell(x, str)


def _latex_rational(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    sign = "-" if x < 0 else ""
    return f"{sign}\\frac{{{abs(x.numerator)}}}{{{x.denominator}}}"


def latex_scalar(x) -> str:
    """The same spelling in LaTeX, with p/q as \\frac{p}{q}."""
    return _spell(x, _latex_rational)
