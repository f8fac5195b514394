"""Exact scalar arithmetic: rationals, Gaussian rationals, quadratic surds.

Rational numbers are plain ``fractions.Fraction`` values (arbitrary precision,
always gcd-reduced with a positive denominator), so all core computation is
exact.  Two extension types live here:

  GaussianRational  --  re + im*i  with rational re, im.  Eigenvalues of
                        rational matrices that are complex but expressible
                        over the rationals land in this field.
  SqrtExt           --  a + b*sqrt(d)  with rational a, b and a fixed positive
                        non-square d.  Appears only at the boundary, e.g. when
                        materializing the 1/sqrt(d) scale of a sine term.

Both types interoperate with ``int`` and ``Fraction`` through the usual
operator protocol, so polynomial and matrix code stays generic.

Textual syntax used everywhere (files, CLI, JSON): integer ``-12``, rational
``p/q`` such as ``-3/4``, Gaussian rational ``re+im i`` such as ``-2+3i``.
``parse_scalar(format_scalar(x)) == x`` holds bit-exactly.
"""

from __future__ import annotations

import math
import re as _re
from fractions import Fraction
from typing import Union

Rational = Fraction

# Scalars accepted by the generic matrix / polynomial code.
Scalar = Union[int, Fraction, "GaussianRational", "SqrtExt"]

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

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        out = GaussianRational(1)
        base = self
        k = exponent
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm(self) -> Fraction:
        """Field norm N(a+bi) = a^2 + b^2."""
        return self.re * self.re + self.im * self.im

    def inverse(self) -> "GaussianRational":
        return GaussianRational(1) / self

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))


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
    """True for values living in plain Q (possibly a demotable extension element)."""
    if isinstance(x, (int, Fraction)):
        return True
    if isinstance(x, GaussianRational):
        return x.im == 0
    if isinstance(x, SqrtExt):
        return x.b == 0
    return False


def as_fraction(x) -> Fraction:
    """Demote x to a Fraction; raises ValueError if it is genuinely irrational/complex."""
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if isinstance(x, GaussianRational) and x.im == 0:
        return x.re
    if isinstance(x, SqrtExt) and x.b == 0:
        return x.a
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


def format_scalar(x) -> str:
    """Render a scalar in the textual syntax parse_scalar understands."""
    if isinstance(x, (int, Fraction)):
        return str(Fraction(x))
    if isinstance(x, GaussianRational):
        if x.im == 0:
            return str(x.re)
        im = x.im
        if im == 1:
            im_text = "i"
        elif im == -1:
            im_text = "-i"
        else:
            im_text = f"{im}i"
        if x.re == 0:
            return im_text
        sign = "+" if im > 0 else ""
        return f"{x.re}{sign}{im_text}"
    if isinstance(x, SqrtExt):
        if x.b == 0:
            return str(x.a)
        b_text = "" if x.b == 1 else ("-" if x.b == -1 else f"{x.b}*")
        surd = f"{b_text}sqrt({x.d})"
        if x.a == 0:
            return surd
        sign = "+" if x.b > 0 else ""
        return f"{x.a}{sign}{surd}"
    raise TypeError(f"unsupported scalar type: {type(x).__name__}")
