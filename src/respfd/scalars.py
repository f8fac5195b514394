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
``parse_scalar(format_scalar(x)) == x`` holds bit-exactly.  One case analysis,
_spell, writes p/q + (ip/iq)i, from reduced integers, as text, LaTeX or JSON:
for one scalar, and through spell_integral for each entry of integer planes,
where a real plane takes one pass, str of each entry when d = 1.
"""

from __future__ import annotations

import math
import re as _re
from fractions import Fraction

_RATIONAL_RE = _re.compile(r"[+-]?\d+(?:/\d+)?")
_GAUSSIAN_RE = _re.compile(
    r"(?:(?P<re>[+-]?\d+(?:/\d+)?)(?=[+-]))?(?P<im>[+-]?(?:\d+(?:/\d+)?)?)i"
)
_ZERO = Fraction(0)


class GaussianRational:
    """An element re + im*i of Q(i), with exact Fraction components."""

    __slots__ = ("re", "im")

    def __init__(self, re: Fraction | int = _ZERO, im: Fraction | int = _ZERO):
        # a Fraction is immutable, so one is kept as it is; anything else is converted
        object.__setattr__(self, "re", re if isinstance(re, Fraction) else Fraction(re))
        object.__setattr__(self, "im", im if isinstance(im, Fraction) else Fraction(im))

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


# Scalars accepted by the generic matrix / polynomial code.
Scalar = int | Fraction | GaussianRational


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
    """Demote x to a Fraction (a Fraction as it is); raises ValueError if it is genuinely irrational/complex."""
    if isinstance(x, (int, Fraction)):
        return x if isinstance(x, Fraction) else Fraction(x)
    if isinstance(x, GaussianRational) and x.im == 0:
        return x.re
    raise ValueError(f"{x!r} is not a rational value")


def scalar_re(x) -> Fraction:
    return x.re if isinstance(x, GaussianRational) else as_fraction(x)


def scalar_im(x) -> Fraction:
    return x.im if isinstance(x, GaussianRational) else _ZERO


def scalar_key(x) -> tuple[Fraction, Fraction]:
    """Deterministic sort key: (real part, imaginary part)."""
    return (scalar_re(x), scalar_im(x))


def parse_ratio(token: str) -> tuple[int, int]:
    """parse_rational's grammar, read as integers (p, q), q > 0, not reduced."""
    if not _RATIONAL_RE.fullmatch(token):
        raise ValueError(f"not a rational token: {token!r}")
    num, _, den = token.partition("/")
    p, q = int(num), int(den or 1)
    if not q:
        raise ZeroDivisionError(f"Fraction({p}, 0)")
    return p, q


def parse_rational(token: str) -> Fraction:
    """Parse strict integer / p/q syntax; rejects decimals and whitespace."""
    return Fraction(*parse_ratio(token.strip()))


def parse_scalar(token: str) -> Fraction | GaussianRational:
    """Parse a rational or Gaussian-rational token such as -3/4, 2+3i, -i."""
    token = token.strip().replace(" ", "")
    if token.endswith(("i", "I")):
        m = _GAUSSIAN_RE.fullmatch(token[:-1] + "i")
        if not m:
            raise ValueError(f"not a Gaussian rational token: {token!r}")
        im_text = m.group("im")
        im_part = {"": 1, "+": 1, "-": -1}.get(im_text, im_text)  # a bare i, +i or -i has a unit part
        return GaussianRational(Fraction(m.group("re") or 0), Fraction(im_part))
    return parse_rational(token)


def _rational(p: int, q: int, fmt: str) -> str:
    if q == 1:
        return str(p)
    return f"{'-' if p < 0 else ''}\\frac{{{abs(p)}}}{{{q}}}" if fmt == "latex" else f"{p}/{q}"


def _spell(p: int, q: int, ip: int, iq: int, fmt: str):
    """The case analysis of every scalar spelling: p/q + (ip/iq)i, each reduced, in fmt "text", "latex" or "json"."""
    if not ip:
        return _rational(p, q, fmt)
    if fmt == "json":
        return {"re": _rational(p, q, fmt), "im": _rational(ip, iq, fmt)}
    im_text = "i" if (ip, iq) == (1, 1) else "-i" if (ip, iq) == (-1, 1) else f"{_rational(ip, iq, fmt)}i"
    if not p:
        return im_text
    return f"{_rational(p, q, fmt)}{'+' if ip > 0 else ''}{im_text}"


def _spell_scalar(x, fmt: str):
    if isinstance(x, (int, Fraction)):
        p, q = x.as_integer_ratio()
        return _spell(p, q, 0, 1, fmt)
    if not isinstance(x, GaussianRational):
        raise TypeError(f"unsupported scalar type: {type(x).__name__}")
    return _spell(*x.re.as_integer_ratio(), *x.im.as_integer_ratio(), fmt)


def spell_integral(re: list, im: list | None, d: int, fmt: str) -> list:
    """Each entry (re + i*im) / d of integer planes, spelled in fmt: p = x // g and q = d // g, g = gcd(x, d)."""
    if im is None:  # a real plane in one pass: no gcd when d = 1, else one map of gcds
        if d == 1:
            return list(map(str, re))
        return [_rational(x // g, d // g, fmt) for x, g in zip(re, map(math.gcd, re, [d] * len(re)))]
    return [_spell(x // (g := math.gcd(x, d)), d // g, y // (h := math.gcd(y, d)), d // h, fmt) for x, y in zip(re, im)]


def format_scalar(x) -> str:
    """Render a scalar in the textual syntax parse_scalar understands."""
    return _spell_scalar(x, "text")


def latex_scalar(x) -> str:
    """The same spelling in LaTeX, with p/q as \\frac{p}{q}."""
    return _spell_scalar(x, "latex")


def scalar_to_json(x):
    """A rational as its text; a non-real value as {"re": text, "im": text}."""
    return _spell_scalar(x, "json")
