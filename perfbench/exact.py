"""The benchmark's own exact arithmetic, independent of respfd.

Scalars are Fractions or `CQ` (a Gaussian rational kept as two Fractions);
matrices are lists of rows.  Only what the generators and the output checks
need lives here: products, the resolvent identity, and Laplace transforms of
closed-form terms.
"""

from __future__ import annotations

import math
from fractions import Fraction


class CQ:
    """re + im*i with Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, o):
        o = cq(o)
        return CQ(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, o):
        o = cq(o)
        return CQ(self.re - o.re, self.im - o.im)

    def __rsub__(self, o):
        return cq(o) - self

    def __neg__(self):
        return CQ(-self.re, -self.im)

    def __mul__(self, o):
        o = cq(o)
        return CQ(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def inv(self):
        norm = self.re * self.re + self.im * self.im
        if not norm:
            raise ZeroDivisionError("CQ division by zero")
        return CQ(self.re / norm, -self.im / norm)

    def __truediv__(self, o):
        return self * cq(o).inv()

    def __pow__(self, k: int):
        out = CQ(1)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, o):
        o = cq(o)
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __repr__(self):
        return f"CQ({self.re}, {self.im})"


def cq(x) -> CQ:
    return x if isinstance(x, CQ) else CQ(x)


def matmul(x, y) -> list:
    cols = list(zip(*y))
    return [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in x]


def matvec(x, v) -> list:
    return [sum(a * b for a, b in zip(row, v)) for row in x]


def resolvent_vector_identity(a, s0, y, rhs) -> bool:
    """(s0 I - A) y == rhs for rational A, s0, rhs and a Gaussian vector y.

    With a random rhs r and y = X r this is Freivalds' test of the matrix
    identity (s0 I - A) X = I, at O(n^2) cost instead of O(n^3).
    """
    n = len(a)
    pencil = [[(s0 if i == j else 0) - a[i][j] for j in range(n)] for i in range(n)]
    re = matvec(pencil, [v.re if isinstance(v, CQ) else v for v in y])
    im = matvec(pencil, [v.im if isinstance(v, CQ) else 0 for v in y])
    return not any(im) and re == [Fraction(v) for v in rhs]


def laplace_exp(lam, k: int, s0):
    """Laplace transform of t^k e^{lam t} at s0: k! / (s0 - lam)^{k+1}."""
    base = (cq(s0) - lam).inv() if isinstance(lam, CQ) else 1 / (Fraction(s0) - lam)
    return math.factorial(k) * base ** (k + 1)


def laplace_trig(kind: str, a, d, scaled_by_root: bool, s0) -> Fraction:
    """Laplace transform at s0 of e^{-at} cos(sqrt(d) t), or of the sine term.

    With `scaled_by_root` the sine term is e^{-at} sin(sqrt(d) t)/sqrt(d);
    otherwise sqrt(d) is rational and already folded into the coefficient,
    so the term is e^{-at} sin(sqrt(d) t) and its transform carries sqrt(d).
    """
    shifted = Fraction(s0) + a
    denom = shifted * shifted + d
    if kind == "cos":
        return shifted / denom
    if scaled_by_root:
        return 1 / denom
    return rational_sqrt(d) / denom


def rational_sqrt(x: Fraction):
    x = Fraction(x)
    if x < 0:
        return None
    p, q = math.isqrt(x.numerator), math.isqrt(x.denominator)
    if p * p == x.numerator and q * q == x.denominator:
        return Fraction(p, q)
    return None
