"""Dense univariate polynomial arithmetic over exact scalars.

A Poly stores coefficients in ascending degree with the trailing zeros
stripped, so the zero polynomial has an empty coefficient tuple.  Coefficients
may be Fractions or GaussianRationals (or anything else implementing exact
field arithmetic); mixed arithmetic works through the scalar operator
protocol.

Also home to the characteristic-polynomial factorizer.  It factors the
polynomial once, exactly, over Q (p-adic lifting in zfactor, any degree) into
rational roots and irreducible quadratics (s+a)^2 + d, and reads that one
factorization per mode: complex mode splits each quadratic into a conjugate
pair in Q(i), real mode keeps the quadratics with d > 0 (each simple), and
auto takes the complex reading when it exists.  An irreducible factor of
degree >= 3, or a quadratic the mode cannot read, raises IrrationalSpectrum
naming that factor rather than approximating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import HintMismatch, IrrationalSpectrum, RepeatedQuadraticFactor, SelfCheckFailed
from .scalars import (
    GaussianRational,
    Scalar,
    as_fraction,
    is_rational,
    rational_sqrt,
    scalar_key,
)
from .zfactor import factor_integer, primitive


def _strip(coeffs: Sequence[Scalar]) -> tuple:
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    return tuple(coeffs[:n])


@dataclass(frozen=True)
class Poly:
    """Dense univariate polynomial, coefficients ascending in degree."""

    coeffs: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _strip(tuple(self.coeffs)))

    @staticmethod
    def zero() -> "Poly":
        return Poly(())

    @staticmethod
    def constant(c: Scalar) -> "Poly":
        return Poly((c,))

    @staticmethod
    def linear(root: Scalar) -> "Poly":
        """The monic linear factor s - root."""
        return Poly((-root, Fraction(1)))

    @property
    def degree(self) -> int:
        """Degree, with the convention degree(0) = -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Scalar:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int) -> Scalar:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def is_monic(self) -> bool:
        return not self.is_zero and self.leading() == 1

    def __bool__(self) -> bool:
        return not self.is_zero

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] = out[k] + c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Poly):
            if self.is_zero or other.is_zero:
                return Poly.zero()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if not a:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
            return Poly(out)
        return Poly(tuple(c * other for c in self.coeffs))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        out = Poly.constant(Fraction(1))
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Exact Euclidean division; requires a nonzero divisor."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero polynomial")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly.zero(), self
        inv_lead = Fraction(1) / other.leading() if other.leading() != 1 else None
        quot = [Fraction(0)] * (dq + 1)
        for k in range(dq, -1, -1):
            top = rem[k + other.degree]
            if not top:
                continue
            q = top if inv_lead is None else top * inv_lead
            quot[k] = q
            for j, b in enumerate(other.coeffs):
                rem[k + j] = rem[k + j] - q * b
        return Poly(quot), Poly(rem[: other.degree if other.degree > 0 else 0])

    def derivative(self) -> "Poly":
        return Poly(tuple(k * c for k, c in enumerate(self.coeffs) if k))

    def eval(self, x: Scalar) -> Scalar:
        """Horner evaluation."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self) -> str:
        from .io import format_poly

        return format_poly(self)


@dataclass(frozen=True)
class FactoredCharPoly:
    """Factorization of a monic rational polynomial into supported shapes.

    mode "complex": linear factors only, roots in Q or Q(i).
    mode "real": rational linear factors plus simple irreducible quadratics,
    each stored as (a, d) meaning (s+a)^2 + d with d > 0.

    Linear factors are sorted by (re, im) of the root; quadratics by (a, d).
    """

    mode: str
    linear: tuple = ()  # ((root, multiplicity), ...)
    quadratic: tuple = ()  # ((a, d), ...), real mode only
    degree: int = field(default=0)

    def __post_init__(self):
        object.__setattr__(self, "linear", tuple(self.linear))
        object.__setattr__(self, "quadratic", tuple(self.quadratic))
        total = sum(m for _, m in self.linear) + 2 * len(self.quadratic)
        object.__setattr__(self, "degree", total)

    def expand(self) -> Poly:
        """Multiply all factors back out; the round-trip oracle for tests."""
        out = Poly.constant(Fraction(1))
        zero = (Fraction(0),)
        for root, mult in self.linear:
            for _ in range(mult):  # out * (s - root), coefficient by coefficient
                out = Poly(tuple(lo - root * hi for lo, hi in zip(zero + out.coeffs, out.coeffs + zero)))
        for a, d in self.quadratic:
            out = out * Poly((a * a + d, 2 * a, Fraction(1)))
        return out

    def eigenvalues(self) -> tuple:
        return tuple(root for root, _ in self.linear)

    def view(self, mode: str) -> "FactoredCharPoly":
        """The same factorization read in another mode (see factor_charpoly)."""
        rational, quadratic = {}, {}
        for root, mult in self.linear:
            if isinstance(root, GaussianRational) and root.im:
                if root.im > 0:
                    quadratic[(-root.re, root.im * root.im)] = mult
            else:
                rational[as_fraction(root)] = mult
        for shape in self.quadratic:
            quadratic[shape] = 1
        return _view(rational, quadratic, mode)


def _irreducible_factors(p: Poly) -> tuple[dict, dict]:
    """Factor a monic rational p over Q into roots and quadratics.

    Returns ({rational root: mult}, {(a, d): mult}) where (a, d) stands for
    the irreducible quadratic (s+a)^2 + d.  A factor of degree >= 3 raises
    IrrationalSpectrum naming it.
    """
    common = math.lcm(*(as_fraction(c).denominator for c in p.coeffs))
    rational, quadratic = {}, {}
    for f, mult in factor_integer(primitive([int(as_fraction(c) * common) for c in p.coeffs])):
        if len(f) == 2:
            rational[Fraction(-f[0], f[1])] = mult
        elif len(f) == 3:
            a = Fraction(f[1], 2 * f[2])
            quadratic[(a, Fraction(f[0], f[2]) - a * a)] = mult
        else:
            q = Poly(tuple(Fraction(c, f[-1]) for c in f))
            raise IrrationalSpectrum(
                f"irreducible factor {q} of degree {q.degree} has roots outside Q(i)",
                residual=q,
            )
    return rational, quadratic


def _view(rational: dict, quadratic: dict, mode: str) -> FactoredCharPoly:
    """Read one factorization over Q in complex, real or auto mode."""
    if mode == "auto":
        try:
            return _view(rational, quadratic, "complex")
        except IrrationalSpectrum:
            return _view(rational, quadratic, "real")
    linear, shapes = dict(rational), []
    for (a, d), mult in sorted(quadratic.items()):
        q = Poly((a * a + d, 2 * a, Fraction(1)))
        beta = rational_sqrt(d)
        if d < 0 or (mode == "complex" and beta is None):
            why = "has real irrational roots" if d < 0 else "has no Gaussian-rational roots"
            raise IrrationalSpectrum(
                f"cannot factor {q} over the supported field ({mode} mode): quadratic {why}",
                residual=q,
            )
        if mode == "complex":
            linear[GaussianRational(-a, beta)] = mult
            linear[GaussianRational(-a, -beta)] = mult
        else:
            shapes.append((a, d))
    for a, d in shapes:  # real mode, after every irrational factor was refused
        if quadratic[(a, d)] > 1:
            from .io import format_quadratic

            raise RepeatedQuadraticFactor(
                f"quadratic factor {format_quadratic(a, d)} is repeated", quadratic=(a, d)
            )
    return FactoredCharPoly(
        mode=mode,
        linear=tuple(sorted(linear.items(), key=lambda item: scalar_key(item[0]))),
        quadratic=tuple(shapes),
    )


def _verify_hints(p: Poly, hints) -> None:
    """Check every hinted (root, multiplicity) exactly; hints are never trusted."""
    for root, mult in hints:
        if mult < 1:
            raise HintMismatch(f"hint multiplicity must be positive, got {mult}")
        # the multiplicity is the number of derivatives vanishing at the root
        q, actual = p, 0
        while q and not q.eval(root):
            q, actual = q.derivative(), actual + 1
        if not actual:
            raise HintMismatch(f"hinted root {root} does not annihilate the polynomial")
        if actual != mult:
            raise HintMismatch(f"hinted multiplicity {mult} for {root} is not exact")


def factor_charpoly(p: Poly, mode: str, hints=None) -> FactoredCharPoly:
    """Factor a monic rational polynomial into the supported shapes.

    One exact factorization over Q (square-free decomposition, then p-adic
    factoring) yields rational roots, irreducible quadratics (s+a)^2 + d and
    nothing else; any irreducible factor of degree >= 3 raises
    IrrationalSpectrum naming it.  The modes read that factorization:
    complex splits each quadratic into a conjugate pair in Q(i), real keeps
    quadratics with d > 0 (each simple), and auto returns the complex view
    when it exists and the real view otherwise.  Hints are verified exactly
    and are never needed to reach an answer.
    """
    if mode not in ("complex", "real", "auto"):
        raise ValueError(f"unknown factorization mode: {mode!r}")
    if p.is_zero or not p.is_monic():
        raise ValueError("characteristic polynomials are monic and nonzero")
    for c in p.coeffs:
        if not is_rational(c):
            raise ValueError("factor_charpoly requires rational coefficients")
    p = Poly(tuple(as_fraction(c) for c in p.coeffs))
    hints = hints or []
    _verify_hints(p, hints)
    result = _view(*_irreducible_factors(p), mode)
    if result.mode == "real" and not all(is_rational(root) for root, _ in hints):
        raise HintMismatch("real mode accepts rational root hints only")
    if result.expand() != p:
        raise SelfCheckFailed("factor", "factorization failed round-trip check")
    return result
