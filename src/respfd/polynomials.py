"""Dense univariate polynomials over exact scalars, and their factorization.

A Poly stores coefficients in ascending degree with the trailing zeros
stripped, so the zero polynomial has an empty coefficient tuple.  Coefficients
may be Fractions or GaussianRationals; Poly evaluates and differentiates but
does no arithmetic between polynomials (the tests keep that, in
tests/reference.py).  integral_coeffs gives a rational polynomial's integer
layout, its numerators over one lcm denominator, as FLINT's fmpq_poly stores it.

Also home to the characteristic-polynomial factorizer.  It factors the
polynomial once, exactly, over Q (p-adic lifting in zfactor, any degree) into
rational roots and irreducible quadratics (s+a)^2 + d, and reads that one
factorization per mode: complex mode splits each quadratic into a conjugate
pair in Q(i), real mode keeps the quadratics with d > 0 (each simple), and
auto takes the complex reading when it exists.  An irreducible factor of
degree >= 3, or a quadratic the mode cannot read, raises IrrationalSpectrum
naming that factor rather than approximating.  Each reading keeps the
polynomial it factors (`poly`) and its integer layout (`integral`), which
both decomposition algorithms read.  At construction it checks its shape and
then, in integer arithmetic, that its factors multiply back out to `poly`
(`multiplies_out`), so no factorization, hand-built or not, reaches the
decomposition without that round trip.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property

from .errors import HintMismatch, IrrationalSpectrum, RepeatedQuadraticFactor, SelfCheckFailed
from .record import Record
from .scalars import (
    GaussianRational,
    Scalar,
    as_fraction,
    is_rational,
    rational_sqrt,
    scalar_im,
    scalar_key,
    scalar_re,
)
from .zfactor import factor_integer, primitive


def _strip(coeffs: Sequence[Scalar]) -> tuple:
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    return tuple(coeffs[:n])


class Poly(Record):
    """Dense univariate polynomial, coefficients ascending in degree."""

    coeffs: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _strip(tuple(self.coeffs)))

    @staticmethod
    def constant(c: Scalar) -> "Poly":
        return Poly((c,))

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


def integral_coeffs(p: Poly) -> tuple[tuple, int]:
    """A rational p's integer layout (numerators, den): p = sum_k numerators[k] s^k / den, den the lcm."""
    coeffs = [as_fraction(c) for c in p.coeffs]
    den = math.lcm(*(c.denominator for c in coeffs))
    return tuple(c.numerator * (den // c.denominator) for c in coeffs), den


class FactoredCharPoly(Record):
    """Factorization of a monic rational polynomial `poly` into supported shapes.

    mode "complex": linear factors only, roots in Q or Q(i).
    mode "real": rational linear factors plus simple irreducible quadratics,
    each stored as (a, d) meaning (s+a)^2 + d with d > 0.

    Linear factors are sorted by (re, im) of the root; quadratics by (a, d).
    Construction checks the shape (a known mode, rational coefficients,
    positive int multiplicities, no root or quadratic listed twice, the
    factor kinds the mode allows) and then the round trip (`multiplies_out`):
    the factors must multiply out to `poly`.  Either failure raises
    SelfCheckFailed (stage "factor").
    `integral` is `poly`'s integer layout, which both algorithms read.
    """

    mode: str
    poly: Poly  # the polynomial factored, with rational coefficients
    linear: tuple = ()  # ((root, multiplicity), ...)
    quadratic: tuple = ()  # ((a, d), ...), real mode only

    def __post_init__(self):
        object.__setattr__(self, "linear", tuple(self.linear))
        object.__setattr__(self, "quadratic", tuple(self.quadratic))
        problem = _shape_problem(self.mode, self.poly, self.linear, self.quadratic)
        if problem:
            raise SelfCheckFailed("factor", f"factorization has an unsupported shape: {problem}")
        if not self.multiplies_out(*self.integral):
            raise SelfCheckFailed("factor", "factorization failed round-trip check")

    @property
    def degree(self) -> int:
        return sum(m for _, m in self.linear) + 2 * len(self.quadratic)

    @cached_property
    def integral(self) -> tuple[tuple, int]:
        """`poly` as integral_coeffs lays it out: (numerators, den)."""
        return integral_coeffs(self.poly)

    def multiplies_out(self, numerators: Sequence[int], den: int) -> bool:
        """True when the factors multiply out to the polynomial numerators / den.

        An exact integer identity: with each root lambda = P/e (P a Gaussian
        integer) and each quadratic scaled by q = lcm(den a, den d), so that
        q a and q^2 d are integers,
        prod (e s - P)^m * prod (q^2 (s+a)^2 + q^2 d) = (prod e^m * prod q^2) numerators / den.
        """
        factors, scale = [], 1
        for root, mult in self.linear:
            re, im = scalar_re(root), scalar_im(root)
            e = math.lcm(re.denominator, im.denominator)
            factors += [((-(re * e).numerator, e), (-(im * e).numerator, 0))] * mult
            scale *= e**mult
        for a, d in self.quadratic:
            q = math.lcm(a.denominator, d.denominator)
            qa = (a * q).numerator
            factors.append(((qa * qa + (d * q * q).numerator, 2 * q * qa, q * q), (0, 0, 0)))
            scale *= q * q
        re, im = _gaussian_product(factors)
        return not any(im) and [den * c for c in re] == [scale * c for c in numerators]

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
        return _view(self.poly, rational, quadratic, mode)


def _shape_problem(mode: str, poly: Poly, linear: tuple, quadratic: tuple) -> str:
    """How (mode, poly, linear, quadratic) breaks FactoredCharPoly's documented shape, or ""."""
    if mode not in ("complex", "real"):
        return f"unknown mode {mode!r}"
    if not all(is_rational(c) for c in poly.coeffs):
        return "a coefficient of the polynomial is not rational"
    if not all(type(mult) is int and mult > 0 for _, mult in linear):
        return "a multiplicity is not a positive int"
    if len({scalar_key(root) for root, _ in linear}) < len(linear):
        return "a root is listed twice"
    if mode == "complex":
        return "complex mode has a quadratic factor" if quadratic else ""
    if not all(is_rational(root) for root, _ in linear):
        return "real mode has a non-rational root"
    if not all(d > 0 for _, d in quadratic):
        return "a quadratic factor has d <= 0"
    if len(set(quadratic)) < len(quadratic):
        return "a quadratic factor is listed twice"
    return ""


def _gaussian_product(factors) -> tuple[list, list]:
    """Product of polynomials over Z[i], each given as (re, im) coefficient tuples, ascending."""
    re, im = [1], [0]
    for f_re, f_im in factors:
        size = len(re) + len(f_re) - 1
        out_re, out_im = [0] * size, [0] * size
        for i, (x, y) in enumerate(zip(re, im)):
            for j, (u, v) in enumerate(zip(f_re, f_im)):
                out_re[i + j] += x * u - y * v
                out_im[i + j] += x * v + y * u
        re, im = out_re, out_im
    return re, im


def _irreducible_factors(p: Poly) -> tuple[dict, dict]:
    """Factor a monic rational p over Q into roots and quadratics.

    Returns ({rational root: mult}, {(a, d): mult}) where (a, d) stands for
    the irreducible quadratic (s+a)^2 + d.  A factor of degree >= 3 raises
    IrrationalSpectrum naming it.
    """
    rational, quadratic = {}, {}
    for f, mult in factor_integer(primitive(integral_coeffs(p)[0])):
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


def _view(p: Poly, rational: dict, quadratic: dict, mode: str) -> FactoredCharPoly:
    """Read one factorization of p over Q in complex, real or auto mode."""
    if mode == "auto":
        try:
            return _view(p, rational, quadratic, "complex")
        except IrrationalSpectrum:
            return _view(p, rational, quadratic, "real")
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
    linear = tuple(sorted(linear.items(), key=lambda item: scalar_key(item[0])))
    return FactoredCharPoly(mode, p, linear, tuple(shapes))


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
    result = _view(p, *_irreducible_factors(p), mode)
    if result.mode == "real" and not all(is_rational(root) for root, _ in hints):
        raise HintMismatch("real mode accepts rational root hints only")
    return result
