"""factor_charpoly against sympy.factor_list on planted products (test-only).

Products of planted factors up to degree 12: rational roots (halves too, and
roots near 1e6 and 1e9), Q(i) conjugate pairs, real quadratics (s+a)^2 + d,
quadratics with real irrational roots, irreducible cubics, each with
multiplicity up to 3.  The expected outcome in each mode is read off sympy's
factorization over Q (and over Q(i) for complex mode), never off the plan.
sympy is a test-only dependency; without it this module is skipped.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from respfd.errors import IrrationalSpectrum, RepeatedQuadraticFactor  # noqa: E402
from respfd.polynomials import Poly, factor_charpoly  # noqa: E402
from respfd.scalars import GaussianRational  # noqa: E402

S = sympy.Symbol("s")
halves = st.integers(-12, 12).map(lambda k: Fraction(k, 2))
non_square = st.sampled_from([2, 3, 5, 6, 7, 10, 11, 13, 15, 17]).flatmap(
    lambda n: st.sampled_from([Fraction(n), Fraction(n, 4), Fraction(9 * n, 4)])
)


def _quadratic(a: Fraction, d: Fraction) -> Poly:
    """(s + a)^2 + d."""
    return Poly((a * a + d, 2 * a, Fraction(1)))


factors = st.one_of(
    st.integers(-30, 30).flatmap(lambda k: st.sampled_from([Fraction(k), Fraction(k, 2)])).map(Poly.linear),
    st.tuples(st.sampled_from([10**6, 10**9]), st.integers(-40, 40), st.sampled_from([1, -1])).map(
        lambda t: Poly.linear(Fraction(t[2] * (t[0] + t[1])))
    ),
    st.tuples(halves, halves.filter(bool)).map(lambda t: _quadratic(t[0], t[1] * t[1])),  # Q(i) pair
    st.tuples(halves, non_square).map(lambda t: _quadratic(*t)),  # real quadratic, d > 0
    st.tuples(halves, non_square).map(lambda t: _quadratic(t[0], -t[1])),  # real irrational roots
    st.sampled_from([2, 3, 5, 10]).map(lambda k: Poly((Fraction(-k), 0, 0, Fraction(1)))),
)


@st.composite
def planted(draw) -> Poly:
    p = Poly((Fraction(1),))
    for factor, mult in draw(st.lists(st.tuples(factors, st.integers(1, 3)), min_size=1, max_size=6)):
        if p.degree + factor.degree * mult <= 12:
            p = p * factor**mult
    return p


def _fraction(x) -> Fraction:
    x = sympy.Rational(x)
    return Fraction(int(x.p), int(x.q))


def _monic(f) -> Poly:
    coeffs = sympy.Poly(f, S).all_coeffs()[::-1]
    return Poly(tuple(_fraction(c / coeffs[-1]) for c in coeffs))


def _root(f):
    c0, c1 = (sympy.expand(c) for c in sympy.Poly(f, S, extension=sympy.I).all_coeffs()[::-1])
    root = sympy.expand(-c0 / c1)
    re, im = _fraction(sympy.re(root)), _fraction(sympy.im(root))
    return GaussianRational(re, im) if im else re


def expected(p: Poly, mode: str):
    """(error type, allowed residuals) or the FactoredCharPoly fields, from sympy.

    A factor of degree >= 3 is named before any quadratic, and in real mode
    an irrational quadratic before a repeated one.
    """
    expr = sum(sympy.Rational(c.numerator, c.denominator) * S**k for k, c in enumerate(p.coeffs))
    over_q = sympy.factor_list(expr)[1]
    bad = [f for f, _ in over_q if sympy.degree(f, S) >= 3]
    linear, quadratic = {}, []
    for f, mult in over_q if not bad else ():
        if sympy.degree(f, S) == 1:
            linear[_root(f)] = mult
        elif mode == "complex":
            # each irreducible quadratic over Q, factored again over Q(i)
            over_qi = sympy.factor_list(f, extension=sympy.I)[1]
            if any(sympy.degree(g, S) > 1 for g, _ in over_qi):
                bad.append(f)
            else:
                linear.update((_root(g), mult) for g, _ in over_qi)
        elif sympy.discriminant(f, S) > 0:
            bad.append(f)
        else:
            c0, c1, _ = _monic(f).coeffs
            quadratic.append(((c1 / 2, c0 - c1 * c1 / 4), mult))
    if bad:
        return IrrationalSpectrum, {_monic(f) for f in bad}
    repeated = {shape for shape, mult in quadratic if mult > 1}
    if repeated:
        return RepeatedQuadraticFactor, repeated
    return linear, tuple(sorted(shape for shape, _ in quadratic))


def outcome(p: Poly, mode: str):
    try:
        f = factor_charpoly(p, mode)
    except IrrationalSpectrum as exc:
        return IrrationalSpectrum, exc.residual
    except RepeatedQuadraticFactor as exc:
        return RepeatedQuadraticFactor, exc.quadratic
    return dict(f.linear), f.quadratic


@settings(derandomize=True, max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(planted())
def test_factor_charpoly_matches_sympy(p):
    wants = {mode: expected(p, mode) for mode in ("complex", "real")}
    wants["auto"] = wants["real" if wants["complex"][0] is IrrationalSpectrum else "complex"]
    for mode, want in wants.items():
        got = outcome(p, mode)
        if isinstance(want[0], type):
            assert got[0] is want[0] and got[1] in want[1], (mode, p, got, want)
        else:
            assert got == want, (mode, p)
