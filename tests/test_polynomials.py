"""Polynomial arithmetic (the reference), Taylor shift, series division, factorization, round trip."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings

from respfd.errors import (
    HintMismatch,
    IrrationalSpectrum,
    RepeatedQuadraticFactor,
    SelfCheckFailed,
    SingularSeriesDivision,
)
from respfd.linalg import Matrix, faddeev_leverrier
from respfd.polynomials import FactoredCharPoly, Poly, factor_charpoly, integral_coeffs
from respfd.scalars import GaussianRational
from tests.conftest import block_diagonal, companion, deadline, disguised, planted
from tests.reference import (
    expand,
    linear_factor,
    poly_add,
    poly_divmod,
    poly_mul,
    poly_pow,
    poly_sub,
    series_div,
    taylor_shift,
)


def P(*ascending) -> Poly:
    return Poly(tuple(Fraction(c) for c in ascending))


def test_expand_cube():
    cubed = poly_pow(linear_factor(Fraction(2)), 3)
    assert cubed == P(-8, 12, -6, 1)


def test_derivative_power_rule():
    assert P(9, 0, 1).derivative() == P(0, 2)


def test_eval_at_root():
    assert P(6, -5, 1).eval(Fraction(2)) == 0


def test_divmod_exact():
    quot, rem = poly_divmod(P(-8, 12, -6, 1), P(-2, 1))
    assert rem.is_zero
    assert quot == P(4, -4, 1)
    with pytest.raises(ZeroDivisionError):
        poly_divmod(P(1, 1), Poly(()))


def test_divmod_remainder_degree():
    num = P(1, 2, 3, 4)
    den = P(1, 0, 2)
    quot, rem = poly_divmod(num, den)
    assert poly_add(poly_mul(quot, den), rem) == num
    assert rem.degree < den.degree


def test_taylor_shift_quadratic():
    # p(s) = s^2 - 5s + 6 shifted by 2: expand (s+2)^2 - 5(s+2) + 6 by hand
    assert taylor_shift(P(6, -5, 1), Fraction(2)) == P(0, -1, 1)


def test_taylor_shift_identity_and_binomial():
    p = P(3, 0, -7, 2)
    assert taylor_shift(p, Fraction(0)) == p
    assert taylor_shift(P(0, 0, 0, 1), Fraction(1)) == P(1, 3, 3, 1)


def test_taylor_shift_round_trip():
    rng = random.Random(404)
    for _ in range(50):
        p = Poly(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(rng.randint(1, 7))))
        c = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        assert taylor_shift(taylor_shift(p, c), -c) == p


def test_series_div_geometric():
    one = P(1)
    assert series_div(one, P(1, -1), 3) == P(1, 1, 1)
    assert series_div(P(0, 1), P(1, 1), 3) == P(0, 1, -1)


def test_series_div_long_division():
    # (2+s)/(2-s) to two terms, done by hand
    assert series_div(P(2, 1), P(2, -1), 2) == P(1, 1)


def test_series_div_consistency():
    rng = random.Random(505)
    for _ in range(40):
        num = Poly(tuple(Fraction(rng.randint(-9, 9)) for _ in range(rng.randint(1, 6))))
        den_coeffs = [Fraction(rng.randint(1, 9))] + [
            Fraction(rng.randint(-9, 9)) for _ in range(rng.randint(0, 5))
        ]
        den = Poly(tuple(den_coeffs))
        order = rng.randint(1, 6)
        q = series_div(num, den, order)
        residue = poly_sub(num, poly_mul(den, q))
        assert all(not residue.coeff(k) for k in range(order))


def test_series_div_singular():
    with pytest.raises(SingularSeriesDivision):
        series_div(P(1), P(0, 1), 3)


def test_factor_triple_root_complex():
    f = factor_charpoly(P(-8, 12, -6, 1), "complex")
    assert f.linear == ((Fraction(2), 3),)
    assert not f.quadratic


def test_factor_real_with_quadratic():
    f = factor_charpoly(P(26, 21, 6, 1), "real")
    assert f.linear == ((Fraction(-2), 1),)
    assert f.quadratic == ((Fraction(2), Fraction(9)),)


def test_factor_pure_quadratic_real():
    f = factor_charpoly(P(9, 0, 1), "real")
    assert f.linear == ()
    assert f.quadratic == ((Fraction(0), Fraction(9)),)


def test_factor_pure_quadratic_complex():
    f = factor_charpoly(P(9, 0, 1), "complex")
    assert f.linear == (
        (GaussianRational(0, -3), 1),
        (GaussianRational(0, 3), 1),
    )


def test_factor_complex_conjugate_closed():
    f = factor_charpoly(P(26, 21, 6, 1), "complex")
    roots = dict(f.linear)
    for root in list(roots):
        if isinstance(root, GaussianRational):
            assert roots[root.conjugate()] == roots[root]


def test_factor_round_trip_property(rng):
    for _ in range(40):
        roots = [Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2])) for _ in range(rng.randint(1, 5))]
        p = Poly((Fraction(1),))
        for r in roots:
            p = poly_mul(p, linear_factor(r))
        for mode in ("complex", "real"):
            f = factor_charpoly(p, mode)
            assert expand(f.linear, f.quadratic) == p
            assert f.degree == p.degree


def test_factor_rational_roots_with_fractional_eigenvalue():
    p = poly_mul(poly_pow(linear_factor(Fraction(1, 2)), 2), linear_factor(Fraction(-3)))
    f = factor_charpoly(p, "complex")
    assert f.linear == ((Fraction(-3), 1), (Fraction(1, 2), 2))


def test_factor_quartic_split_real():
    # (s^2+1)(s^2+4), distinct irreducible quadratics
    p = poly_mul(P(1, 0, 1), P(4, 0, 1))
    f = factor_charpoly(p, "real")
    assert f.quadratic == ((Fraction(0), Fraction(1)), (Fraction(0), Fraction(4)))


def test_factor_quartic_split_with_cross_terms():
    # (s^2+2s+2)(s^2-2s+2) = s^4 + 4
    p = P(4, 0, 0, 0, 1)
    f = factor_charpoly(p, "real")
    assert f.quadratic == ((Fraction(-1), Fraction(1)), (Fraction(1), Fraction(1)))
    fc = factor_charpoly(p, "complex")
    assert set(dict(fc.linear)) == {
        GaussianRational(-1, -1),
        GaussianRational(-1, 1),
        GaussianRational(1, -1),
        GaussianRational(1, 1),
    }


def test_factor_irrational_rejected_both_modes():
    p = P(-2, 0, 1)  # roots +-sqrt(2)
    for mode in ("complex", "real"):
        with pytest.raises(IrrationalSpectrum) as err:
            factor_charpoly(p, mode)
        assert err.value.residual == p


def test_factor_irrational_quartic_with_real_quadratic_factor():
    # (s^2+1)(s^2-2): splits rationally but s^2-2 is reducible over R
    p = poly_mul(P(1, 0, 1), P(-2, 0, 1))
    with pytest.raises(IrrationalSpectrum):
        factor_charpoly(p, "real")
    with pytest.raises(IrrationalSpectrum):
        factor_charpoly(p, "complex")


def test_factor_repeated_quadratic_real():
    p = poly_pow(P(1, 0, 1), 2)
    with pytest.raises(RepeatedQuadraticFactor):
        factor_charpoly(p, "real")


def test_factor_repeated_quadratic_complex_succeeds():
    p = poly_pow(P(1, 0, 1), 2)
    f = factor_charpoly(p, "complex")
    assert dict(f.linear) == {GaussianRational(0, 1): 2, GaussianRational(0, -1): 2}


def test_factor_sextic_three_quadratics_real():
    # three distinct irreducible quadratics: no degree limit on the residual
    p = poly_mul(poly_mul(P(1, 0, 1), P(4, 0, 1)), P(9, 0, 1))
    f = factor_charpoly(p, "real")
    assert f.linear == ()
    assert f.quadratic == tuple((Fraction(0), Fraction(d)) for d in (1, 4, 9))


def test_hints_verified_and_used():
    p = P(26, 21, 6, 1)
    f = factor_charpoly(p, "complex", hints=[(GaussianRational(-2, 3), 1)])
    assert dict(f.linear) == {
        Fraction(-2): 1,
        GaussianRational(-2, 3): 1,
        GaussianRational(-2, -3): 1,
    }


def test_hint_wrong_root_rejected():
    with pytest.raises(HintMismatch):
        factor_charpoly(P(-8, 12, -6, 1), "complex", hints=[(Fraction(3), 1)])


def test_hint_wrong_multiplicity_rejected():
    with pytest.raises(HintMismatch):
        factor_charpoly(P(-8, 12, -6, 1), "complex", hints=[(Fraction(2), 2)])
    with pytest.raises(HintMismatch):
        factor_charpoly(P(-8, 12, -6, 1), "complex", hints=[(Fraction(2), 4)])


def test_hint_gaussian_rejected_in_real_mode():
    with pytest.raises(HintMismatch):
        factor_charpoly(P(9, 0, 1), "real", hints=[(GaussianRational(0, 3), 1)])


def test_factored_charpoly_degree_invariant():
    f = FactoredCharPoly("real", P(4, -8, 5, -2, 1), ((Fraction(1), 2),), ((Fraction(0), Fraction(4)),))
    assert f.degree == 4


# (s - 1)^2 (s^2 + 4) read with a factor left out, and with a wrong root
@pytest.mark.parametrize(
    "linear, quadratic",
    [
        (((Fraction(1), 2),), ()),
        (((Fraction(1), 1),), ((Fraction(0), Fraction(4)),)),
        (((Fraction(2), 2),), ((Fraction(0), Fraction(4)),)),
    ],
    ids=["no_quadratic", "root_once", "wrong_root"],
)
def test_factorization_must_multiply_out_to_its_polynomial(linear, quadratic):
    with pytest.raises(SelfCheckFailed) as err:
        FactoredCharPoly("real", P(4, -8, 5, -2, 1), linear, quadratic)
    assert err.value.stage == "factor"
    assert str(err.value) == "factorization failed round-trip check"


# Hand-built factorizations whose factors multiply out, each outside the documented shape
@pytest.mark.parametrize(
    "mode, p, linear, quadratic, problem",
    [
        ("bogus", P(1, -2, 1), ((Fraction(1), 2),), (), "unknown mode 'bogus'"),
        (
            "complex",
            P(1, -2, 1),
            ((Fraction(1), 2), (Fraction(3), 0)),
            (),
            "a multiplicity is not a positive int",
        ),
        ("complex", P(1, -2, 1), ((Fraction(1), 1), (Fraction(1), 1)), (), "a root is listed twice"),
        ("complex", P(1, 0, 1), (), ((Fraction(0), Fraction(1)),), "complex mode has a quadratic factor"),
        (
            "real",
            P(1, 0, 1),
            ((GaussianRational(0, -1), 1), (GaussianRational(0, 1), 1)),
            (),
            "real mode has a non-rational root",
        ),
        ("real", P(-1, 0, 1), (), ((Fraction(0), Fraction(-1)),), "a quadratic factor has d <= 0"),
        (
            "real",
            P(1, 0, 2, 0, 1),
            (),
            ((Fraction(0), Fraction(1)), (Fraction(0), Fraction(1))),
            "a quadratic factor is listed twice",
        ),
        (
            "complex",
            Poly((GaussianRational(0, -1), 1)),
            ((GaussianRational(0, 1), 1),),
            (),
            "a coefficient of the polynomial is not rational",
        ),
    ],
    ids=[
        "unknown_mode",
        "zero_multiplicity",
        "root_twice",
        "complex_quadratic",
        "real_gaussian_roots",
        "real_d_not_positive",
        "real_quadratic_twice",
        "gaussian_coefficient",
    ],
)
def test_factorization_must_have_its_documented_shape(mode, p, linear, quadratic, problem):
    with pytest.raises(SelfCheckFailed) as err:
        FactoredCharPoly(mode, p, linear, quadratic)
    assert err.value.stage == "factor"
    assert str(err.value) == f"factorization has an unsupported shape: {problem}"


def test_factorization_reads_rational_coefficients_of_either_type():
    p = Poly((GaussianRational(1), GaussianRational(-2), GaussianRational(1)))
    f = FactoredCharPoly("complex", p, ((1, 2),))
    assert f.integral == ((1, -2, 1), 1)


def _views(f: FactoredCharPoly):
    """f read in each mode that can read it."""
    for mode in ("complex", "real"):
        try:
            yield f.view(mode)
        except (IrrationalSpectrum, RepeatedQuadraticFactor):
            pass


def _mutations(f: FactoredCharPoly):
    """f's factors with one root, one multiplicity or one d changed.

    No planted root has 1009 in its denominator, so a shifted root collides with none.
    """
    if f.linear:
        (root, mult), rest = f.linear[0], f.linear[1:]
        yield ((root + Fraction(1, 1009), mult),) + rest, f.quadratic
        yield ((root, mult + 1),) + rest, f.quadratic
    if f.quadratic:
        (a, d), rest = f.quadratic[0], f.quadratic[1:]
        yield f.linear, ((a, d + 1),) + rest


def _assert_round_trip_agrees(f: FactoredCharPoly) -> None:
    """The integer identity says what the Fraction expansion says, on f.poly, a shifted poly and mutants."""
    oracle = expand(f.linear, f.quadratic)
    assert oracle == f.poly and f.multiplies_out(*f.integral)
    shifted = poly_add(f.poly, P(Fraction(1, 7)))
    assert oracle != shifted and not f.multiplies_out(*integral_coeffs(shifted))
    for linear, quadratic in _mutations(f):
        assert expand(linear, quadratic) != f.poly
        with pytest.raises(SelfCheckFailed, match="^factorization failed round-trip check$"):
            FactoredCharPoly(f.mode, f.poly, linear, quadratic)


@settings(derandomize=True, max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(planted(range(1, 13)))
def test_integer_round_trip_matches_fraction_expansion(a):
    with deadline(30):
        charpoly = faddeev_leverrier(a)[0]
        for mode in ("complex", "real"):
            try:
                f = factor_charpoly(charpoly, mode)
            except RepeatedQuadraticFactor:
                continue
            for g in (f, *_views(f)):
                _assert_round_trip_agrees(g)


PAIR_DEN = 10**6 + 3


# s^2 + 1/4 needs q = 4 though a = 0; (s + 1/3)^2 + 1/2 has d's denominator apart from a's;
# ((s - (1 + 3i)/(10^6+3)) (s - (1 - 3i)/(10^6+3)))^6, a Q(i) pair at multiplicity 6
@pytest.mark.parametrize(
    "p, modes",
    [
        (P(Fraction(1, 4), 0, 1), ("complex", "real")),
        (P(Fraction(11, 18), Fraction(2, 3), 1), ("real",)),
        (poly_pow(P(Fraction(10, PAIR_DEN**2), Fraction(-2, PAIR_DEN), 1), 6), ("complex",)),
    ],
    ids=["quarter", "third_and_half", "gaussian_pair_6"],
)
def test_integer_round_trip_clears_every_denominator(p, modes):
    with deadline(10):
        for mode in modes:
            _assert_round_trip_agrees(factor_charpoly(p, mode))


# (s - 1)^2 (s + 1/2); (s^2 + 2s + 5)(s - 3), roots -1 +- 2i; (s^2 + 2)(s - 1), a real quadratic
CARRIED = {
    "rational": poly_mul(P(1, -2, 1), P(Fraction(1, 2), 1)),
    "gaussian_pair": poly_mul(P(5, 2, 1), P(-3, 1)),
    "real_quadratic": poly_mul(P(2, 0, 1), P(-1, 1)),
}


@pytest.mark.parametrize(
    "name, mode",
    [(name, mode) for name in ("rational", "gaussian_pair") for mode in ("complex", "real", "auto")]
    + [("real_quadratic", "real"), ("real_quadratic", "auto")],  # complex mode refuses s^2 + 2
)
def test_factorization_carries_its_polynomial(name, mode):
    p = CARRIED[name]
    f = factor_charpoly(p, mode)
    assert f.poly == p
    assert all(type(c) is Fraction for c in f.poly.coeffs)
    assert f.view("real").poly == f.poly
    if name != "real_quadratic":
        assert f.view("complex").poly == f.poly


def test_factor_requires_monic():
    with pytest.raises(ValueError):
        factor_charpoly(P(1, 2), "complex")


def test_factor_auto_mode_and_views():
    # (s+2)((s+2)^2 + 9): complex view exists, so auto returns it
    p = P(26, 21, 6, 1)
    f = factor_charpoly(p, "auto")
    assert f == factor_charpoly(p, "complex")
    assert f.view("real") == factor_charpoly(p, "real")
    assert f.view("real").view("complex") == f
    # s^2 + 2 has no Gaussian-rational roots: auto falls back to real
    q = poly_mul(P(2, 0, 1), P(-1, 1))
    assert factor_charpoly(q, "auto") == factor_charpoly(q, "real")


def test_factor_irrational_quadratic_repeated_is_irrational_first():
    # an irrational factor outranks a repeated quadratic in real mode
    p = poly_mul(P(-2, 0, 1), poly_pow(P(1, 0, 1), 2))
    with pytest.raises(IrrationalSpectrum) as err:
        factor_charpoly(p, "real")
    assert err.value.residual == P(-2, 0, 1)


def _charpoly(a: Matrix) -> Poly:
    return faddeev_leverrier(a)[0]


def test_factor_prime_pair_2x2():
    a = Matrix.from_rows([[1000000007, 1], [0, 1000000009]])
    with deadline(5):
        f = factor_charpoly(_charpoly(a), "auto")
    assert f.mode == "complex"
    assert f.linear == ((Fraction(1000000007), 1), (Fraction(1000000009), 1))


def test_factor_random_12x12_irreducible():
    rng = random.Random(12)
    a = Matrix.from_rows([[rng.randint(-20, 20) for _ in range(12)] for _ in range(12)])
    p = _charpoly(a)
    for mode in ("complex", "real", "auto"):
        with deadline(5), pytest.raises(IrrationalSpectrum) as err:
            factor_charpoly(p, mode)
        # the charpoly itself is irreducible over Q, so it is the named factor
        assert err.value.residual == p
        assert str(p) in str(err.value)


def test_factor_three_gaussian_pairs_complex():
    # eigenvalues +-i, 1+-2i, 2+-i: a residual of degree 6 over Q(i)
    a = disguised(block_diagonal([[0, -1], [1, 0]], [[1, -2], [2, 1]], [[2, -1], [1, 2]]), 6)
    with deadline(5):
        f = factor_charpoly(_charpoly(a), "complex")
    assert dict(f.linear) == {
        GaussianRational(re, sign * im): 1 for re, im in ((0, 1), (1, 2), (2, 1)) for sign in (1, -1)
    }


def test_factor_cubed_gaussian_pair_companion():
    # (s^2 + 1)^3 = s^6 + 3s^4 + 3s^2 + 1
    p = _charpoly(Matrix.from_rows(companion(1, 0, 3, 0, 3, 0)))
    assert p == poly_pow(P(1, 0, 1), 3)
    with deadline(5):
        f = factor_charpoly(p, "complex")
        assert dict(f.linear) == {GaussianRational(0, 1): 3, GaussianRational(0, -1): 3}
        with pytest.raises(RepeatedQuadraticFactor):
            factor_charpoly(p, "real")


def test_factor_three_real_quadratics_from_matrix():
    a = disguised(block_diagonal(companion(2, 0), companion(3, 0), companion(5, 0)), 7)
    with deadline(5):
        f = factor_charpoly(_charpoly(a), "real")
        assert f.linear == ()
        assert f.quadratic == tuple((Fraction(0), Fraction(d)) for d in (2, 3, 5))
        with pytest.raises(IrrationalSpectrum):
            factor_charpoly(_charpoly(a), "complex")


def test_factor_names_the_irreducible_cubic():
    # (s^3 - 2)(s^2 + 1): the error names s^3 - 2, not the quintic
    a = disguised(block_diagonal(companion(-2, 0, 0), companion(1, 0)), 8)
    for mode in ("complex", "real", "auto"):
        with deadline(5), pytest.raises(IrrationalSpectrum) as err:
            factor_charpoly(_charpoly(a), mode)
        assert err.value.residual == P(-2, 0, 0, 1)
        assert "s^3 - 2" in str(err.value)


def test_factor_two_irreducible_cubics_names_one():
    # (s^3 - 2)(s^3 - 3) has no factor of degree <= 2; each cubic is irreducible
    p = poly_mul(P(-2, 0, 0, 1), P(-3, 0, 0, 1))
    with pytest.raises(IrrationalSpectrum) as err:
        factor_charpoly(p, "auto")
    assert err.value.residual in (P(-2, 0, 0, 1), P(-3, 0, 0, 1))
