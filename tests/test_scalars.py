"""Exact scalar arithmetic: field laws, conjugation, parsing round-trips."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from respfd.scalars import (
    GaussianRational,
    format_scalar,
    parse_rational,
    parse_scalar,
    rational_sqrt,
    scalar_im,
    spell_integral,
)
from tests import reference
from tests.surds import SqrtExt


def test_rational_arithmetic_textbook():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)


def test_gaussian_i_squared():
    i = GaussianRational(0, 1)
    assert i * i == Fraction(-1)


def test_gaussian_keeps_fraction_parts_and_converts_ints():
    f, g = Fraction(3, 7), Fraction(-5, 2)
    z = GaussianRational(f, g)
    assert z.re is f and z.im is g
    w = GaussianRational(2, True)
    assert (type(w.re), type(w.im)) == (Fraction, Fraction)
    assert (w.re, w.im) == (Fraction(2), Fraction(1))
    assert scalar_im(Fraction(1, 2)) == 0 and type(scalar_im(7)) is Fraction


def test_sqrt_ext_difference_of_squares():
    x = SqrtExt(1, 1, 2)
    y = SqrtExt(1, -1, 2)
    assert x * y == SqrtExt(-1, 0, 2)
    assert x * y == Fraction(-1)


def test_rational_normalization_is_canonical():
    assert Fraction(4, -6) == Fraction(-2, 3)
    assert str(Fraction(4, -6)) == "-2/3"
    assert str(Fraction(0, 5)) == "0"
    assert str(Fraction(17, 3)) == "17/3"
    with pytest.raises(ZeroDivisionError):
        Fraction(1, 0)


def _random_fraction(rng):
    return Fraction(rng.randint(-40, 40), rng.randint(1, 23))


def _random_gaussian(rng):
    return GaussianRational(_random_fraction(rng), _random_fraction(rng))


def test_rational_field_laws():
    rng = random.Random(101)
    for _ in range(200):
        x, y, z = (_random_fraction(rng) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z
        if x:
            assert x * (Fraction(1) / x) == 1


def test_gaussian_field_laws_and_norm():
    rng = random.Random(202)
    for _ in range(200):
        x, y, z = (_random_gaussian(rng) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z
        assert (x * y).norm() == x.norm() * y.norm()
        if x:
            assert x * x.inverse() == 1
        assert x.conjugate().conjugate() == x


def test_gaussian_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GaussianRational(1, 1) / GaussianRational(0, 0)


def test_gaussian_mixed_arithmetic_with_fraction():
    x = GaussianRational(1, 2)
    assert Fraction(1, 2) + x == GaussianRational(Fraction(3, 2), 2)
    assert Fraction(2) * x == GaussianRational(2, 4)
    assert 1 / GaussianRational(0, 1) == GaussianRational(0, -1)


def test_gaussian_hash_matches_rational_when_real():
    assert hash(GaussianRational(Fraction(2), 0)) == hash(Fraction(2))
    assert GaussianRational(Fraction(2), 0) == Fraction(2)


def test_sqrt_ext_conjugate_identities():
    rng = random.Random(303)
    for _ in range(100):
        a, b = _random_fraction(rng), _random_fraction(rng)
        x = SqrtExt(a, b, 2)
        assert x + x.conjugate() == 2 * a
        product = x * x.conjugate()
        assert product == a * a - b * b * 2
        if x:
            assert x * (1 / x) == SqrtExt(1, 0, 2)


def test_sqrt_ext_rejects_square_radicand():
    with pytest.raises(ValueError):
        SqrtExt(1, 1, 9)
    with pytest.raises(ValueError):
        SqrtExt(1, 1, Fraction(1, 4))


def test_sqrt_ext_mixing_extensions_rejected():
    with pytest.raises(ValueError):
        SqrtExt(1, 1, 2) + SqrtExt(1, 1, 3)


def test_rational_sqrt():
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(0)) == 0
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(-4)) is None


@pytest.mark.parametrize(
    "text",
    ["0", "-12", "3/4", "-3/4", "17/3", "i", "-i", "3i", "-2+3i", "1/2-2/3i", "5+i"],
)
def test_parse_format_round_trip(text):
    value = parse_scalar(text)
    assert parse_scalar(format_scalar(value)) == value


def test_parse_rational_rejects_decimals_and_junk():
    for bad in ["1.5", "1e3", "one", "3/", "/4", "--2", ""]:
        with pytest.raises(ValueError):
            parse_rational(bad)
    with pytest.raises((ValueError, ZeroDivisionError)):
        parse_rational("3/0")


def test_parse_gaussian_forms():
    assert parse_scalar("2+3i") == GaussianRational(2, 3)
    assert parse_scalar("-2-i") == GaussianRational(-2, -1)
    assert parse_scalar("3i") == GaussianRational(0, 3)
    assert parse_scalar("1/2+1/3i") == GaussianRational(Fraction(1, 2), Fraction(1, 3))


def test_parse_scalar_unit_imaginary_parts_and_messages():
    units = {"i": (0, 1), "+i": (0, 1), "-i": (0, -1), "I": (0, 1), "2-i": (2, -1), "-1/2+i": (Fraction(-1, 2), 1)}
    for text, (re, im) in units.items():
        assert parse_scalar(text) == GaussianRational(re, im)
    assert parse_scalar("-3/4i") == GaussianRational(0, Fraction(-3, 4))
    assert parse_scalar("-0/5") == 0 and type(parse_scalar("007")) is Fraction
    with pytest.raises(ZeroDivisionError, match=r"^Fraction\(1, 0\)$"):
        parse_scalar("2+1/0i")
    with pytest.raises(ZeroDivisionError, match=r"^Fraction\(-3, 0\)$"):
        parse_rational("-3/0")
    with pytest.raises(ValueError, match=r"^not a rational token: '1\.5'$"):
        parse_rational(" 1.5 ")


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data())
def test_spell_integral_matches_the_per_entry_speller(data):
    d = data.draw(st.one_of(st.sampled_from([1, 2, 6, 12, 2**45 + 3]), st.integers(1, 10**6)))
    size = data.draw(st.integers(0, 12))
    part = st.one_of(st.just(0), st.sampled_from([d, -d]), st.integers(-3 * d, 3 * d), st.integers(-(2**60), 2**60))
    re = data.draw(st.lists(part, min_size=size, max_size=size))
    im = data.draw(st.one_of(st.none(), st.lists(part, min_size=size, max_size=size)))
    for fmt in ("text", "latex", "json"):
        assert spell_integral(re, im, d, fmt) == reference.spell_integral(re, im, d, fmt)
