"""The integer kernel against the Fraction reference, bit for bit (derandomized).

faddeev_leverrier and pfd_residue run on integer planes; tests/reference.py
holds the Fraction versions they replaced.  Planted matrices S J S^{-1}
cover n = 1..12, rational Jordan blocks (halves, eigenvalues near 2^23 so
det(A) reaches about 48 bits), Q(i) pairs in real Jordan form with
multiplicity up to 3, and entry denominators that are halves, 10^6 + 3, or
mixed through a rational diagonal similarity.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from respfd.linalg import Matrix, faddeev_leverrier
from respfd.pfd import pfd_residue
from respfd.polynomials import factor_charpoly
from respfd.scalars import GaussianRational
from tests import reference
from tests.conftest import block_diagonal, deadline, disguised

BIG_PRIME = 10**6 + 3
halves = st.integers(-12, 12).map(lambda k: Fraction(k, 2))
rational_eigenvalues = st.one_of(
    halves,
    st.integers(-BIG_PRIME, BIG_PRIME).map(lambda k: Fraction(k, BIG_PRIME)),
    st.integers(2**23, 2**24).map(Fraction),
)


def _jordan_block(lam: Fraction, size: int) -> list:
    return [[lam if i == j else 1 if j == i + 1 else 0 for j in range(size)] for i in range(size)]


def _gaussian_block(a: Fraction, b: Fraction, mult: int) -> list:
    """Real Jordan form of a +- bi with multiplicity mult: [[a, -b], [b, a]] blocks coupled by I."""
    size = 2 * mult
    rows = [[0] * size for _ in range(size)]
    for k in range(mult):
        i = 2 * k
        rows[i][i] = rows[i + 1][i + 1] = a
        rows[i][i + 1], rows[i + 1][i] = -b, b
        if k + 1 < mult:
            rows[i][i + 2] = rows[i + 1][i + 3] = 1
    return rows


@st.composite
def planted(draw, sizes: range) -> Matrix:
    n = draw(st.sampled_from(sizes))
    blocks, size, big = [], 0, 0
    while size < n:
        if n - size >= 2 and draw(st.booleans()):
            mult = draw(st.integers(1, min(3, (n - size) // 2)))
            blocks.append(_gaussian_block(draw(halves), draw(halves.filter(bool)), mult))
            size += 2 * mult
            continue
        lam = draw(rational_eigenvalues)
        length = draw(st.integers(1, min(3, n - size)))
        if lam.denominator == 1 and abs(lam) >= 2**23:
            if big == 2:
                lam = Fraction(1, 2)
            big, length = big + 1, 1  # at most two, so det(A) stays near 48 bits
        blocks.append(_jordan_block(lam, length))
        size += length
    a = block_diagonal(*blocks)
    if n > 1:
        a = disguised(a, draw(st.integers(0, 10**6)))
    scaling = draw(st.sampled_from(["none", "halves", "big", "mixed"]))
    if scaling == "halves":
        a = a * Fraction(1, 2)
    elif scaling == "big":
        a = a * Fraction(1, BIG_PRIME)
    elif scaling == "mixed":  # D A D^{-1}: same spectrum, mixed entry denominators
        d = [draw(st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(3, 7), Fraction(BIG_PRIME)])) for _ in range(n)]
        a = Matrix(tuple(tuple(x * d[i] / d[j] for j, x in enumerate(row)) for i, row in enumerate(a.rows)))
    return a


def _check_against_reference(a: Matrix) -> None:
    with deadline(30):
        charpoly, adjugate = faddeev_leverrier(a)
        assert (charpoly, adjugate) == reference.faddeev_leverrier(a)
        factored = factor_charpoly(charpoly, "complex")
        assert pfd_residue(factored, adjugate, a) == reference.pfd_residue(factored, adjugate, a)


# The Fraction reference costs about n^5: many small cases, a few up to the 12 x 12 cap.
@settings(derandomize=True, max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(planted(range(1, 9)))
def test_kernel_matches_fraction_reference(a):
    _check_against_reference(a)


@settings(derandomize=True, max_examples=5, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(planted(range(9, 13)))
def test_kernel_matches_fraction_reference_large(a):
    _check_against_reference(a)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(st.lists(st.lists(st.tuples(halves, halves), min_size=4, max_size=4), min_size=4, max_size=4))
def test_faddeev_leverrier_gaussian_entries_match_reference(entries):
    a = Matrix(tuple(tuple(GaussianRational(re, im) for re, im in row) for row in entries))
    assert faddeev_leverrier(a) == reference.faddeev_leverrier(a)
