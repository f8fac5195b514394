"""The integer kernel against the Fraction reference, bit for bit (derandomized).

faddeev_leverrier, pfd_residue, Matrix arithmetic (+, -, scalar *, ==, the
canonical planes behind rows), Matrix / PolyMatrix products, Bareiss
elimination (det, rank, nullspace, solve_many, inverse) and the
undetermined-coefficient solve run on integer planes; tests/reference.py
holds the Fraction versions they replaced.  Planted matrices S J S^{-1}
cover n = 1..12, rational Jordan blocks (halves, eigenvalues near 2^23 so
det(A) reaches about 48 bits), Q(i) pairs in real Jordan form with
multiplicity up to 3, and entry denominators that are halves, 10^6 + 3, or
mixed through a rational diagonal similarity.  Random dense and sparse
matrices cover rectangular shapes, Gaussian x rational operands, zero and
rank-deficient matrices, row swaps and inconsistent systems.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from respfd.errors import EvalAtPole, InconsistentSystem, RepeatedQuadraticFactor
from respfd.linalg import (
    Matrix,
    det,
    faddeev_leverrier,
    inverse,
    mat_vec,
    nullspace,
    rank,
    s_identity_minus,
    solve_many,
)
from respfd.pfd import _basis, _solve_undetermined, pfd_real, pfd_residue, reconstruct_resolvent, sample_points
from respfd.polynomials import factor_charpoly
from respfd.scalars import GaussianRational, scalar_im
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


# Dense matrices up to 12 x 12 overrun Hypothesis' buffer when drawn entry by
# entry, so these draw one seeded Random (derandomized like the rest) and
# build the matrices from it.
def _scalar(rng: random.Random, sparse: bool) -> Fraction:
    """Zero, a half, a multiple of 1/(10^6 + 3) or a small fraction; mostly zero when sparse."""
    pick = 0 if sparse and rng.random() < 0.5 else rng.randrange(4)
    if pick == 1:
        return Fraction(rng.randint(-12, 12), 2)
    if pick == 2:
        return Fraction(rng.randint(-BIG_PRIME, BIG_PRIME), BIG_PRIME)
    if pick == 3:
        return Fraction(rng.randint(-50, 50), rng.randint(1, 9))
    return Fraction(0)


def _entries(rng: random.Random, nrows: int, ncols: int, kind: str | None = None) -> tuple:
    """Row tuples, rational, Gaussian or mixed (each entry a Fraction or a GaussianRational, maybe real)."""
    kind = kind or rng.choice(["rational", "gaussian"])
    sparse = rng.random() < 0.5

    def entry():
        x = _scalar(rng, sparse)
        if kind == "gaussian" or (kind == "mixed" and rng.random() < 0.5):
            return GaussianRational(x, _scalar(rng, sparse))
        return x

    return tuple(tuple(entry() for _ in range(ncols)) for _ in range(nrows))


def _matrix(rng: random.Random, nrows: int, ncols: int, kind: str | None = None) -> Matrix:
    return Matrix(_entries(rng, nrows, ncols, kind))


def _assert_planes(m: Matrix, expected: tuple) -> None:
    """m holds the entries `expected` (reference row tuples) in canonical integer planes."""
    assert (m.nrows, m.ncols) == (len(expected), len(expected[0]))
    assert m.d > 0 and math.gcd(m.d, *m.re, *(m.im or ())) == 1
    real = all(scalar_im(x) == 0 for row in expected for x in row)
    assert (m.im is None) == real
    assert m.rows == expected
    assert all(type(x) is (Fraction if real else GaussianRational) for row in m.rows for x in row)
    assert Matrix(m.rows) == m == Matrix(expected) and hash(Matrix(expected)) == hash(m)
    assert m.is_zero == all(not x for row in expected for x in row)
    assert m.is_rational_matrix() == real


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_plane_arithmetic_matches_entrywise_reference(rng):
    """+, -, negation, scalar * (0, Q, Q(i)), ==, hash, is_zero and rows against Fraction arithmetic on entries."""
    m, n = rng.randint(1, 12), rng.randint(1, 12)
    x_rows, y_rows = (_entries(rng, m, n, rng.choice(["rational", "gaussian", "mixed"])) for _ in range(2))
    x, y = Matrix(x_rows), Matrix(y_rows)
    scalars = [0, _scalar(rng, False), GaussianRational(_scalar(rng, False), Fraction(rng.randint(1, 9), 7))]
    _assert_planes(x, x_rows)
    _assert_planes(x + y, reference.add_rows(x_rows, y_rows))
    _assert_planes(x - y, reference.add_rows(x_rows, reference.scale_rows(y_rows, -1)))
    _assert_planes(x - x, reference.zero_rows(m, n))
    _assert_planes(-x, reference.scale_rows(x_rows, -1))
    for c in scalars:
        _assert_planes(x * c, reference.scale_rows(x_rows, c))
        _assert_planes(c * x, reference.scale_rows(x_rows, c))
    i, j = rng.randrange(m), rng.randrange(n)
    changed = [list(row) for row in x_rows]
    changed[i][j] += GaussianRational(0, Fraction(1, BIG_PRIME)) if rng.random() < 0.5 else Fraction(1, BIG_PRIME)
    assert Matrix(changed) != x
    assert (x == y) == (x_rows == y_rows)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_products_match_fraction_reference(rng):
    """(m x k)(k x n) products: rational, Gaussian, and Gaussian x rational operands."""
    m, k, n = (rng.randint(1, 12) for _ in range(3))
    kinds = rng.choice([("rational", "rational"), ("gaussian", "gaussian"), ("gaussian", "rational"),
                        ("rational", "gaussian")])
    x, y = _matrix(rng, m, k, kinds[0]), _matrix(rng, k, n, kinds[1])
    assert x @ y == reference.matmul(x, y)
    assert mat_vec(x, y.column(0)) == reference.mat_vec(x, y.column(0))


def _square_system(rng: random.Random) -> tuple:
    """(A, rhs columns): A nonsingular, of rank 0 < r < n, or zero, rows permuted; rhs consistent or not."""
    n = rng.randint(1, 12)
    shape = rng.choice(["nonsingular", "deficient", "zero"])
    kind = rng.choice(["rational", "gaussian"])
    if shape == "nonsingular":  # L U: unit lower L, upper U with a nonzero diagonal
        lower, upper = _matrix(rng, n, n, kind).rows, _matrix(rng, n, n).rows
        lower = [[Fraction(int(i == j)) if j >= i else x for j, x in enumerate(row)] for i, row in enumerate(lower)]
        upper = [[x if j > i else 0 for j, x in enumerate(row)] for i, row in enumerate(upper)]
        for i in range(n):
            upper[i][i] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 50), rng.randint(1, 9))
        a = reference.matmul(Matrix.from_rows(lower), Matrix.from_rows(upper))
    elif shape == "deficient" and n > 1:
        r = rng.randint(1, n - 1)
        a = reference.matmul(_matrix(rng, n, r, kind), _matrix(rng, r, n))
    else:
        a = Matrix.zeros(n, n)
    order = list(range(n))
    rng.shuffle(order)
    a = Matrix(tuple(a.rows[i] for i in order))
    count = rng.randint(1, 4)
    rhs = _matrix(rng, n, count)
    if rng.random() < 0.5:
        rhs = reference.matmul(a, rhs)  # consistent
    return a, [list(rhs.column(j)) for j in range(count)]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except InconsistentSystem as exc:
        return type(exc), str(exc)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_elimination_matches_fraction_reference(rng):
    a, rhs = _square_system(rng)
    with deadline(30):
        assert det(a) == reference.det(a)
        assert rank(a) == reference.rank(a)
        assert nullspace(a) == reference.nullspace(a)
        assert _outcome(inverse, a) == _outcome(reference.inverse, a)
        assert _outcome(solve_many, a, rhs) == _outcome(reference.solve_many, a, rhs)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.randoms(use_true_random=False))
def test_rectangular_elimination_matches_fraction_reference(rng):
    a = _matrix(rng, rng.randint(1, 12), rng.randint(1, 12))
    assert rank(a) == reference.rank(a)
    assert nullspace(a) == reference.nullspace(a)
    rhs = [list(a.column(0))]
    assert _outcome(solve_many, a, rhs) == _outcome(reference.solve_many, a, rhs)


def test_det_sign_follows_row_swaps():
    for n in range(1, 8):
        reversal = Matrix(tuple(tuple(Fraction(int(i + j == n - 1)) for j in range(n)) for i in range(n)))
        assert det(reversal) == reference.det(reversal) == (-1) ** (n * (n - 1) // 2)


@settings(derandomize=True, max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(planted(range(1, 13)), st.sampled_from(["complex", "real"]))
def test_undetermined_solve_matches_fraction_reference(a, mode):
    with deadline(30):
        _, adjugate = faddeev_leverrier(a)
        try:
            factored = factor_charpoly(reference.faddeev_leverrier(a)[0], mode)
        except RepeatedQuadraticFactor:  # a repeated Q(i) pair has no real-mode view
            return
        basis = _basis(factored)
        expected = reference.solve_undetermined(factored, adjugate, basis)
        assert _solve_undetermined(factored, adjugate, basis) == expected
        pfd = pfd_residue(factored, adjugate, a) if mode == "complex" else pfd_real(factored, adjugate, a)
        for s0 in sample_points(2, factored.eigenvalues(), a.nrows) + [GaussianRational(Fraction(1, 3), 1)]:
            assert reconstruct_resolvent(pfd, s0) == reference.reconstruct_resolvent(pfd, s0)
        if pfd.linear:
            with pytest.raises(EvalAtPole):
                reconstruct_resolvent(pfd, pfd.linear[0].eigenvalue)
        pencil = s_identity_minus(a)
        assert pencil @ adjugate == reference.polymatrix_matmul(pencil, adjugate)
