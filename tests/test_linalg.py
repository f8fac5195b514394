"""Matrix arithmetic, Bareiss elimination, Faddeev-LeVerrier."""

from __future__ import annotations

from fractions import Fraction

import pytest

from respfd.errors import DimensionMismatch, InconsistentSystem, MatrixTooLarge
from respfd.linalg import (
    Matrix,
    PolyMatrix,
    det,
    faddeev_leverrier,
    inverse,
    mat_vec,
    nullspace,
    rank,
    s_identity_minus,
    solve,
    solve_many,
)
from respfd.polynomials import Poly
from respfd.scalars import GaussianRational
from tests import reference
from tests.conftest import GOLDEN_3X3_CHAINS, random_jordan_matrix
from tests.surds import SqrtExt


def test_matrix_square_identity():
    # B_2 of the triple-eigenvalue example squares to B_3
    b2 = Matrix.from_rows([[-2, 1, 2], [-2, 2, 0], [-1, 1, 0]])
    b3 = Matrix.from_rows([[0, 2, -4], [0, 2, -4], [0, 1, -2]])
    assert b2 @ b2 == b3


def test_matrix_identity_and_additive_inverse():
    x = Matrix.from_rows([[1, 2], [3, 4]])
    eye = Matrix.identity(2)
    assert eye @ x == x
    assert (x + x * Fraction(-1)).is_zero


def test_matrix_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        Matrix.from_rows([[1, 2]]) + Matrix.from_rows([[1], [2]])
    with pytest.raises(DimensionMismatch):
        Matrix.from_rows([[1, 2]]) @ Matrix.from_rows([[1, 2]])


def test_transpose():
    x = Matrix.from_rows([[1, 2, 3], [4, 5, 6]])
    assert x.T == Matrix.from_rows([[1, 4], [2, 5], [3, 6]])
    assert x.T.T == x


def test_det_2x2_by_hand():
    assert det(Matrix.from_rows([[-6, -4], [3, 1]])) == 6


def test_det_rational_entries():
    m = Matrix.from_rows([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 5)]])
    assert det(m) == Fraction(1, 10) - Fraction(1, 12)


def test_det_matches_random_products(rng):
    for _ in range(25):
        a, _ = random_jordan_matrix(rng, rng.randint(2, 4))
        b, _ = random_jordan_matrix(rng, a.nrows)
        assert det(a @ b) == det(a) * det(b)


def test_nullspace_of_shifted_golden_matrix():
    shifted = GOLDEN_3X3_CHAINS - Matrix.identity(3) * Fraction(2)
    basis = nullspace(shifted)
    assert len(basis) == 1  # rank 2 by hand elimination
    assert basis[0] == (Fraction(2), Fraction(2), Fraction(1))


def test_nullspace_normalization_deterministic():
    m = Matrix.from_rows([[2, 4, 6]])
    basis = nullspace(m)
    assert len(basis) == 2
    for v in basis:
        assert all(x.denominator == 1 for x in v)
        lead = next(x for x in v if x)
        assert lead > 0


def test_solve_and_consistency():
    m = Matrix.from_rows([[1, 2], [3, 4]])
    x = solve(m, (Fraction(5), Fraction(11)))
    assert mat_vec(m, x) == (Fraction(5), Fraction(11))
    singular = Matrix.from_rows([[1, 1], [2, 2]])
    with pytest.raises(InconsistentSystem):
        solve(singular, (Fraction(1), Fraction(3)))
    # consistent singular system still solvable
    x = solve(singular, (Fraction(1), Fraction(2)))
    assert mat_vec(singular, x) == (Fraction(1), Fraction(2))


def test_entries_outside_gaussian_rationals_rejected():
    surd = SqrtExt(1, 1, 2)
    with pytest.raises(TypeError):
        Matrix.from_rows([[1, surd]])
    with pytest.raises(TypeError):
        Matrix.identity(2) * surd


def test_solve_rejects_rhs_of_wrong_length():
    m = Matrix.from_rows([[1, 2], [3, 4]])
    for rhs in ([Fraction(1)], [Fraction(1)] * 3):
        with pytest.raises(DimensionMismatch):
            solve(m, rhs)
        with pytest.raises(DimensionMismatch):
            solve_many(m, [[Fraction(1), Fraction(2)], rhs])


def test_rank_gaussian_matrix():
    i = GaussianRational(0, 1)
    m = Matrix.from_rows([[1, i], [i, -1]])  # second row = i * first
    assert rank(m) == 1
    basis = nullspace(m)
    assert len(basis) == 1
    assert mat_vec(m, basis[0]) == (GaussianRational(0, 0), GaussianRational(0, 0))


def test_inverse_round_trip(rng):
    for _ in range(10):
        a, _ = random_jordan_matrix(rng, 3)
        if det(a) == 0:
            continue
        assert a @ inverse(a) == Matrix.identity(3)


def test_faddeev_golden_3x3():
    charpoly, adjugate = faddeev_leverrier(GOLDEN_3X3_CHAINS)
    assert charpoly == Poly((Fraction(-8), Fraction(12), Fraction(-6), Fraction(1)))
    assert reference.entry_poly(adjugate, 0, 0) == Poly((Fraction(8), Fraction(-6), Fraction(1)))
    assert reference.entry_poly(adjugate, 0, 1) == Poly((Fraction(0), Fraction(1)))
    assert reference.entry_poly(adjugate, 0, 2) == Poly((Fraction(-8), Fraction(2)))


def test_faddeev_2x2_rotationlike():
    a = Matrix.from_rows([[5, 17], [-2, -5]])
    charpoly, adjugate = faddeev_leverrier(a)
    assert charpoly == Poly((Fraction(9), Fraction(0), Fraction(1)))
    assert adjugate.coeff(1) == Matrix.identity(2)
    assert adjugate.coeff(0) == Matrix.from_rows([[5, 17], [-2, -5]])


def test_faddeev_zero_matrix():
    charpoly, adjugate = faddeev_leverrier(Matrix.zeros(2, 2))
    assert charpoly == Poly((Fraction(0), Fraction(0), Fraction(1)))
    assert adjugate.coeff(1) == Matrix.identity(2)
    assert adjugate.coeff(0).is_zero


def test_adjugate_identity_random(rng):
    for _ in range(15):
        a, _ = random_jordan_matrix(rng)
        charpoly, adjugate = faddeev_leverrier(a)
        n = a.nrows
        product = s_identity_minus(a) @ adjugate
        expected = PolyMatrix(n, tuple(Matrix.identity(n) * c for c in charpoly.coeffs))
        assert product == expected
        # det(sI-A) at 0 vs independent determinant
        sign = Fraction(1) if n % 2 == 0 else Fraction(-1)
        assert charpoly.eval(Fraction(0)) == sign * det(a)


def test_eigenvalue_nullity_bounds(rng):
    for _ in range(10):
        a, spectrum = random_jordan_matrix(rng)
        for lam, alg, geo in spectrum:
            shifted = a - Matrix.identity(a.nrows) * lam
            nullity = len(nullspace(shifted))
            assert nullity == geo
            assert 1 <= nullity <= alg


def test_size_limit_guard():
    big = Matrix.identity(13)
    with pytest.raises(MatrixTooLarge):
        faddeev_leverrier(big)


def test_polymatrix_eval_and_entry():
    a = GOLDEN_3X3_CHAINS
    _, adjugate = faddeev_leverrier(a)
    at_zero = reference.eval_at(adjugate, Fraction(0))
    assert at_zero == Matrix.from_rows([[8, 0, -8], [4, 2, -4], [2, -1, 2]])
