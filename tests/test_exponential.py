"""Closed-form exponentials: golden forms, derivative identity, oracle."""

from __future__ import annotations

import math
from fractions import Fraction

from respfd.exponential import (
    cos_basis,
    exp_basis,
    exp_derivative,
    exp_eval,
    general_solution,
    matrix_exponential,
    numeric_oracle_exp,
    premultiply,
    relative_error,
    sin_basis,
    solve_ivp,
)
from respfd.linalg import Matrix
from tests.conftest import (
    GOLDEN_2X2_DISTINCT,
    GOLDEN_2X2_ROTATION,
    GOLDEN_3X3_CHAINS,
    GOLDEN_3X3_IVP,
    GOLDEN_3X3_SPIRAL,
    GOLDEN_MATRICES,
    NILPOTENT_2X2,
    random_jordan_matrix,
)
from tests.surds import SqrtExt, coefficient_of, sin_coefficient_materialized


def test_distinct_real_closed_form():
    cf = matrix_exponential(GOLDEN_2X2_DISTINCT, "real")
    assert dict(cf.terms) == {
        exp_basis(Fraction(2), 0): Matrix.from_rows([[-3, -4], [3, 4]]),
        exp_basis(Fraction(3), 0): Matrix.from_rows([[4, 4], [-3, -3]]),
    }


def test_rotation_closed_form():
    cf = matrix_exponential(GOLDEN_2X2_ROTATION, "real")
    assert dict(cf.terms) == {
        cos_basis(Fraction(0), Fraction(9)): Matrix.identity(2),
        sin_basis(Fraction(0), Fraction(9)): GOLDEN_2X2_ROTATION * Fraction(1, 3),
    }
    sin = sin_basis(Fraction(0), Fraction(9))
    assert not sin.inv_scale  # sqrt(9) is rational, scale folded into C


def test_spiral_closed_form_golden():
    cf = matrix_exponential(GOLDEN_3X3_SPIRAL, "real")
    expected = {
        exp_basis(Fraction(-2), 0): Matrix.from_rows([[2, 1, 0], [-2, -1, 0], [2, 1, 0]]),
        cos_basis(Fraction(2), Fraction(9)): Matrix.from_rows(
            [[-1, -1, 0], [2, 2, 0], [-2, -1, 1]]
        ),
        sin_basis(Fraction(2), Fraction(9)): Matrix.from_rows(
            [[1, 3, 2], [-2, -6, -4], [3, 8, 5]]
        ),
    }
    assert dict(cf.terms) == expected


def test_nilpotent_closed_form():
    cf = matrix_exponential(NILPOTENT_2X2)
    assert dict(cf.terms) == {
        exp_basis(Fraction(0), 0): Matrix.identity(2),
        exp_basis(Fraction(0), 1): NILPOTENT_2X2,
    }


def test_triple_eigenvalue_closed_form_factorial_fold():
    cf = matrix_exponential(GOLDEN_3X3_CHAINS, "complex")
    b2 = Matrix.from_rows([[-2, 1, 2], [-2, 2, 0], [-1, 1, 0]])
    b3 = Matrix.from_rows([[0, 2, -4], [0, 2, -4], [0, 1, -2]])
    assert dict(cf.terms) == {
        exp_basis(Fraction(2), 0): Matrix.identity(3),
        exp_basis(Fraction(2), 1): b2,
        exp_basis(Fraction(2), 2): b3 * Fraction(1, 2),  # t^2/2! coefficient
    }


def test_zero_coefficient_terms_dropped():
    cf = matrix_exponential(GOLDEN_3X3_IVP, "real")
    bases = [basis for basis, _ in cf.terms]
    assert exp_basis(Fraction(1), 1) not in bases  # the zero t e^t term vanishes
    assert len(cf.terms) == 2


def test_value_at_zero_is_identity():
    for a in GOLDEN_MATRICES + [NILPOTENT_2X2]:
        for mode in ("complex", "real"):
            cf = matrix_exponential(a, mode)
            assert cf.value_at_zero() == Matrix.identity(a.nrows)


def test_derivative_nilpotent():
    cf = matrix_exponential(NILPOTENT_2X2)
    derived = exp_derivative(cf)
    assert dict(derived.terms) == {exp_basis(Fraction(0), 0): NILPOTENT_2X2}


def test_derivative_scalar_exponential():
    a = Matrix.identity(2) * Fraction(2)
    cf = matrix_exponential(a)
    derived = exp_derivative(cf)
    assert dict(derived.terms) == {exp_basis(Fraction(2), 0): a}


def test_derivative_rotation_by_hand():
    # A^2 = -9I for this matrix, so the sine/cosine pair closes exactly
    a = GOLDEN_2X2_ROTATION
    assert a @ a == Matrix.identity(2) * Fraction(-9)
    cf = matrix_exponential(a, "real")
    derived = exp_derivative(cf)
    assert dict(derived.terms) == {
        cos_basis(Fraction(0), Fraction(9)): a,
        sin_basis(Fraction(0), Fraction(9)): Matrix.identity(2) * Fraction(-3),
    }
    assert derived == premultiply(cf, a)


def test_derivative_identity_golden():
    for a in GOLDEN_MATRICES + [NILPOTENT_2X2]:
        for mode in ("complex", "real"):
            cf = matrix_exponential(a, mode)
            assert exp_derivative(cf) == premultiply(cf, a)


def test_derivative_identity_random(rng):
    for _ in range(15):
        a, _ = random_jordan_matrix(rng)
        cf = matrix_exponential(a, "complex")
        assert exp_derivative(cf) == premultiply(cf, a)


def test_exp_eval_at_zero_and_nilpotent_time_two():
    cf = matrix_exponential(NILPOTENT_2X2)
    assert exp_eval(cf, 0.0) == [[1.0, 0.0], [0.0, 1.0]]
    assert exp_eval(cf, 2.0) == [[1.0, 2.0], [0.0, 1.0]]


def test_oracle_identity_and_diagonal():
    assert numeric_oracle_exp(Matrix.zeros(2, 2), 0.0) == [[1.0, 0.0], [0.0, 1.0]]
    diag = Matrix.from_rows([[2, 0], [0, 3]])
    value = numeric_oracle_exp(diag, 1.0)
    assert abs(value[0][0] - math.exp(2)) < 1e-12 * math.exp(2)
    assert abs(value[1][1] - math.exp(3)) < 1e-12 * math.exp(3)
    assert value[0][1] == value[1][0] == 0.0


def test_oracle_agreement_golden():
    for a in GOLDEN_MATRICES:
        for mode in ("complex", "real"):
            cf = matrix_exponential(a, mode)
            for t in (0.1, 0.5, 1.0):
                err = relative_error(exp_eval(cf, t), numeric_oracle_exp(a, t))
                assert err <= 1e-9, (a, mode, t, err)


def test_semigroup_property_numeric():
    for a in GOLDEN_MATRICES:
        cf = matrix_exponential(a)
        for t1, t2 in ((0.1, 0.2), (0.5, 0.5)):
            left = exp_eval(cf, t1 + t2)
            prod = _mat_mul_float(exp_eval(cf, t1), exp_eval(cf, t2))
            assert relative_error(prod, left) <= 1e-8


def _mat_mul_float(x, y):
    cols = list(zip(*y))
    return [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in x]


def test_real_and_complex_modes_agree_numerically():
    for a in (GOLDEN_2X2_ROTATION, GOLDEN_3X3_SPIRAL):
        cf_real = matrix_exponential(a, "real")
        cf_complex = matrix_exponential(a, "complex")
        for t in (0.1, 0.5, 1.0):
            err = relative_error(exp_eval(cf_complex, t), exp_eval(cf_real, t))
            assert err <= 1e-12


def test_irrational_frequency_kept_symbolic():
    # charpoly (s+1)^2 + 2: irrational sqrt(2) frequency, rational matrices
    a = Matrix.from_rows([[-1, 2], [-1, -1]])
    cf = matrix_exponential(a)  # auto falls back to real mode
    sin = sin_basis(Fraction(1), Fraction(2))
    assert sin.inv_scale
    coeff = coefficient_of(cf, sin)
    assert coeff == Matrix.from_rows([[0, 2], [-1, 0]])
    materialized = sin_coefficient_materialized(cf, sin)
    assert materialized[0][1] == SqrtExt(0, Fraction(1), 2)  # 2/sqrt(2) = sqrt(2)
    err = relative_error(exp_eval(cf, 0.5), numeric_oracle_exp(a, 0.5))
    assert err <= 1e-9


def test_solve_ivp_golden():
    sol = solve_ivp(GOLDEN_3X3_IVP, (1, -1, 2), "real")
    assert dict(sol.components) == {
        exp_basis(Fraction(1), 0): (Fraction(-3), Fraction(-5), Fraction(6)),
        exp_basis(Fraction(-1), 0): (Fraction(4), Fraction(4), Fraction(-4)),
    }
    assert sol.value_at_zero() == (1, -1, 2)


def test_solve_ivp_zero_initial_vector():
    sol = solve_ivp(GOLDEN_3X3_IVP, (0, 0, 0))
    assert sol.components == ()
    assert sol.value_at_zero() == (0, 0, 0)


def test_solve_ivp_scalar_matrix():
    a = Matrix.identity(2) * Fraction(2)
    sol = solve_ivp(a, (1, 1))
    assert dict(sol.components) == {exp_basis(Fraction(2), 0): (Fraction(1), Fraction(1))}


def test_solve_ivp_matches_oracle_numerically():
    sol = solve_ivp(GOLDEN_3X3_IVP, (1, -1, 2), "real")
    for t in (0.25, 1.0):
        oracle = numeric_oracle_exp(GOLDEN_3X3_IVP, t)
        expected = [sum(row[j] * [1.0, -1.0, 2.0][j] for j in range(3)) for row in oracle]
        got = sol.eval_at(t)
        assert max(abs(p - q) for p, q in zip(got, expected)) <= 1e-9 * max(
            1.0, max(abs(v) for v in expected)
        )


def test_general_solution_spiral_golden():
    gen = general_solution(GOLDEN_3X3_SPIRAL, "real")
    first = dict(gen.fundamental[0])
    assert first == {
        exp_basis(Fraction(-2), 0): (Fraction(2), Fraction(-2), Fraction(2)),
        cos_basis(Fraction(2), Fraction(9)): (Fraction(-1), Fraction(2), Fraction(-2)),
        sin_basis(Fraction(2), Fraction(9)): (Fraction(1), Fraction(-2), Fraction(3)),
    }
    # at t = 0 each fundamental solution starts at the corresponding unit vector
    for c, components in enumerate(gen.fundamental):
        start = [Fraction(0)] * 3
        for basis, vec in components:
            if basis.value_at_zero_is_one():
                start = [p + q for p, q in zip(start, vec)]
        assert start == [Fraction(1) if i == c else Fraction(0) for i in range(3)]


def test_general_solution_nilpotent_columns():
    gen = general_solution(NILPOTENT_2X2)
    assert dict(gen.fundamental[0]) == {
        exp_basis(Fraction(0), 0): (Fraction(1), Fraction(0))
    }
    assert dict(gen.fundamental[1]) == {
        exp_basis(Fraction(0), 0): (Fraction(0), Fraction(1)),
        exp_basis(Fraction(0), 1): (Fraction(1), Fraction(0)),
    }


def test_general_solution_scalar_matrix():
    a = Matrix.identity(2) * Fraction(3)
    gen = general_solution(a)
    assert dict(gen.fundamental[0]) == {exp_basis(Fraction(3), 0): (Fraction(1), Fraction(0))}
    assert dict(gen.fundamental[1]) == {exp_basis(Fraction(3), 0): (Fraction(0), Fraction(1))}


def test_oracle_agreement_random(rng):
    for _ in range(8):
        a, _ = random_jordan_matrix(rng)
        cf = matrix_exponential(a, "complex")
        for t in (0.1, 1.0):
            err = relative_error(exp_eval(cf, t), numeric_oracle_exp(a, t))
            assert err <= 1e-9
