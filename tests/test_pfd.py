"""Decomposition golden values, cross-algorithm agreement, identity suite."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from respfd.errors import EvalAtPole
from respfd.exponential import decompose
from respfd.io import render_pfd
from respfd.linalg import Matrix, faddeev_leverrier, inverse
from respfd.pfd import (
    all_passed,
    pfd_real,
    pfd_residue,
    pfd_undetermined,
    reconstruct_resolvent,
    verify_pfd,
    verify_real_pfd,
)
from respfd.polynomials import factor_charpoly
from respfd.scalars import GaussianRational, rational_sqrt
from tests import reference
from tests.conftest import (
    GOLDEN_2X2_DISTINCT,
    GOLDEN_2X2_ROTATION,
    GOLDEN_3X3_CHAINS,
    GOLDEN_3X3_IVP,
    GOLDEN_3X3_SPIRAL,
    NILPOTENT_2X2,
    block_diagonal,
    disguised,
    random_jordan_matrix,
)
from tests.surds import SqrtExt


def _complex_pfd(a, algorithm=pfd_residue):
    charpoly, adjugate = faddeev_leverrier(a)
    factored = factor_charpoly(charpoly, "complex")
    return algorithm(factored, adjugate, a)


def _real_pfd(a):
    charpoly, adjugate = faddeev_leverrier(a)
    factored = factor_charpoly(charpoly, "real")
    return pfd_real(factored, adjugate, a)


def _term_for(pfd, eigenvalue):
    for term in pfd.linear:
        if term.eigenvalue == eigenvalue:
            return term
    raise KeyError(f"no term for eigenvalue {eigenvalue}")


def test_golden_triple_eigenvalue_decomposition():
    pfd = _complex_pfd(GOLDEN_3X3_CHAINS)
    (term,) = pfd.linear
    assert term.eigenvalue == 2
    assert term.multiplicity == 3
    assert term.coefficient(1) == Matrix.identity(3)
    assert term.coefficient(2) == Matrix.from_rows([[-2, 1, 2], [-2, 2, 0], [-1, 1, 0]])
    assert term.coefficient(3) == Matrix.from_rows([[0, 2, -4], [0, 2, -4], [0, 1, -2]])


def test_golden_distinct_real_decomposition():
    pfd = _complex_pfd(GOLDEN_2X2_DISTINCT)
    by_eig = {term.eigenvalue: term for term in pfd.linear}
    assert by_eig[Fraction(2)].coefficient(1) == Matrix.from_rows([[-3, -4], [3, 4]])
    assert by_eig[Fraction(3)].coefficient(1) == Matrix.from_rows([[4, 4], [-3, -3]])


def test_scalar_matrix_single_term():
    a = Matrix.identity(3) * Fraction(5)
    pfd = _complex_pfd(a)
    (term,) = pfd.linear
    assert term.eigenvalue == 5
    assert term.multiplicity == 3
    assert term.coefficient(1) == Matrix.identity(3)
    assert term.coefficient(2).is_zero
    assert term.coefficient(3).is_zero


def test_nilpotent_undetermined():
    pfd = _complex_pfd(NILPOTENT_2X2, pfd_undetermined)
    (term,) = pfd.linear
    assert term.eigenvalue == 0
    assert term.coefficient(1) == Matrix.identity(2)
    assert term.coefficient(2) == NILPOTENT_2X2


def test_cross_algorithm_on_goldens():
    for a in (
        GOLDEN_3X3_CHAINS,
        GOLDEN_2X2_DISTINCT,
        GOLDEN_3X3_IVP,
        GOLDEN_2X2_ROTATION,
        GOLDEN_3X3_SPIRAL,
        NILPOTENT_2X2,
    ):
        assert _complex_pfd(a, pfd_residue) == _complex_pfd(a, pfd_undetermined)


def test_cross_algorithm_random(rng):
    for _ in range(30):
        a, _ = random_jordan_matrix(rng)
        assert _complex_pfd(a, pfd_residue) == _complex_pfd(a, pfd_undetermined)


def test_golden_ivp_matrix_has_zero_second_coefficient():
    pfd = _complex_pfd(GOLDEN_3X3_IVP)
    by_eig = {term.eigenvalue: term for term in pfd.linear}
    assert by_eig[Fraction(1)].coefficient(1) == Matrix.from_rows(
        [[-2, 3, 1], [-3, 4, 1], [3, -3, 0]]
    )
    assert by_eig[Fraction(1)].coefficient(2).is_zero
    assert by_eig[Fraction(-1)].coefficient(1) == Matrix.from_rows(
        [[3, -3, -1], [3, -3, -1], [-3, 3, 1]]
    )


def test_verify_passes_with_zero_coefficient_retained():
    pfd = _complex_pfd(GOLDEN_3X3_IVP)
    assert all_passed(verify_pfd(GOLDEN_3X3_IVP, pfd))


def test_verify_detects_corruption():
    pfd = _complex_pfd(GOLDEN_3X3_CHAINS)
    term = pfd.linear[0]
    from respfd.pfd import EigenvalueTerm, ResolventPFD

    swapped = ResolventPFD(
        pfd.matrix,
        "complex",
        (
            EigenvalueTerm(
                term.eigenvalue,
                term.multiplicity,
                (term.coefficient(1), term.coefficient(3), term.coefficient(2)),
            ),
        ),
    )
    report = verify_pfd(GOLDEN_3X3_CHAINS, swapped)
    assert not all_passed(report)
    failing = {r.name for r in report if not r.passed}
    assert any(name.startswith("recurrence") for name in failing)


def test_real_mode_rotation():
    pfd = _real_pfd(GOLDEN_2X2_ROTATION)
    assert pfd.linear == ()
    (quad,) = pfd.quadratic
    assert (quad.a, quad.d) == (Fraction(0), Fraction(9))
    assert quad.p_matrix == Matrix.identity(2)
    assert quad.q_matrix == GOLDEN_2X2_ROTATION


def test_real_mode_spiral_golden():
    pfd = _real_pfd(GOLDEN_3X3_SPIRAL)
    (term,) = pfd.linear
    assert term.eigenvalue == -2
    assert term.coefficient(1) == Matrix.from_rows([[2, 1, 0], [-2, -1, 0], [2, 1, 0]])
    (quad,) = pfd.quadratic
    assert (quad.a, quad.d) == (Fraction(2), Fraction(9))
    assert quad.p_matrix == Matrix.from_rows([[-1, -1, 0], [2, 2, 0], [-2, -1, 1]])
    assert quad.q_matrix == Matrix.from_rows([[1, 3, 2], [-2, -6, -4], [3, 8, 5]]) * Fraction(3)


def test_real_mode_plain_rotation():
    a = Matrix.from_rows([[0, -1], [1, 0]])
    pfd = _real_pfd(a)
    (quad,) = pfd.quadratic
    assert (quad.a, quad.d) == (Fraction(0), Fraction(1))
    assert quad.p_matrix == Matrix.identity(2)
    assert quad.q_matrix == a


def test_real_mode_verify_identities():
    for a in (GOLDEN_2X2_ROTATION, GOLDEN_3X3_SPIRAL):
        pfd = _real_pfd(a)
        assert all_passed(verify_real_pfd(a, pfd))


def test_real_mode_linear_part_matches_complex(rng):
    for _ in range(10):
        a, _ = random_jordan_matrix(rng)
        complex_pfd = _complex_pfd(a)
        real_pfd = _real_pfd(a)
        assert real_pfd.quadratic == ()
        assert complex_pfd.linear == real_pfd.linear


@pytest.mark.parametrize(
    "algorithm, mode, message",
    [
        (pfd_residue, "real", "pfd_residue requires a complex-mode factorization"),
        (pfd_undetermined, "real", "pfd_undetermined requires a complex-mode factorization"),
        (pfd_real, "complex", "pfd_real requires a real-mode factorization"),
    ],
)
def test_algorithms_refuse_the_other_mode(algorithm, mode, message):
    charpoly, adjugate = faddeev_leverrier(GOLDEN_2X2_DISTINCT)
    factored = factor_charpoly(charpoly, mode)  # eigenvalues 2 and 3 factor in both modes
    with pytest.raises(ValueError, match=f"^{message}$"):
        algorithm(factored, adjugate, GOLDEN_2X2_DISTINCT)


SURD_2X2 = Matrix.from_rows([[0, -2], [1, 0]])  # s^2 + 2: no Gaussian-rational roots


@pytest.mark.parametrize(
    "a, mode, expected, quadratics",
    [
        (GOLDEN_2X2_DISTINCT, "complex", "complex", 0),
        (GOLDEN_2X2_DISTINCT, "real", "real", 0),
        (GOLDEN_2X2_DISTINCT, "auto", "complex", 0),
        (GOLDEN_2X2_ROTATION, "complex", "complex", 0),
        (GOLDEN_2X2_ROTATION, "real", "real", 1),
        (GOLDEN_2X2_ROTATION, "auto", "complex", 0),
        (SURD_2X2, "real", "real", 1),
        (SURD_2X2, "auto", "real", 1),
    ],
)
def test_decompose_keeps_the_factorization_mode(a, mode, expected, quadratics):
    charpoly, _ = faddeev_leverrier(a)
    pfd = decompose(a, mode)
    assert pfd.mode == factor_charpoly(charpoly, mode).mode == expected
    assert len(pfd.quadratic) == quadratics
    # a rational-only spectrum gives equal B_ij in both modes, so JSON reads the stored mode
    assert json.loads(render_pfd(pfd, "json"))["mode"] == expected


MIXED_BLOCKS = ([[1, -2], [2, 1]], [[3, 1], [0, 3]], [[0, -1], [1, 0]], [[-1]])


@pytest.mark.parametrize(
    "a",
    [GOLDEN_3X3_SPIRAL, GOLDEN_2X2_ROTATION]
    + [disguised(block_diagonal(*MIXED_BLOCKS), seed) for seed in (1, 2, 3)],
)
def test_real_mode_pairs_match_residue_terms(a):
    # For a quadratic (s+a)^2 + d with beta = sqrt(d) rational and roots
    # lambda = -a +- i beta, the complex terms B+/(s-lambda+) + B-/(s-lambda-)
    # regroup as ((s+a) P + Q)/((s+a)^2 + d) with P = B+ + B-, Q = i beta (B+ - B-).
    charpoly, adjugate = faddeev_leverrier(a)
    factored = factor_charpoly(charpoly, "complex")
    residue = pfd_residue(factored, adjugate, a)
    real = pfd_real(factored.view("real"), adjugate, a)
    for term in real.linear:
        assert term.coefficients == _term_for(residue, term.eigenvalue).coefficients
    assert real.quadratic
    for quad in real.quadratic:
        beta = rational_sqrt(quad.d)
        assert beta is not None
        plus = _term_for(residue, GaussianRational(-quad.a, beta)).coefficient(1)
        minus = _term_for(residue, GaussianRational(-quad.a, -beta)).coefficient(1)
        assert quad.p_matrix == plus + minus
        assert quad.q_matrix == (plus - minus) * GaussianRational(0, beta)


def test_reconstruction_golden_at_zero():
    pfd = _complex_pfd(GOLDEN_3X3_CHAINS)
    expected = inverse(Matrix.zeros(3, 3) - GOLDEN_3X3_CHAINS)
    assert reconstruct_resolvent(pfd, Fraction(0)) == expected


def test_reconstruction_distinct_real_at_zero():
    # independent oracle: invert (0 I - A) by elimination
    pfd = _complex_pfd(GOLDEN_2X2_DISTINCT)
    expected = inverse(Matrix.from_rows([[-6, -4], [3, 1]]))
    value = reconstruct_resolvent(pfd, Fraction(0))
    assert value == expected
    assert value == Matrix.from_rows(
        [[Fraction(1, 6), Fraction(2, 3)], [Fraction(-1, 2), Fraction(-1)]]
    )


def test_reconstruction_scalar_matrix():
    a = Matrix.identity(2) * Fraction(7)
    pfd = _complex_pfd(a)
    assert reconstruct_resolvent(pfd, Fraction(8)) == Matrix.identity(2)


def test_reconstruction_at_pole_rejected():
    pfd = _complex_pfd(GOLDEN_3X3_CHAINS)
    with pytest.raises(EvalAtPole):
        reconstruct_resolvent(pfd, Fraction(2))


def test_reconstruction_random_points(rng):
    for _ in range(10):
        a, _ = random_jordan_matrix(rng)
        n = a.nrows
        pfd = _complex_pfd(a)
        eigenvalues = {term.eigenvalue for term in pfd.linear}
        s0 = Fraction(n + 1)
        checked = 0
        while checked < 3:
            if s0 in eigenvalues:
                s0 += 1
                continue
            lhs = reconstruct_resolvent(pfd, s0) @ (Matrix.identity(n) * s0 - a)
            assert lhs == Matrix.identity(n)
            checked += 1
            s0 += 1


def test_reconstruction_complex_point():
    pfd = _complex_pfd(GOLDEN_2X2_ROTATION)
    s0 = GaussianRational(1, 1)
    lhs = reconstruct_resolvent(pfd, s0) @ (Matrix.identity(2) * s0 - GOLDEN_2X2_ROTATION)
    assert lhs == Matrix.identity(2)


def test_reconstruction_real_pfd_at_surd_point():
    # a Matrix holds only Q(i) entries, so this evaluation runs on row tuples
    pfd = _real_pfd(GOLDEN_2X2_ROTATION)
    s0 = SqrtExt(1, 1, 2)  # 1 + sqrt(2)
    shifted = reference.add_rows(
        reference.scale_rows(Matrix.identity(2).rows, s0), reference.scale_rows(GOLDEN_2X2_ROTATION.rows, -1)
    )
    lhs = reference.matmul_rows(reference.resolvent_rows(pfd, s0), shifted)
    assert lhs == Matrix.identity(2).rows


def test_projector_family_random(rng):
    for _ in range(10):
        a, spectrum = random_jordan_matrix(rng)
        pfd = _complex_pfd(a)
        report = verify_pfd(a, pfd)
        assert all_passed(report), [r.name for r in report if not r.passed]
        assert [term.multiplicity for term in pfd.linear] == [alg for _, alg, _ in spectrum]
