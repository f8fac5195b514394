"""Matrix file parsing, renderer formats, JSON round-trips."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from respfd.errors import EmptyMatrix, MatrixParseError, NonSquareMatrix
from respfd.exponential import cos_basis, decompose, matrix_exponential, sin_basis
from respfd.io import (
    format_basis,
    format_poly,
    format_vector,
    latex_matrix,
    matrix_to_file_text,
    parse_matrix,
    render_exp,
    render_pfd,
    scalar_to_json,
)
from respfd.linalg import Matrix
from respfd.pfd import pfd_residue
from respfd.polynomials import Poly
from respfd.scalars import GaussianRational
from tests.conftest import GOLDEN_3X3_CHAINS, GOLDEN_3X3_SPIRAL, random_jordan_matrix


def test_parse_golden_matrix_file():
    text = "0 1 2\n-2 4 0\n-1 1 2\n"
    assert parse_matrix(text) == GOLDEN_3X3_CHAINS
    assert parse_matrix(text.encode()) == GOLDEN_3X3_CHAINS


def test_parse_single_entry():
    assert parse_matrix("1/2\n") == Matrix.from_rows([[Fraction(1, 2)]])


def test_parse_comments_and_blank_lines():
    text = "# a comment\n\n1 2\n\n# another\n3 4\n"
    assert parse_matrix(text) == Matrix.from_rows([[1, 2], [3, 4]])


def test_parse_ragged_rows_rejected():
    with pytest.raises(NonSquareMatrix) as err:
        parse_matrix("1 2\n3\n")
    assert err.value.line == 2


def test_parse_non_square_rejected():
    with pytest.raises(NonSquareMatrix):
        parse_matrix("1 2 3\n4 5 6\n")


def test_parse_empty_rejected():
    with pytest.raises(EmptyMatrix):
        parse_matrix("# nothing here\n\n")


def test_parse_bad_token_has_position():
    with pytest.raises(MatrixParseError) as err:
        parse_matrix("1 2\n3 4.5\n")
    assert err.value.line == 2
    assert err.value.column == 2
    with pytest.raises(MatrixParseError):
        parse_matrix("1 1/0\n2 3\n")


def test_matrix_file_round_trip(rng):
    for _ in range(10):
        a, _ = random_jordan_matrix(rng)
        assert parse_matrix(matrix_to_file_text(a)) == a


def test_scalar_json_strings():
    assert scalar_to_json(Fraction(-3, 4)) == "-3/4"
    assert scalar_to_json(GaussianRational(2, 3)) == {"re": "2", "im": "3"}
    assert scalar_to_json(GaussianRational(2, 0)) == "2"


def test_latex_matrix_golden():
    b2 = Matrix.from_rows([[-2, 1, 2], [-2, 2, 0], [-1, 1, 0]])
    assert (
        latex_matrix(b2)
        == "\\begin{bmatrix}-2&1&2\\\\-2&2&0\\\\-1&1&0\\end{bmatrix}"
    )


def test_format_poly():
    assert format_poly(Poly((Fraction(-8), Fraction(12), Fraction(-6), Fraction(1)))) == (
        "s^3 - 6s^2 + 12s - 8"
    )
    assert format_poly(Poly((Fraction(9), Fraction(0), Fraction(1)))) == "s^2 + 9"
    assert format_poly(Poly.zero()) == "0"
    assert format_poly(Poly((Fraction(1, 2), Fraction(1)))) == "s + 1/2"


def test_format_sin_basis_with_surd():
    basis = sin_basis(Fraction(0), Fraction(2))
    assert format_basis(basis) == "sin(sqrt(2) t) / sqrt(2)"


def test_latex_surd_radicand_is_a_latex_scalar():
    d = Fraction(3, 4)
    assert format_basis(cos_basis(Fraction(0), d), "latex") == "\\cos(\\sqrt{\\frac{3}{4}} t)"
    assert format_basis(sin_basis(Fraction(1), d), "latex") == (
        "e^{-t}\\frac{\\sin(\\sqrt{\\frac{3}{4}} t)}{\\sqrt{\\frac{3}{4}}}"
    )
    assert format_basis(sin_basis(Fraction(0), d)) == "sin(sqrt(3/4) t) / sqrt(3/4)"


def test_pfd_latex_denominators_name_each_pole():
    half = Fraction(1, 2)
    # 1/2 +- 3/2 i, -1/3 and J2(-1/2): Gaussian, negative and p/q poles
    a = Matrix.from_rows(
        [
            [half, -3 * half, 0, 0, 0],
            [3 * half, half, 0, 0, 0],
            [0, 0, Fraction(-1, 3), 0, 0],
            [0, 0, 0, -half, 1],
            [0, 0, 0, 0, -half],
        ]
    )
    latex = render_pfd(decompose(a, "complex"), "latex")
    assert "\\frac{1}{s + \\frac{1}{3}}" in latex
    assert "\\frac{1}{s + \\frac{1}{2}}" in latex
    assert "\\frac{1}{(s + \\frac{1}{2})^{2}}" in latex
    assert "\\frac{1}{s - (\\frac{1}{2}+\\frac{3}{2}i)}" in latex
    assert "\\frac{1}{s - (\\frac{1}{2}-\\frac{3}{2}i)}" in latex
    assert "s - -" not in latex and "s + -" not in latex
    latex = render_pfd(decompose(a, "real"), "latex")
    assert "\\frac{s - \\frac{1}{2}}{(s - \\frac{1}{2})^2 + \\frac{9}{4}}" in latex
    assert "s + -" not in latex
    # (s + 2)((s + 2)^2 + 9)
    assert "\\frac{s + 2}{(s + 2)^2 + 9}" in render_pfd(decompose(GOLDEN_3X3_SPIRAL, "real"), "latex")


def test_format_vector_and_inline_matrix():
    assert format_vector((Fraction(-3), Fraction(-5), Fraction(6))) == "[-3, -5, 6]"


def test_pfd_json_counts_and_exactness():
    from respfd.linalg import faddeev_leverrier
    from respfd.polynomials import factor_charpoly

    charpoly, adjugate = faddeev_leverrier(GOLDEN_3X3_CHAINS)
    factored = factor_charpoly(charpoly, "complex")
    pfd = pfd_residue(factored, adjugate, GOLDEN_3X3_CHAINS)
    payload = json.loads(render_pfd(pfd, "json"))
    assert payload["mode"] == "complex"
    matrices = [b for term in payload["terms"] for b in term["B"]]
    assert len(matrices) == 3  # sum of multiplicities
    assert matrices[1] == [["-2", "1", "2"], ["-2", "2", "0"], ["-1", "1", "0"]]
    # string-encoded scalars reparse exactly
    assert Fraction(payload["terms"][0]["lambda"]) == 2


def test_pfd_json_real_mode_matrix_count():
    payload = json.loads(render_pfd(decompose(GOLDEN_3X3_SPIRAL, "real"), "json"))
    linear_count = sum(len(term["B"]) for term in payload["terms"])
    quad_count = sum(1 for q in payload["quadratic"] for key in ("P", "Q") if key in q)
    # one linear factor of multiplicity 1 plus one quadratic: 1 + 2 matrices
    assert linear_count == 1
    assert quad_count == 2


def test_exp_json_includes_scale_labels():
    a = Matrix.from_rows([[-1, 2], [-1, -1]])  # frequencies sqrt(2)
    payload = json.loads(render_exp(matrix_exponential(a, "real"), "json"))
    kinds = {term["kind"] for term in payload["terms"]}
    assert kinds == {"cos", "sin"}
    sin_term = next(t for t in payload["terms"] if t["kind"] == "sin")
    assert sin_term["scale"] == "1/sqrt(2)"
    rot = Matrix.from_rows([[5, 17], [-2, -5]])
    payload = json.loads(render_exp(matrix_exponential(rot, "real"), "json"))
    sin_term = next(t for t in payload["terms"] if t["kind"] == "sin")
    assert sin_term["scale"] == "1"
    assert sin_term["C"] == [["5/3", "17/3"], ["-2/3", "-5/3"]]
