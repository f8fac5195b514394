"""Matrix file parsing, renderer formats, JSON round-trips."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from respfd.errors import EmptyMatrix, MatrixParseError, NonSquareMatrix
from respfd.exponential import cos_basis, decompose, matrix_exponential, sin_basis
from respfd.io import (
    _finish_json,
    format_basis,
    format_matrix_block,
    format_poly,
    format_vector,
    latex_matrix,
    matrix_to_file_text,
    matrix_to_json,
    parse_matrix,
    render_exp,
    render_pfd,
    scalar_to_json,
)
from respfd.linalg import Matrix, from_integral
from respfd.pfd import pfd_residue
from respfd.polynomials import Poly
from respfd.scalars import GaussianRational, format_scalar, latex_scalar
from tests import reference
from tests.conftest import GOLDEN_3X3_CHAINS, GOLDEN_3X3_SPIRAL, deadline, random_jordan_matrix


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


def _fraction_parse(text: str) -> Matrix:
    """The Matrix of a well-formed matrix file, one Fraction(token) per entry."""
    lines = [line.split() for line in text.splitlines() if line.strip() and not line.strip().startswith("#")]
    return Matrix.from_rows([[Fraction(token) for token in line] for line in lines])


_BIG = 10**40


@pytest.mark.parametrize(
    "text",
    [
        "+3 -0/5\n007 0/7\n",
        "-12/8\n",
        "-12/8 +3\n007 -0/5\n",
        "\u0663 1/\u0662\n\u0660 -\u0661\u0662/\u0664\n",  # Arabic-Indic digits: 3 1/2 / 0 -12/4
        f"{_BIG + 7}/3 -{_BIG - 1}\n{3 * _BIG}/{6 * _BIG} {_BIG}/{_BIG + 1}\n",
        f"1/{_BIG} 2/{_BIG}\n3/{2 * _BIG} 0\n",  # a common denominator near 10^40
    ],
)
def test_parse_gives_the_matrix_of_the_fraction_tokens(text):
    parsed, expected = parse_matrix(text), _fraction_parse(text)
    assert parsed == expected
    assert (parsed.re, parsed.im, parsed.d) == (expected.re, expected.im, expected.d)
    assert parsed.rows == expected.rows


@pytest.mark.parametrize("token", ["1/0", "3/-4", "1.5", "1e3", "\u00bd", "1//2", "-0/0", "--1", "1/", "/2", "0x1"])
def test_parse_rejects_a_token_outside_the_grammar_with_its_position(token):
    with pytest.raises(MatrixParseError) as err:
        parse_matrix(f"# header\n1 2\n\n3 {token}\n")
    assert (err.value.line, err.value.column) == (4, 2)
    assert str(err.value) == f"line 4, column 2: invalid rational token {token!r}"


def test_parse_reports_the_first_bad_token_before_the_shape():
    with pytest.raises(MatrixParseError) as err:
        parse_matrix("1 2 3\nx 1/0\n")
    assert str(err.value) == "line 2, column 1: invalid rational token 'x'"


def test_parse_shape_errors_keep_their_messages():
    with pytest.raises(NonSquareMatrix) as err:
        parse_matrix("1 2\n\n3\n")
    assert (str(err.value), err.value.line) == ("line 3: row has 1 entries, expected 2", 3)
    with pytest.raises(NonSquareMatrix) as err:
        parse_matrix("1 2 3\n4 5 6\n")
    assert (str(err.value), err.value.line) == ("matrix is 2x3, not square", None)
    for text in ("", "\n  \n", "# only a comment\n", b"# bytes\n"):
        with pytest.raises(EmptyMatrix) as err:
            parse_matrix(text)
        assert str(err.value) == "matrix file contains no rows"


def _random_planes(rng: random.Random, gaussian: bool) -> Matrix:
    """A random matrix of rational or Gaussian entries: 0, +-1, +-i, small p/q and 40+ bit values."""
    nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
    d = rng.choice([1, 2, 6, 12, 2**45 + 3, 3 * 7 * 11 * 13])

    def part():
        kind = rng.randrange(5)
        if kind == 0:
            return 0
        if kind == 1:
            return rng.choice([d, -d])  # +-1
        if kind == 2:
            return rng.choice([1, 2, 3, 6, 7]) * rng.randint(-d, d)  # shares a factor of d, or not
        return rng.randint(-(2**50), 2**50)

    size = nrows * ncols
    re = [part() for _ in range(size)]
    im = [part() if rng.random() < 0.7 else 0 for _ in range(size)] if gaussian else None
    return from_integral(re, im, d, nrows, ncols)


@pytest.mark.parametrize("seed", range(40))
def test_matrix_spelling_from_planes_matches_the_fraction_speller(seed):
    rng = random.Random(seed)
    m = _random_planes(rng, gaussian=seed % 2 == 1)
    rows = m.rows
    text = [[reference.spell_scalar(x, "text") for x in row] for row in rows]
    latex = [[reference.spell_scalar(x, "latex") for x in row] for row in rows]
    assert [[format_scalar(x) for x in row] for row in rows] == text
    assert [[latex_scalar(x) for x in row] for row in rows] == latex
    assert [[scalar_to_json(x) for x in row] for row in rows] == [[reference.spell_scalar(x, "json") for x in row] for row in rows]
    assert matrix_to_json(m) == [[reference.spell_scalar(x, "json") for x in row] for row in rows]
    assert matrix_to_file_text(m) == "".join(" ".join(row) + "\n" for row in text)
    assert latex_matrix(m) == "\\begin{bmatrix}" + "\\\\".join("&".join(row) for row in latex) + "\\end{bmatrix}"
    widths = [max(len(row[j]) for row in text) for j in range(m.ncols)]
    block = ["    [ " + "  ".join(cell.rjust(w) for cell, w in zip(row, widths)) + " ]" for row in text]
    assert format_matrix_block(m) == "\n".join(block)
    if m.im is None and m.is_square:
        assert parse_matrix(matrix_to_file_text(m)) == m


def test_spelling_covers_units_and_signs():
    i = GaussianRational(0, 1)
    entries = [0, 1, -1, i, -i, 1 + i, -1 - i, Fraction(1, 2) - i, Fraction(-3, 4) * i, Fraction(-5, 6) + 2 * i]
    m = Matrix.from_rows([entries])
    assert matrix_to_file_text(m) == "0 1 -1 i -i 1+i -1-i 1/2-i -3/4i -5/6+2i\n"
    assert latex_matrix(m) == (
        "\\begin{bmatrix}0&1&-1&i&-i&1+i&-1-i&\\frac{1}{2}-i&-\\frac{3}{4}i&-\\frac{5}{6}+2i\\end{bmatrix}"
    )
    assert matrix_to_json(m)[0][:5] == ["0", "1", "-1", {"re": "0", "im": "1"}, {"re": "0", "im": "-1"}]
    assert [format_scalar(x) for x in entries] == [reference.spell_scalar(x, "text") for x in entries]
    assert format_scalar(True) == "1" and latex_scalar(Fraction(-1, 2)) == "-\\frac{1}{2}"
    with pytest.raises(TypeError):
        format_scalar(0.5)


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
    assert format_poly(Poly(())) == "0"
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


# Strings that need escaping (quotes, backslashes, control characters, non-ASCII) and any other character.
_JSON_TEXT = st.text(st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\U0001f600'), st.characters()), max_size=6)
_GAUSSIAN_ENTRY = st.fixed_dictionaries({"re": _JSON_TEXT, "im": _JSON_TEXT})
_ROW = st.one_of(st.lists(_JSON_TEXT, max_size=5), st.lists(st.one_of(_JSON_TEXT, _GAUSSIAN_ENTRY), max_size=5))
_PAYLOAD = st.recursive(
    st.one_of(_JSON_TEXT, st.integers(), st.booleans(), st.none(), st.floats(), _GAUSSIAN_ENTRY, _ROW),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(_JSON_TEXT, inner, max_size=4)),
    max_leaves=40,
)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_PAYLOAD)
def test_json_writer_is_byte_identical_to_the_stdlib(payload):
    with deadline(10):
        assert _finish_json(payload) == json.dumps(payload, indent=2) + "\n"
