"""Matrix file parsing and text / LaTeX / JSON rendering.

Matrix files: one row per line, whitespace-separated exact rational tokens
(`-12`, `3/4`); blank lines and lines starting with `#` are ignored.  The
matrix must be square.  Rendering a matrix back to file text round-trips
bit-exactly.

Text and LaTeX share one formatter per object (polynomial, factored
characteristic polynomial, quadratic factor, basis function, solution
components), and its `fmt` argument picks the spelling: the scalar
formatter, `^k` or `^{k}` for exponents, and the parentheses that text alone
puts around a p/q coefficient of a variable (`_operand`).  LaTeX output
emits bmatrix blocks arranged as sums of basis functions times matrices.
JSON output encodes every rational scalar as a string (exactness survives
serialization) and Gaussian rationals as two-field {"re", "im"} objects.
"""
from __future__ import annotations

import json
from fractions import Fraction

from .errors import EmptyMatrix, MatrixParseError, NonSquareMatrix
from .exponential import (
    BasisFunction,
    ClosedFormExp,
    GeneralSolution,
    IVPSolution,
)
from .linalg import Matrix
from .pfd import CheckResult, all_passed
from .polynomials import FactoredCharPoly, Poly
from .scalars import format_scalar, is_rational, latex_scalar, parse_rational, rational_sqrt, scalar_re


def parse_matrix(data) -> Matrix:
    """Parse a square matrix from file bytes or text; exact entries only."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    rows = []
    row_lines = []
    for lineno, line in enumerate(data.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        entries = []
        for col, token in enumerate(stripped.split(), start=1):
            try:
                entries.append(parse_rational(token))
            except (ValueError, ZeroDivisionError):
                raise MatrixParseError(
                    f"invalid rational token {token!r}", lineno, col
                ) from None
        rows.append(entries)
        row_lines.append(lineno)
    if not rows:
        raise EmptyMatrix("matrix file contains no rows")
    width = len(rows[0])
    for row, lineno in zip(rows, row_lines):
        if len(row) != width:
            raise NonSquareMatrix(
                f"row has {len(row)} entries, expected {width}", line=lineno
            )
    if len(rows) != width:
        raise NonSquareMatrix(f"matrix is {len(rows)}x{width}, not square")
    return Matrix.from_rows(rows)


def matrix_to_file_text(m: Matrix) -> str:
    """Inverse of parse_matrix: parse(matrix_to_file_text(M)) == M."""
    return "\n".join(" ".join(format_scalar(x) for x in row) for row in m.rows) + "\n"


# ---------------------------------------------------------------------------
# scalar / polynomial / matrix formatting


def scalar_to_json(x):
    if is_rational(x):
        return format_scalar(x)
    return {"re": str(x.re), "im": str(x.im)}


# What text and LaTeX spell differently: the scalar and the exponent.
_SCALAR = {"text": format_scalar, "latex": latex_scalar}
_POWER = {"text": "{}^{}", "latex": "{}^{{{}}}"}


def _power(base: str, k: int, fmt: str) -> str:
    return base if k == 1 else _POWER[fmt].format(base, k)


def _operand(x, fmt: str, coefficient: bool = False) -> str:
    """x inside a larger expression: the one rule for parentheses.

    A non-real value always goes in parentheses.  Text also puts a p/q
    coefficient of a variable in parentheses, as in (1/2)s or e^((1/2)t);
    LaTeX needs none there.
    """
    text = _SCALAR[fmt](x)
    if not is_rational(x) or (coefficient and fmt == "text" and "/" in text):
        return f"({text})"
    return text


def format_vector(v) -> str:
    return "[" + ", ".join(format_scalar(x) for x in v) + "]"


def format_matrix_block(m: Matrix) -> str:
    """Aligned multi-line matrix rendering for text output, rows indented four spaces."""
    cells = [[format_scalar(x) for x in row] for row in m.rows]
    widths = [max(len(cells[i][j]) for i in range(m.nrows)) for j in range(m.ncols)]
    lines = []
    for row in cells:
        padded = "  ".join(cell.rjust(w) for cell, w in zip(row, widths))
        lines.append(f"    [ {padded} ]")
    return "\n".join(lines)


def _bmatrix(rows) -> str:
    body = "\\\\".join("&".join(latex_scalar(x) for x in row) for row in rows)
    return "\\begin{bmatrix}" + body + "\\end{bmatrix}"


def latex_matrix(m: Matrix) -> str:
    return _bmatrix(m.rows)


def _latex_column(v) -> str:
    return _bmatrix((x,) for x in v)


def matrix_to_json(m: Matrix) -> list:
    return [[scalar_to_json(x) for x in row] for row in m.rows]


def format_poly(p: Poly, fmt: str = "text") -> str:
    """p with the highest degree first, e.g. s^2 - (1/2)s + 3."""
    pieces = []
    for k in range(p.degree, -1, -1):
        c = p.coeff(k)
        if not c:
            continue
        negative = is_rational(c) and scalar_re(c) < 0
        body = _operand(-c if negative else c, fmt, coefficient=k > 0)
        if k:
            body = ("" if body == "1" else body) + _power("s", k, fmt)
        if pieces:
            pieces.append(f"- {body}" if negative else f"+ {body}")
        else:
            pieces.append(f"-{body}" if negative else body)
    return " ".join(pieces) or "0"


def _linear(root, fmt: str) -> str:
    """s - root with a real root's sign folded in: s - 2, s + 1/2, s - (1+i), s."""
    if not is_rational(root) or scalar_re(root) > 0:
        return f"s - {_operand(root, fmt)}"
    return f"s + {_SCALAR[fmt](-root)}" if root else "s"


def format_quadratic(a: Fraction, d: Fraction, fmt: str = "text") -> str:
    """The irreducible quadratic (s + a)^2 + d, or s^2 + d when a = 0."""
    square = f"({_linear(-a, fmt)})^2" if a else "s^2"
    return f"{square} + {_SCALAR[fmt](d)}"


def format_factored(f: FactoredCharPoly, fmt: str = "text") -> str:
    parts = [_power(f"({_linear(root, fmt)})" if root else "s", mult, fmt) for root, mult in f.linear]
    parts += [f"({format_quadratic(a, d, fmt)})" for a, d in f.quadratic]
    return " ".join(parts) or "1"


# ---------------------------------------------------------------------------
# basis-function formatting


def _exp_factor(lam, fmt: str) -> str:
    """e^(lam t), or "" when lam = 0."""
    if not lam:
        return ""
    rate = "t" if lam == 1 else "-t" if lam == -1 else _operand(lam, fmt, coefficient=True) + "t"
    if fmt == "latex":
        return f"e^{{{rate}}}"
    return "e^t" if rate == "t" else f"e^({rate})"


def format_basis(basis: BasisFunction, fmt: str = "text") -> str:
    """The scalar function of t in one closed-form term, e.g. t e^(-t)."""
    latex = fmt == "latex"
    if basis.kind == "exp":
        parts = (_power("t", basis.k, fmt) if basis.k else "", _exp_factor(basis.lam, fmt))
    else:
        beta = rational_sqrt(basis.d)
        root = f"\\sqrt{{{latex_scalar(basis.d)}}}" if latex else f"sqrt({basis.d})"
        freq = f"{root} t" if beta is None else _operand(beta, fmt, coefficient=True) + "t"
        trig = "\\" + basis.kind if latex else basis.kind
        body = f"{trig}({freq})"
        if basis.kind == "sin" and basis.inv_scale:
            body = f"\\frac{{{body}}}{{{root}}}" if latex else f"{body} / {root}"
        parts = (_exp_factor(-basis.a, fmt), body)
    return ("" if latex else " ").join(part for part in parts if part) or "1"


def basis_to_json(basis: BasisFunction) -> dict:
    if basis.kind == "exp":
        return {"kind": "exp", "lambda": scalar_to_json(basis.lam), "k": basis.k}
    out = {"kind": basis.kind, "a": str(basis.a), "d": str(basis.d)}
    if basis.kind == "sin":
        out["scale"] = f"1/sqrt({basis.d})" if basis.inv_scale else "1"
    return out


def _components(components, fmt: str) -> str:
    """basis * vector terms joined by +: the body of a solve or general result."""
    if fmt == "latex":
        return " + ".join(format_basis(basis, fmt) + _latex_column(vec) for basis, vec in components)
    return " + ".join(f"{format_basis(basis)} * {format_vector(vec)}" for basis, vec in components)


def _components_json(components) -> list:
    return [dict(basis_to_json(basis), vector=[scalar_to_json(x) for x in vec]) for basis, vec in components]


# ---------------------------------------------------------------------------
# per-result renderers: each returns the full output document as a string


def _finish_json(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def render_charpoly(poly: Poly, factored: FactoredCharPoly, fmt: str) -> str:
    if fmt == "json":
        payload = {
            "charpoly": [str(c) for c in poly.coeffs],
            "mode": factored.mode,
            "linear": [
                {"root": scalar_to_json(root), "multiplicity": mult}
                for root, mult in factored.linear
            ],
            "quadratic": [{"a": str(a), "d": str(d)} for a, d in factored.quadratic],
        }
        return _finish_json(payload)
    if fmt == "latex":
        lines = [f"\\det(sI - A) = {format_poly(poly, fmt)}"]
        lines.append(f"= {format_factored(factored, fmt)}")
        return "\n".join(lines) + "\n"
    lines = [f"det(sI - A) = {format_poly(poly)}"]
    lines.append(f"mode: {factored.mode}")
    lines.append(f"factors: {format_factored(factored)}")
    return "\n".join(lines) + "\n"


def render_pfd(pfd, fmt: str) -> str:
    if fmt == "json":
        payload = {
            "mode": pfd.mode,
            "n": pfd.size,
            "terms": [
                {
                    "lambda": scalar_to_json(term.eigenvalue),
                    "multiplicity": term.multiplicity,
                    "B": [matrix_to_json(term.coefficient(j)) for j in range(1, term.multiplicity + 1)],
                }
                for term in pfd.linear
            ],
            "quadratic": [
                {
                    "a": str(quad.a),
                    "d": str(quad.d),
                    "P": matrix_to_json(quad.p_matrix),
                    "Q": matrix_to_json(quad.q_matrix),
                }
                for quad in pfd.quadratic
            ],
        }
        return _finish_json(payload)
    if fmt == "latex":
        pieces = []
        for term in pfd.linear:
            denom = _linear(term.eigenvalue, fmt)
            for j in range(1, term.multiplicity + 1):
                power = denom if j == 1 else _power(f"({denom})", j, fmt)
                pieces.append(f"\\frac{{1}}{{{power}}}" + latex_matrix(term.coefficient(j)))
        for quad in pfd.quadratic:
            denom = format_quadratic(quad.a, quad.d, fmt)
            shifted = _linear(-quad.a, fmt)
            pieces.append(f"\\frac{{{shifted}}}{{{denom}}}" + latex_matrix(quad.p_matrix))
            pieces.append(f"\\frac{{1}}{{{denom}}}" + latex_matrix(quad.q_matrix))
        return "(sI - A)^{-1} = " + " + ".join(pieces) + "\n"
    lines = []
    for term in pfd.linear:
        lines.append(f"lambda = {format_scalar(term.eigenvalue)} (multiplicity {term.multiplicity})")
        for j in range(1, term.multiplicity + 1):
            lines.append(f"  B[{j}] =")
            lines.append(format_matrix_block(term.coefficient(j)))
    for quad in pfd.quadratic:
        lines.append(f"quadratic factor ({format_quadratic(quad.a, quad.d)})")
        lines.append("  P =")
        lines.append(format_matrix_block(quad.p_matrix))
        lines.append("  Q =")
        lines.append(format_matrix_block(quad.q_matrix))
    return "\n".join(lines) + "\n"


def render_chains(groups: list[tuple], fmt: str) -> str:
    """groups: (eigenvalue, multiplicity, list of Chain) per eigenvalue."""
    if fmt == "json":
        payload = {
            "mode": "complex",
            "eigenvalues": [
                {
                    "lambda": scalar_to_json(eigenvalue),
                    "multiplicity": mult,
                    "chains": [
                        {
                            "column": chain.column + 1,
                            "length": chain.length,
                            "vectors": [
                                [scalar_to_json(x) for x in v] for v in chain.vectors
                            ],
                        }
                        for chain in chains
                    ],
                }
                for eigenvalue, mult, chains in groups
            ],
        }
        return _finish_json(payload)
    if fmt == "latex":
        lines = []
        for eigenvalue, mult, chains in groups:
            lines.append(f"\\lambda = {latex_scalar(eigenvalue)}:")
            for chain in chains:
                vecs = " \\to ".join(_latex_column(v) for v in chain.vectors)
                lines.append(f"\\quad {vecs}")
        return "\n".join(lines) + "\n"
    lines = []
    for eigenvalue, mult, chains in groups:
        lines.append(f"lambda = {format_scalar(eigenvalue)} (multiplicity {mult})")
        for chain in chains:
            path = " -> ".join(format_vector(v) for v in chain.vectors)
            lines.append(f"  column {chain.column + 1} (length {chain.length}): {path}")
    return "\n".join(lines) + "\n"


def render_exp(cf: ClosedFormExp, fmt: str) -> str:
    if fmt == "json":
        payload = {
            "n": cf.size,
            "terms": [
                dict(basis_to_json(basis), C=matrix_to_json(coeff))
                for basis, coeff in cf.terms
            ],
        }
        return _finish_json(payload)
    if fmt == "latex":
        pieces = [format_basis(basis, fmt) + latex_matrix(coeff) for basis, coeff in cf.terms]
        return "e^{tA} = " + " + ".join(pieces) + "\n"
    lines = ["e^(tA) ="]
    for idx, (basis, coeff) in enumerate(cf.terms):
        prefix = "  " if idx == 0 else "+ "
        lines.append(f"{prefix}{format_basis(basis)} *")
        lines.append(format_matrix_block(coeff))
    return "\n".join(lines) + "\n"


def render_solve(sol: IVPSolution, fmt: str) -> str:
    if fmt == "json":
        payload = {
            "y0": [scalar_to_json(x) for x in sol.y0],
            "components": _components_json(sol.components),
        }
        return _finish_json(payload)
    if fmt == "latex":
        return "y(t) = " + _components(sol.components, fmt) + "\n"
    return (_components(sol.components, fmt) or "0") + "\n"


def render_general(gen: GeneralSolution, fmt: str) -> str:
    if fmt == "json":
        payload = {
            "solutions": [
                {"constant": f"C{c + 1}", "components": _components_json(components)}
                for c, components in enumerate(gen.fundamental)
            ]
        }
        return _finish_json(payload)
    if fmt == "latex":
        pieces = [
            f"C_{{{c + 1}}}\\left({_components(components, fmt)}\\right)"
            for c, components in enumerate(gen.fundamental)
        ]
        return "y(t) = " + " + ".join(pieces) + "\n"
    lines = [
        f"C{c + 1} * ({_components(components, fmt)})"
        for c, components in enumerate(gen.fundamental)
    ]
    return "\n".join(lines) + "\n"


def render_verify(checks: list[CheckResult], fmt: str) -> str:
    passed = all_passed(checks)
    if fmt == "json":
        payload = {
            "passed": passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail} for c in checks
            ],
        }
        return _finish_json(payload)
    width = max(len(c.name) for c in checks) if checks else 0
    lines = []
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        lines.append(f"{status}  {c.name.ljust(width)}  {c.detail}")
    lines.append(f"result: {'PASS' if passed else 'FAIL'} ({len(checks)} checks)")
    return "\n".join(lines) + "\n"
