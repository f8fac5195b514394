"""Matrix file parsing and text / LaTeX / JSON rendering.

Matrix files: one row per line, whitespace-separated exact rational tokens
(`-12`, `3/4`); blank lines and lines starting with `#` are ignored.  The
matrix must be square.  Rendering a matrix back to file text round-trips
bit-exactly.

JSON output encodes every rational scalar as a string (exactness survives
serialization) and Gaussian rationals as two-field {"re", "im"} objects.
LaTeX output emits bmatrix blocks arranged as sums of basis functions times
matrices.
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
from .pfd import CheckResult, RealResolventPFD
from .polynomials import FactoredCharPoly, Poly
from .scalars import GaussianRational, format_scalar, parse_rational, rational_sqrt


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
    if isinstance(x, GaussianRational) and x.im != 0:
        return {"re": str(x.re), "im": str(x.im)}
    if isinstance(x, GaussianRational):
        return str(x.re)
    return str(Fraction(x))


def _latex_rational(x: Fraction) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    sign = "-" if x < 0 else ""
    return f"{sign}\\frac{{{abs(x.numerator)}}}{{{x.denominator}}}"


def latex_scalar(x) -> str:
    if isinstance(x, GaussianRational):
        if x.im == 0:
            return _latex_rational(x.re)
        re_text = "" if x.re == 0 else _latex_rational(x.re)
        if x.im == 1:
            im_text = "i"
        elif x.im == -1:
            im_text = "-i"
        else:
            im_text = f"{_latex_rational(x.im)}i"
        if re_text and not im_text.startswith("-"):
            return f"{re_text}+{im_text}"
        return f"{re_text}{im_text}"
    return _latex_rational(x)


def format_matrix_inline(m: Matrix) -> str:
    return "[" + ", ".join(
        "[" + ", ".join(format_scalar(x) for x in row) + "]" for row in m.rows
    ) + "]"


def format_vector(v) -> str:
    return "[" + ", ".join(format_scalar(x) for x in v) + "]"


def format_matrix_block(m: Matrix, indent: str = "  ") -> str:
    """Aligned multi-line matrix rendering for text output."""
    cells = [[format_scalar(x) for x in row] for row in m.rows]
    widths = [max(len(cells[i][j]) for i in range(m.nrows)) for j in range(m.ncols)]
    lines = []
    for row in cells:
        padded = "  ".join(cell.rjust(w) for cell, w in zip(row, widths))
        lines.append(f"{indent}[ {padded} ]")
    return "\n".join(lines)


def latex_matrix(m: Matrix) -> str:
    rows = ["&".join(latex_scalar(x) for x in row) for row in m.rows]
    return "\\begin{bmatrix}" + "\\\\".join(rows) + "\\end{bmatrix}"


def matrix_to_json(m: Matrix) -> list:
    return [[scalar_to_json(x) for x in row] for row in m.rows]


def format_poly(p: Poly, variable: str = "s") -> str:
    """Human-readable polynomial, highest degree first."""
    if p.is_zero:
        return "0"
    pieces = []
    for k in range(p.degree, -1, -1):
        c = p.coeff(k)
        if not c:
            continue
        text = format_scalar(c)
        negative = text.startswith("-")
        magnitude = text[1:] if negative else text
        if k > 0:
            if isinstance(c, GaussianRational) and c.im != 0:
                magnitude = f"({text})"
                negative = False
            elif "/" in magnitude:
                magnitude = f"({magnitude})"
            if magnitude == "1":
                magnitude = ""
            var = variable if k == 1 else f"{variable}^{k}"
            body = f"{magnitude}{var}"
        else:
            if isinstance(c, GaussianRational) and c.im != 0:
                body = f"({text})"
                negative = False
            else:
                body = magnitude
        if not pieces:
            pieces.append(f"-{body}" if negative else body)
        else:
            pieces.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(pieces)


def format_linear_factor(root, multiplicity: int) -> str:
    if isinstance(root, GaussianRational) and root.im != 0:
        base = f"(s - ({format_scalar(root)}))"
    else:
        r = Fraction(root) if not isinstance(root, GaussianRational) else root.re
        if r == 0:
            base = "s"
        elif r > 0:
            base = f"(s - {r})"
        else:
            base = f"(s + {-r})"
    return base if multiplicity == 1 else f"{base}^{multiplicity}"


def format_quadratic_factor(a: Fraction, d: Fraction) -> str:
    if a == 0:
        return f"(s^2 + {d})"
    inner = f"s + {a}" if a > 0 else f"s - {-a}"
    return f"(({inner})^2 + {d})"


def format_factored(f: FactoredCharPoly) -> str:
    parts = [format_linear_factor(root, mult) for root, mult in f.linear]
    parts += [format_quadratic_factor(a, d) for a, d in f.quadratic]
    return " ".join(parts) if parts else "1"


# ---------------------------------------------------------------------------
# basis-function formatting


def _exp_factor_text(lam) -> str | None:
    if not lam:
        return None
    if lam == 1:
        return "e^t"
    if lam == -1:
        return "e^(-t)"
    if isinstance(lam, GaussianRational) and lam.im != 0:
        return f"e^(({format_scalar(lam)})t)"
    lam = Fraction(lam) if not isinstance(lam, GaussianRational) else lam.re
    if lam.denominator == 1:
        return f"e^({lam}t)"
    return f"e^(({lam})t)"


def _frequency_text(d: Fraction) -> str:
    beta = rational_sqrt(d)
    if beta is None:
        return f"sqrt({d}) t"
    if beta.denominator == 1:
        return f"{beta}t"
    return f"({beta})t"


def format_basis(basis: BasisFunction) -> str:
    if basis.kind == "exp":
        t_part = "" if basis.k == 0 else ("t" if basis.k == 1 else f"t^{basis.k}")
        e_part = _exp_factor_text(basis.lam)
        if not t_part and not e_part:
            return "1"
        return " ".join(part for part in (t_part, e_part) if part)
    envelope = _exp_factor_text(-basis.a)
    trig = "cos" if basis.kind == "cos" else "sin"
    body = f"{trig}({_frequency_text(basis.d)})"
    if basis.kind == "sin" and basis.inv_scale:
        body = f"{body} / sqrt({basis.d})"
    return f"{envelope} {body}" if envelope else body


def _latex_exp_factor(lam) -> str | None:
    if not lam:
        return None
    inner = latex_scalar(lam)
    if lam == 1:
        return "e^{t}"
    if lam == -1:
        return "e^{-t}"
    if isinstance(lam, GaussianRational) and lam.im != 0:
        return f"e^{{({inner})t}}"
    return f"e^{{{inner}t}}"


def latex_basis(basis: BasisFunction) -> str:
    if basis.kind == "exp":
        t_part = "" if basis.k == 0 else ("t" if basis.k == 1 else f"t^{{{basis.k}}}")
        e_part = _latex_exp_factor(basis.lam) or ""
        return (t_part + e_part) or "1"
    envelope = _latex_exp_factor(-basis.a) or ""
    beta = rational_sqrt(basis.d)
    freq = f"\\sqrt{{{basis.d}}} t" if beta is None else f"{latex_scalar(beta)}t"
    trig = "\\cos" if basis.kind == "cos" else "\\sin"
    body = f"{trig}({freq})"
    if basis.kind == "sin" and basis.inv_scale:
        body = f"\\frac{{{body}}}{{\\sqrt{{{basis.d}}}}}"
    return envelope + body


def basis_to_json(basis: BasisFunction) -> dict:
    if basis.kind == "exp":
        return {"kind": "exp", "lambda": scalar_to_json(basis.lam), "k": basis.k}
    out = {"kind": basis.kind, "a": str(basis.a), "d": str(basis.d)}
    if basis.kind == "sin":
        out["scale"] = f"1/sqrt({basis.d})" if basis.inv_scale else "1"
    return out


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
        lines = [f"\\det(sI - A) = {latex_poly(poly)}"]
        lines.append(f"= {latex_factored(factored)}")
        return "\n".join(lines) + "\n"
    lines = [f"det(sI - A) = {format_poly(poly)}"]
    lines.append(f"mode: {factored.mode}")
    lines.append(f"factors: {format_factored(factored)}")
    return "\n".join(lines) + "\n"


def latex_poly(p: Poly, variable: str = "s") -> str:
    if p.is_zero:
        return "0"
    pieces = []
    for k in range(p.degree, -1, -1):
        c = p.coeff(k)
        if not c:
            continue
        text = latex_scalar(c)
        negative = text.startswith("-")
        magnitude = text[1:] if negative else text
        if k > 0:
            if magnitude == "1":
                magnitude = ""
            var = variable if k == 1 else f"{variable}^{{{k}}}"
            body = f"{magnitude}{var}"
        else:
            body = magnitude
        if not pieces:
            pieces.append(f"-{body}" if negative else body)
        else:
            pieces.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(pieces)


def latex_factored(f: FactoredCharPoly) -> str:
    parts = []
    for root, mult in f.linear:
        if isinstance(root, GaussianRational) and root.im != 0:
            base = f"(s - ({latex_scalar(root)}))"
        else:
            r = root if isinstance(root, Fraction) else Fraction(root)
            if r == 0:
                base = "s"
            elif r > 0:
                base = f"(s - {latex_scalar(r)})"
            else:
                base = f"(s + {latex_scalar(-r)})"
        parts.append(base if mult == 1 else f"{base}^{{{mult}}}")
    parts += [f"({_latex_quadratic_denominator(a, d)})" for a, d in f.quadratic]
    return " ".join(parts) if parts else "1"


def render_pfd(pfd, fmt: str) -> str:
    if fmt == "json":
        payload = {
            "mode": "real" if isinstance(pfd, RealResolventPFD) else "complex",
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
            for j in range(1, term.multiplicity + 1):
                denom = f"s - {latex_scalar(term.eigenvalue)}" if term.eigenvalue != 0 else "s"
                if j > 1:
                    frac = f"\\frac{{1}}{{({denom})^{{{j}}}}}"
                else:
                    frac = f"\\frac{{1}}{{{denom}}}"
                pieces.append(frac + latex_matrix(term.coefficient(j)))
        for quad in pfd.quadratic:
            denom = _latex_quadratic_denominator(quad.a, quad.d)
            shifted = f"s + {latex_scalar(quad.a)}" if quad.a != 0 else "s"
            pieces.append(
                f"\\frac{{{shifted}}}{{{denom}}}" + latex_matrix(quad.p_matrix)
            )
            pieces.append(f"\\frac{{1}}{{{denom}}}" + latex_matrix(quad.q_matrix))
        return "(sI - A)^{-1} = " + " + ".join(pieces) + "\n"
    lines = []
    for term in pfd.linear:
        lines.append(f"lambda = {format_scalar(term.eigenvalue)} (multiplicity {term.multiplicity})")
        for j in range(1, term.multiplicity + 1):
            lines.append(f"  B[{j}] =")
            lines.append(format_matrix_block(term.coefficient(j), indent="    "))
    for quad in pfd.quadratic:
        lines.append(f"quadratic factor {format_quadratic_factor(quad.a, quad.d)}")
        lines.append("  P =")
        lines.append(format_matrix_block(quad.p_matrix, indent="    "))
        lines.append("  Q =")
        lines.append(format_matrix_block(quad.q_matrix, indent="    "))
    return "\n".join(lines) + "\n"


def _latex_quadratic_denominator(a: Fraction, d: Fraction) -> str:
    if a == 0:
        return f"s^2 + {latex_scalar(d)}"
    inner = f"s + {latex_scalar(a)}" if a > 0 else f"s - {latex_scalar(-a)}"
    return f"({inner})^2 + {latex_scalar(d)}"


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
                vecs = " \\to ".join(
                    latex_matrix(Matrix.from_rows([[x] for x in v])) for v in chain.vectors
                )
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
        pieces = [latex_basis(basis) + latex_matrix(coeff) for basis, coeff in cf.terms]
        return "e^{tA} = " + " + ".join(pieces) + "\n"
    lines = ["e^(tA) ="]
    for idx, (basis, coeff) in enumerate(cf.terms):
        prefix = "  " if idx == 0 else "+ "
        lines.append(f"{prefix}{format_basis(basis)} *")
        lines.append(format_matrix_block(coeff, indent="    "))
    return "\n".join(lines) + "\n"


def render_solve(sol: IVPSolution, fmt: str) -> str:
    if fmt == "json":
        payload = {
            "y0": [scalar_to_json(x) for x in sol.y0],
            "components": [
                dict(basis_to_json(basis), vector=[scalar_to_json(x) for x in vec])
                for basis, vec in sol.components
            ],
        }
        return _finish_json(payload)
    if fmt == "latex":
        pieces = [
            latex_basis(basis) + latex_matrix(Matrix.from_rows([[x] for x in vec]))
            for basis, vec in sol.components
        ]
        return "y(t) = " + " + ".join(pieces) + "\n"
    pieces = [
        f"{format_basis(basis)} * {format_vector(vec)}" for basis, vec in sol.components
    ]
    return (" + ".join(pieces) if pieces else "0") + "\n"


def render_general(gen: GeneralSolution, fmt: str) -> str:
    if fmt == "json":
        payload = {
            "solutions": [
                {
                    "constant": f"C{c + 1}",
                    "components": [
                        dict(basis_to_json(basis), vector=[scalar_to_json(x) for x in vec])
                        for basis, vec in components
                    ],
                }
                for c, components in enumerate(gen.fundamental)
            ]
        }
        return _finish_json(payload)
    if fmt == "latex":
        pieces = []
        for c, components in enumerate(gen.fundamental):
            inner = " + ".join(
                latex_basis(basis) + latex_matrix(Matrix.from_rows([[x] for x in vec]))
                for basis, vec in components
            )
            pieces.append(f"C_{{{c + 1}}}\\left({inner}\\right)")
        return "y(t) = " + " + ".join(pieces) + "\n"
    lines = []
    for c, components in enumerate(gen.fundamental):
        inner = " + ".join(
            f"{format_basis(basis)} * {format_vector(vec)}" for basis, vec in components
        )
        lines.append(f"C{c + 1} * ({inner})")
    return "\n".join(lines) + "\n"


def render_verify(checks: list[CheckResult], fmt: str) -> str:
    passed = all(c.passed for c in checks)
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
