"""Per-op output checks, computed with the benchmark's own exact arithmetic.

A JSON result is checked against an identity that holds only for the right
answer: the Laplace transform of a closed form (or the partial fractions
themselves) evaluated at a rational non-eigenvalue s0 must invert s0 I - A,
and the factors must be the planted ones.  A text or LaTeX result is checked
number for number against the JSON rendering of the same command, which is
itself checked.  A `verify` result must report every check as PASS.
"""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction

from exact import CQ, cq, laplace_exp, laplace_trig, matvec, resolvent_vector_identity


def scalar(x):
    """A JSON scalar: "p/q" or {"re": .., "im": ..}."""
    if isinstance(x, dict):
        return CQ(Fraction(x["re"]), Fraction(x["im"]))
    return Fraction(x)


def token(t: str):
    """A text scalar such as -3/4, 1/2+5/6i, -i."""
    t = t.strip()
    if not t.endswith("i"):
        return Fraction(t)
    body = t[:-1]
    k = max(body.rfind("+"), body.rfind("-"))
    re_part, im_part = (body[:k], body[k:]) if k > 0 else ("0", body)
    im_part = {"": "1", "+": "1", "-": "-1"}.get(im_part, im_part)
    return CQ(Fraction(re_part), Fraction(im_part))


def s0_for(spectrum) -> Fraction:
    """A rational point that is not an eigenvalue."""
    top = max((abs(cq(lam).re) for lam in spectrum.linear), default=Fraction(0))
    return top + Fraction(4, 3)


def _factors_match(payload, spectrum, mode) -> bool:
    linear = {scalar(t["root"] if "root" in t else t["lambda"]): t["multiplicity"]
              for t in payload.get("linear", payload.get("terms", []))}
    want = {lam if isinstance(lam, CQ) and lam.im else cq(lam).re: m
            for lam, m in spectrum.eigenvalues(mode).items()}
    got = {lam if isinstance(lam, CQ) and lam.im else cq(lam).re: m for lam, m in linear.items()}
    quads = sorted((Fraction(q["a"]), Fraction(q["d"])) for q in payload.get("quadratic", []))
    return got == want and quads == spectrum.quadratics(mode)


def _basis_transform(term, s0):
    if term["kind"] == "exp":
        return laplace_exp(scalar(term["lambda"]), term["k"], s0)
    scaled = term.get("scale", "1") != "1"
    return laplace_trig(term["kind"], Fraction(term["a"]), Fraction(term["d"]), scaled, s0)


def _poles_match(terms, spectrum, mode) -> bool:
    eig = spectrum.eigenvalues(mode)
    quads = set(spectrum.quadratics(mode))
    for term in terms:
        if term["kind"] == "exp":
            lam = scalar(term["lambda"])
            mult = next((m for e, m in eig.items() if cq(e) == cq(lam)), 0)
            if term["k"] >= mult:
                return False
        elif (Fraction(term["a"]), Fraction(term["d"])) not in quads:
            return False
    return True


def _expected_mode(op, spectrum) -> str:
    if op.mode != "auto":
        return op.mode
    return "complex" if spectrum.complex_ok() else "real"


def check_json(op, case, payload) -> str | None:
    """None when the JSON result is right, else a reason."""
    a, spec = case.matrix, case.spectrum
    n = len(a)
    s0 = s0_for(spec)
    mode = _expected_mode(op, spec)
    cmd = op.command
    if cmd == "charpoly":
        if payload["mode"] != mode or not _factors_match(payload, spec, mode):
            return "factors differ from the planted spectrum"
        expanded = [CQ(1)]
        for t in payload["linear"]:
            for _ in range(t["multiplicity"]):
                expanded = _poly_mul(expanded, [-cq(scalar(t["root"])), CQ(1)])
        for q in payload["quadratic"]:
            qa, qd = Fraction(q["a"]), Fraction(q["d"])
            expanded = _poly_mul(expanded, [CQ(qa * qa + qd), CQ(2 * qa), CQ(1)])
        if expanded != [cq(Fraction(c)) for c in payload["charpoly"]]:
            return "charpoly is not the product of its factors"
        return None
    # Freivalds: X = (s0 I - A)^-1 is checked as (s0 I - A) (X r) = r for a
    # random integer vector r, so a wrong X passes with negligible chance.
    rng = random.Random(op.name)
    r = [rng.randint(1, 2**30) for _ in range(n)]
    if cmd == "pfd":
        if payload["mode"] != mode or not _factors_match(payload, spec, mode):
            return "poles differ from the planted spectrum"
        y = [Fraction(0)] * n
        for term in payload["terms"]:
            lam = scalar(term["lambda"])
            inv = (cq(s0) - lam).inv() if isinstance(lam, CQ) else 1 / (s0 - lam)
            power = inv
            for b in term["B"]:
                _add_times(y, _apply(b, r), power)
                power = power * inv
        for q in payload["quadratic"]:
            shifted = s0 + Fraction(q["a"])
            denom = shifted * shifted + Fraction(q["d"])
            _add_times(y, _apply(q["P"], r), shifted / denom)
            _add_times(y, _apply(q["Q"], r), 1 / denom)
        return None if resolvent_vector_identity(a, s0, y, r) else "(s0 I - A) R(s0) != I"
    if cmd == "exp":
        if not _poles_match(payload["terms"], spec, mode):
            return "basis functions outside the planted spectrum"
        y = [Fraction(0)] * n
        for term in payload["terms"]:
            _add_times(y, _apply(term["C"], r), _basis_transform(term, s0))
        return None if resolvent_vector_identity(a, s0, y, r) else "Laplace transform of e^{tA} != (s0 I - A)^-1"
    if cmd == "solve":
        if [scalar(v) for v in payload["y0"]] != [Fraction(v) for v in op.y0]:
            return "y0 not echoed"
        if not _poles_match(payload["components"], spec, mode):
            return "basis functions outside the planted spectrum"
        y = _vector_transform(payload["components"], n, s0)
        return None if resolvent_vector_identity(a, s0, y, op.y0) else "(s0 I - A) Y(s0) != y0"
    if cmd == "general":
        sols = payload["solutions"]
        if [sol["constant"] for sol in sols] != [f"C{c + 1}" for c in range(n)]:
            return "wrong fundamental solutions"
        y = [Fraction(0)] * n
        for weight, sol in zip(r, sols):
            _add_times(y, _vector_transform(sol["components"], n, s0), weight)
        return None if resolvent_vector_identity(a, s0, y, r) else "fundamental solutions are wrong"
    if cmd == "chains":
        groups = payload["eigenvalues"]
        listed = {"linear": [{"root": g["lambda"], "multiplicity": g["multiplicity"]} for g in groups]}
        if not _factors_match(listed, spec, "complex"):
            return "eigenvalues differ from the planted spectrum"
        for g in groups:
            lam = scalar(g["lambda"])
            shifted = [[a[i][j] - (lam if i == j else 0) for j in range(n)] for i in range(n)]
            for chain in g["chains"]:
                vecs = [[scalar(x) for x in v] for v in chain["vectors"]]
                if chain["length"] != len(vecs) or not any(vecs[-1]):
                    return "malformed chain"
                for v, w in zip(vecs, vecs[1:] + [[0] * n]):
                    if [cq(x) for x in matvec(shifted, v)] != [cq(x) for x in w]:
                        return f"chain recurrence fails at lambda={g['lambda']}"
        return None
    if cmd == "verify":
        return None if payload["passed"] and all(c["passed"] for c in payload["checks"]) else "a check FAILed"
    return f"no check for {cmd}"


def _poly_mul(p, q):
    out = [CQ(0)] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] = out[i + j] + x * y
    return out


def _apply(matrix_json, r) -> list:
    """M r for a JSON matrix M."""
    return [sum(scalar(v) * x for v, x in zip(row, r) if v != "0") for row in matrix_json]


def _add_times(y, v, weight) -> None:
    for i, x in enumerate(v):
        if x:
            y[i] = y[i] + x * weight


def _vector_transform(components, n, s0):
    y = [Fraction(0)] * n
    for comp in components:
        _add_times(y, [scalar(v) for v in comp["vector"]], _basis_transform(comp, s0))
    return y


# ---------------------------------------------------------------------------
# text and LaTeX against the checked JSON rendering

_TEXT_BRACKET = re.compile(r"(?<![A-Za-z])\[([^\[\]]*)\]")
_LATEX_MATRIX = re.compile(r"\\begin\{bmatrix\}(.*?)\\end\{bmatrix\}")
_LATEX_FRAC = re.compile(r"\\frac\{(\d+)\}\{(\d+)\}")


def numbers_in_json(command: str, payload) -> list:
    """Matrix and vector entries of a JSON result, in rendering order."""
    out = []

    def mat(m):
        out.extend(scalar(x) for row in m for x in row)

    if command == "pfd":
        for t in payload["terms"]:
            for b in t["B"]:
                mat(b)
        for q in payload["quadratic"]:
            mat(q["P"])
            mat(q["Q"])
    elif command == "exp":
        for t in payload["terms"]:
            mat(t["C"])
    elif command == "solve":
        for c in payload["components"]:
            out.extend(scalar(x) for x in c["vector"])
    elif command == "general":
        for sol in payload["solutions"]:
            for c in sol["components"]:
                out.extend(scalar(x) for x in c["vector"])
    elif command == "chains":
        for g in payload["eigenvalues"]:
            for chain in g["chains"]:
                for v in chain["vectors"]:
                    out.extend(scalar(x) for x in v)
    elif command == "charpoly":
        out.extend(Fraction(c) for c in payload["charpoly"])
    return out


def numbers_in_text(command: str, text: str, latex: bool) -> list:
    if command == "charpoly":
        first = text.splitlines()[0]
        return _poly_coeffs(first.split(" = ", 1)[1])
    if latex:
        out = []
        for body in _LATEX_MATRIX.findall(text):
            for row in body.split("\\\\"):
                out.extend(token(_LATEX_FRAC.sub(r"\1/\2", cell)) for cell in row.split("&"))
        return out
    out = []
    for inner in _TEXT_BRACKET.findall(text):
        out.extend(token(t) for t in re.split(r"[,\s]+", inner.strip()) if t)
    return out


def _poly_coeffs(expr: str) -> list:
    """Ascending coefficients of a rendered rational polynomial in s."""
    flat = _LATEX_FRAC.sub(r"\1/\2", expr)
    flat = re.sub(r"[\s(){}]", "", flat)
    coeffs = {}
    for sign, digits, var, power in re.findall(r"([+-]?)([\d/]*)(s?)(?:\^(\d+))?", flat):
        if not (digits or var):
            continue
        value = Fraction(digits or "1") * (-1 if sign == "-" else 1)
        degree = int(power) if power else (1 if var else 0)
        coeffs[degree] = value
    return [coeffs.get(k, Fraction(0)) for k in range(max(coeffs) + 1)]


def check_verify_text(text: str) -> str | None:
    lines = text.splitlines()
    if not lines or not lines[-1].startswith("result: PASS"):
        return "verify result is not PASS"
    if any(not line.startswith("PASS ") for line in lines[:-1]):
        return "a check FAILed"
    return None


def check(op, case, stdout: str, json_sibling: str | None) -> str | None:
    """None when an exit-0 op's stdout is right, else the reason it is not."""
    try:
        if op.fmt == "json":
            return check_json(op, case, json.loads(stdout))
        if op.command == "verify":
            return check_verify_text(stdout)
        if json_sibling is None:
            return "no checked JSON rendering to compare with"
        want = numbers_in_json(op.command, json.loads(json_sibling))
        got = numbers_in_text(op.command, stdout, op.fmt == "latex")
        same = len(got) == len(want) and all(cq(g) == cq(w) for g, w in zip(got, want))
        return None if same else f"{op.fmt} numbers differ from the checked JSON"
    except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
        return f"unparseable output: {type(exc).__name__}: {exc}"
