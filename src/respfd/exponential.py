"""Closed-form matrix exponentials and constant-coefficient ODE solutions.

The inverse transform of the decomposition maps

    B / (s - lambda)^j        ->  B t^{j-1} e^{lambda t} / (j-1)!
    ((s+a) P + Q) / ((s+a)^2 + d)
                              ->  e^{-at} [ cos(sqrt(d) t) P
                                            + sin(sqrt(d) t) Q / sqrt(d) ]

A ClosedFormExp is a list of (basis function, exact coefficient matrix)
terms.  Factorials and rational square roots are folded into the stored
coefficient eagerly, so every stored matrix is exact and rational whenever
the input matrix is; an irrational sqrt(d) only ever appears in the basis
label and the sine term's 1/sqrt(d) scale.

The derivative of a closed form lands on the same basis, which turns
d/dt e^{tA} = A e^{tA} into an exact coefficient-by-coefficient identity
checked without any floating point.  Numeric evaluation and the independent
scaling-and-squaring oracle live here too, as the only float code in the
package: row-major lists of n^2 values, multiplied by linalg.flat_matmul.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import cached_property

from .errors import DimensionMismatch
from .linalg import Matrix, faddeev_leverrier, flat_matmul, mat_vec, vec_is_zero
from .pfd import pfd_real, pfd_residue
from .polynomials import factor_charpoly
from .record import Record
from .scalars import (
    GaussianRational,
    Scalar,
    rational_sqrt,
    scalar_key,
)


class BasisFunction(Record):
    """One scalar basis function of t.

    kind "exp":  t^k e^{lam t}            (parameters lam, k)
    kind "cos":  e^{-a t} cos(sqrt(d) t)  (parameters a, d)
    kind "sin":  e^{-a t} sin(sqrt(d) t), times 1/sqrt(d) when inv_scale
    """

    kind: str
    lam: Scalar = Fraction(0)
    k: int = 0
    a: Fraction = Fraction(0)
    d: Fraction = Fraction(0)
    inv_scale: bool = False

    def sort_key(self):
        if self.kind == "exp":
            return (0, scalar_key(self.lam), self.k, 0)
        order = 0 if self.kind == "cos" else 1
        return (1, (self.a, self.d), 0, order)

    def value_at(self, t: float):
        """The basis function at t; OverflowError when lambda t or beta t is not finite, as math.exp on overflow."""
        if self.kind == "exp":
            if isinstance(self.lam, GaussianRational):
                z = complex(self.lam) * t  # cmath.exp raises ValueError, not OverflowError, on some infinite z
                if not cmath.isfinite(z):
                    raise OverflowError("lambda t is not finite")
                return (t ** self.k) * cmath.exp(z)
            return (t ** self.k) * math.exp(float(self.lam) * t)
        beta = math.sqrt(float(self.d))
        envelope = math.exp(-float(self.a) * t)
        if not math.isfinite(beta * t):  # math.cos and math.sin raise ValueError on an infinite argument
            raise OverflowError("beta t is not finite")
        if self.kind == "cos":
            return envelope * math.cos(beta * t)
        value = envelope * math.sin(beta * t)
        return value / beta if self.inv_scale else value

    def value_at_zero_is_one(self) -> bool:
        """True for the basis functions that contribute at t = 0."""
        if self.kind == "exp":
            return self.k == 0
        return self.kind == "cos"


def exp_basis(lam: Scalar, k: int) -> BasisFunction:
    return BasisFunction("exp", lam=lam, k=k)


def cos_basis(a: Fraction, d: Fraction) -> BasisFunction:
    return BasisFunction("cos", a=a, d=d)


def sin_basis(a: Fraction, d: Fraction) -> BasisFunction:
    return BasisFunction("sin", a=a, d=d, inv_scale=rational_sqrt(d) is None)


class ClosedFormExp(Record):
    """Exact symbolic matrix exponential: sum of basis * coefficient terms."""

    matrix: Matrix
    terms: tuple  # ((BasisFunction, Matrix), ...)

    @property
    def size(self) -> int:
        return self.matrix.nrows

    def value_at_zero(self) -> Matrix:
        acc = Matrix.zeros(self.size, self.size)
        for basis, coeff in self.terms:
            if basis.value_at_zero_is_one():
                acc = acc + coeff
        return acc

    @cached_property
    def float_coefficients(self) -> tuple:
        """Per term, (flat row-major index, float or complex value) for each nonzero entry of its coefficient."""
        out = []
        for _, coeff in self.terms:
            values, im = _float_entries(coeff), coeff.im or (0,) * len(coeff.re)
            out.append(tuple((k, values[k]) for k, (x, y) in enumerate(zip(coeff.re, im)) if x or y))
        return tuple(out)

    def apply_to(self, v) -> list:
        """Pair each basis function with its coefficient applied to v."""
        out = []
        for basis, coeff in self.terms:
            w = mat_vec(coeff, v)
            if any(x for x in w):
                out.append((basis, w))
        return out


def _collect(matrix: Matrix, raw_terms) -> ClosedFormExp:
    acc: dict[BasisFunction, Matrix] = {}
    for basis, coeff in raw_terms:
        if basis in acc:
            acc[basis] = acc[basis] + coeff
        else:
            acc[basis] = coeff
    terms = tuple(
        (basis, acc[basis])
        for basis in sorted(acc, key=BasisFunction.sort_key)
        if not acc[basis].is_zero
    )
    return ClosedFormExp(matrix, terms)


def exp_from_pfd(pfd) -> ClosedFormExp:
    """Inverse-transform a decomposition into its closed-form exponential."""
    raw = []
    for term in pfd.linear:
        for j in range(1, term.multiplicity + 1):
            coeff = term.coefficient(j)
            if j > 2:  # (j-1)! is 1 for j = 1, 2
                coeff = coeff * Fraction(1, math.factorial(j - 1))
            raw.append((exp_basis(term.eigenvalue, j - 1), coeff))
    for quad in pfd.quadratic:
        raw.append((cos_basis(quad.a, quad.d), quad.p_matrix))
        beta = rational_sqrt(quad.d)
        if beta is not None:
            raw.append((sin_basis(quad.a, quad.d), quad.q_matrix * (Fraction(1) / beta)))
        else:
            raw.append((sin_basis(quad.a, quad.d), quad.q_matrix))
    return _collect(pfd.matrix, raw)


def exp_derivative(cf: ClosedFormExp) -> ClosedFormExp:
    """Term-wise derivative, recombined onto the same basis family."""
    raw = []
    for basis, coeff in cf.terms:
        if basis.kind == "exp":
            raw.append((basis, coeff * basis.lam))
            if basis.k >= 1:
                raw.append((exp_basis(basis.lam, basis.k - 1), coeff * basis.k))
        elif basis.kind == "cos":
            raw.append((basis, coeff * (-basis.a)))
            partner = sin_basis(basis.a, basis.d)
            if partner.inv_scale:
                raw.append((partner, coeff * (-basis.d)))
            else:
                raw.append((partner, coeff * (-rational_sqrt(basis.d))))
        else:
            raw.append((basis, coeff * (-basis.a)))
            partner = cos_basis(basis.a, basis.d)
            if basis.inv_scale:
                raw.append((partner, coeff))
            else:
                raw.append((partner, coeff * rational_sqrt(basis.d)))
    return _collect(cf.matrix, raw)


def premultiply(cf: ClosedFormExp, m: Matrix) -> ClosedFormExp:
    """Left-multiply every coefficient: the closed form of M e^{tA}."""
    return _collect(cf.matrix, ((basis, m @ coeff) for basis, coeff in cf.terms))


def _to_float(x):
    if isinstance(x, GaussianRational):
        return complex(x)
    return float(x)


def _float_entries(m: Matrix) -> list:
    """m's entries, row-major, as floats (complex with an im plane); x / d rounds like float(Fraction(x, d))."""
    re, im, d = m.re, m.im, m.d
    if im is None:
        return [x / d for x in re]
    return [complex(x / d, y / d) for x, y in zip(re, im)]


def exp_eval(cf: ClosedFormExp, t: float) -> list:
    """Numeric value of the closed form at time t, row-major.

    Conjugate complex-mode terms cancel imaginary parts exactly for rational
    input matrices, so the real parts are returned.
    """
    acc = [0j] * cf.size ** 2
    for (basis, _), entries in zip(cf.terms, cf.float_coefficients):
        w = basis.value_at(t)
        for k, x in entries:
            acc[k] += x * w
    return [z.real for z in acc] if cf.matrix.is_rational_matrix() else acc


def numeric_oracle_exp(a: Matrix, t: float, squares: dict | None = None) -> list:
    """Independent floating-point e^{tA}, row-major: scaling and squaring, Taylor core.

    Scales by 2^{-m} until the infinity norm is at most 1/2, sums the Taylor
    series until the relative tail drops below 1e-16, then squares m times.
    `squares`, a dict the caller keeps, maps each scaled list tA / 2^m to its
    Taylor core and the squares computed so far: scaling by 2 is exact, so
    2tA / 2^(m+1) is tA / 2^m bit for bit, and e^{2tA} is one more squaring
    of e^{tA}'s core, the same floats a fresh call computes.
    """
    n = a.nrows
    work = [x * t for x in _float_entries(a)]
    norm = max((sum(map(abs, work[i * n : (i + 1) * n])) for i in range(n)), default=0.0)
    if not math.isfinite(norm):
        raise OverflowError(f"the norm of tA is not finite at t={t:g}")
    m = 0
    while norm > 0.5:
        norm /= 2.0
        m += 1
    scale = 2.0 ** m
    work = [v / scale for v in work]
    powers = [] if squares is None else squares.setdefault(tuple(work), [])
    if not powers:
        powers.append(_taylor_core(work, n))
    while len(powers) <= m:
        powers.append(flat_matmul(powers[-1], powers[-1], n, n, n))
    if a.is_rational_matrix():
        return [float(v.real) for v in powers[m]]
    return powers[m]


def _taylor_core(work: list, n: int) -> list:
    """The Taylor series of e^W, W row-major with norm at most 1/2, summed until its relative tail is below 1e-16."""
    total = [1.0 if i == j else 0.0 for i in range(n) for j in range(n)]
    term = total[:]
    k = 1
    while k < 80:
        term = [v / k for v in flat_matmul(term, work, n, n, n)]
        total = [p + q for p, q in zip(total, term)]
        if max(map(abs, term), default=0.0) <= 1e-16 * max(map(abs, total), default=0.0):
            break
        k += 1
    return total


def relative_error(x, y) -> float:
    """Max-norm relative difference of two row-major lists, normalized by the max-norm of y."""
    diff = max(abs(a - b) for a, b in zip(x, y))
    denom = max(map(abs, y), default=0.0)
    return diff / denom if denom else diff


def decompose(a: Matrix, mode: str = "auto", hints=None):
    """Factor, compute the adjugate, and decompose the resolvent of A.

    mode "complex" or "real" force that form; "auto" prefers complex (full
    chain machinery available) and falls back to real when the spectrum is
    not expressible over Q(i).
    """
    charpoly, adjugate = faddeev_leverrier(a)
    factored = factor_charpoly(charpoly, mode, hints)
    if factored.mode == "complex":
        return pfd_residue(factored, adjugate, a)
    return pfd_real(factored, adjugate, a)


def matrix_exponential(a: Matrix, mode: str = "auto", hints=None) -> ClosedFormExp:
    return exp_from_pfd(decompose(a, mode, hints))


class IVPSolution(Record):
    """Closed-form solution of y' = A y, y(0) = y0."""

    matrix: Matrix
    y0: tuple
    components: tuple  # ((BasisFunction, vector), ...)

    def value_at_zero(self) -> tuple:
        n = len(self.y0)
        acc = [Fraction(0)] * n
        for basis, vec in self.components:
            if basis.value_at_zero_is_one():
                acc = [p + q for p, q in zip(acc, vec)]
        return tuple(acc)

    def eval_at(self, t: float) -> list[float]:
        n = len(self.y0)
        acc = [0j] * n
        for basis, vec in self.components:
            w = basis.value_at(t)
            for i in range(n):
                if vec[i]:
                    acc[i] += _to_float(vec[i]) * w
        return [z.real for z in acc]


class GeneralSolution(Record):
    """Fundamental solutions (columns of e^{tA}) with symbolic constants."""

    matrix: Matrix
    fundamental: tuple  # per column: ((BasisFunction, vector), ...)

    @property
    def size(self) -> int:
        return self.matrix.nrows


def solve_ivp(a: Matrix, y0, mode: str = "auto", hints=None) -> IVPSolution:
    """Exact closed-form solution of the initial value problem y' = A y."""
    y0 = tuple(Fraction(x) if isinstance(x, int) else x for x in y0)
    if len(y0) != a.nrows:
        raise DimensionMismatch(
            f"initial vector length {len(y0)} does not match matrix size {a.nrows}"
        )
    cf = matrix_exponential(a, mode, hints)
    return IVPSolution(a, y0, tuple(cf.apply_to(y0)))


def general_solution(a: Matrix, mode: str = "auto", hints=None) -> GeneralSolution:
    """The n fundamental solutions, grouped per basis function.

    The c-th fundamental solution is e^{tA} e_c, so each coefficient
    contributes its c-th column; no product is formed.
    """
    cf = matrix_exponential(a, mode, hints)
    columns = []
    for c in range(a.nrows):
        terms = ((basis, coeff.column(c)) for basis, coeff in cf.terms)
        columns.append(tuple((basis, column) for basis, column in terms if not vec_is_zero(column)))
    return GeneralSolution(a, tuple(columns))
