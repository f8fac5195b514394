"""Fraction-arithmetic reference implementations (test-only oracles).

The package computes the adjugate and the residue decomposition on integer
planes.  These are the straightforward Fraction versions it replaced, kept
here so the tests can demand bit-for-bit equal results:

  taylor_shift          -- p(s + c) by repeated synthetic division,
  series_div            -- truncated power-series quotient,
  faddeev_leverrier     -- the Faddeev-LeVerrier sweep on exact scalars,
  pfd_residue           -- Taylor shift + series division per matrix entry.
"""

from __future__ import annotations

from fractions import Fraction

from respfd.errors import DimensionMismatch, MatrixTooLarge, SingularSeriesDivision
from respfd.linalg import SIZE_LIMIT, Matrix, PolyMatrix
from respfd.pfd import EigenvalueTerm, ResolventPFD
from respfd.polynomials import FactoredCharPoly, Poly
from respfd.scalars import GaussianRational, scalar_key


def taylor_shift(p: Poly, c) -> Poly:
    """Taylor shift: returns q with q(s) = p(s + c), exactly.

    Repeated synthetic division by (s - (-c)) accumulates the Taylor
    coefficients of p around -c, which are exactly the coefficients of
    p(s + c).
    """
    if not c or p.is_zero:
        return p
    work = list(p.coeffs)
    n = len(work)
    out = []
    for k in range(n):
        # one synthetic-division pass by (x - c), high to low
        for j in range(n - 2, k - 1, -1):
            work[j] = work[j] + work[j + 1] * c
        out.append(work[k])
    return Poly(out)


def series_div(num: Poly, den: Poly, order: int) -> Poly:
    """Truncated power-series quotient num/den with `order` coefficients.

    Requires den(0) != 0.  The result q satisfies: the lowest `order`
    coefficients of num - den*q vanish.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if den.is_zero or not den.coeff(0):
        raise SingularSeriesDivision("series division needs den(0) != 0")
    inv0 = Fraction(1) / den.coeff(0)
    out = []
    for k in range(order):
        acc = num.coeff(k)
        for t in range(1, k + 1):
            dc = den.coeff(t)
            if dc:
                acc = acc - dc * out[k - t]
        out.append(acc * inv0)
    return Poly(out)


def faddeev_leverrier(a: Matrix) -> tuple[Poly, PolyMatrix]:
    """det(sI - A) and adj(sI - A) by B_1 = I, c_{n-k} = -tr(A B_k)/k, B_{k+1} = A B_k + c_{n-k} I."""
    if not a.is_square:
        raise DimensionMismatch("faddeev_leverrier requires a square matrix")
    n = a.nrows
    if n > SIZE_LIMIT:
        raise MatrixTooLarge(f"matrix size {n} exceeds the supported limit of {SIZE_LIMIT}")
    if n == 0:
        return Poly.constant(Fraction(1)), PolyMatrix(0, ())
    coeffs: list = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    b = Matrix.identity(n)
    adj_coeffs = [b]  # B_k for s^{n-k}, collected high power first
    for k in range(1, n + 1):
        ab = a @ b
        trace = Fraction(0)
        for i in range(n):
            trace = trace + ab[i, i]
        c = -trace / k
        coeffs[n - k] = c
        b = ab + Matrix.identity(n) * c
        if k < n:
            adj_coeffs.append(b)
        elif not b.is_zero:
            raise AssertionError("faddeev_leverrier self-check failed")
    return Poly(tuple(coeffs)), PolyMatrix(n, tuple(reversed(adj_coeffs)))


def pfd_residue(factored: FactoredCharPoly, adjugate: PolyMatrix, matrix: Matrix) -> ResolventPFD:
    """B_j = a_{r-j}, the Taylor coefficients of adj(sI-A) / (charpoly/(s-lambda)^r) at lambda.

    Shifts and divides every one of the n^2 entry polynomials separately, and
    computes every eigenvalue's term independently.
    """
    n = adjugate.size
    charpoly = factored.expand()
    terms = []
    for eigenvalue, mult in factored.linear:
        denom = charpoly
        for _ in range(mult):
            denom, rem = divmod(denom, Poly.linear(eigenvalue))
            if not rem.is_zero:
                raise AssertionError("eigenvalue does not divide the characteristic polynomial")
        denom_shifted = taylor_shift(denom, eigenvalue)
        entries = [[[None] * n for _ in range(n)] for _ in range(mult)]  # [m][i][j]
        for i in range(n):
            for j in range(n):
                series = series_div(taylor_shift(adjugate.entry_poly(i, j), eigenvalue), denom_shifted, mult)
                for m in range(mult):
                    entries[m][i][j] = series.coeff(m)
        coefficients = tuple(
            Matrix(tuple(tuple(row) for row in entries[mult - j])).demoted() for j in range(1, mult + 1)
        )
        if isinstance(eigenvalue, GaussianRational) and eigenvalue.im == 0:
            eigenvalue = eigenvalue.re
        terms.append(EigenvalueTerm(eigenvalue, mult, coefficients))
    terms.sort(key=lambda t: scalar_key(t.eigenvalue))
    return ResolventPFD(matrix, tuple(terms))
