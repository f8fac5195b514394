"""Fraction-arithmetic reference implementations (test-only oracles).

The package computes products, elimination, the adjugate and both
decomposition algorithms on integer planes.  These are the straightforward
Fraction versions it replaced, kept here so the tests can demand bit-for-bit
equal results.  They read matrices only through `rows` and build a Matrix
only for the result, so no Matrix operator (+, -, scalar *, @) is ever part
of the oracle:

  matmul, mat_vec       -- one Fraction per product (_dot),
  add_rows, scale_rows,
  matmul_rows           -- entrywise arithmetic on row tuples, for any field
                           (quadratic surds included),
  polymatrix_matmul     -- coefficient products summed entrywise,
  det, rank, nullspace,
  solve_many, inverse   -- Bareiss on Fraction rows (_echelon) and Fraction
                           back-substitution; normalize_vector scales a
                           nullspace vector with Fraction arithmetic,
  eval_at               -- entrywise Horner evaluation of a PolyMatrix,
  solve_undetermined    -- the sample-point solve through eval_at and solve_many,
  reconstruct_resolvent -- the decomposition summed entrywise at s0
                           (resolvent_rows keeps the row tuples),
  taylor_shift          -- p(s + c) by repeated synthetic division,
  series_div            -- truncated power-series quotient,
  faddeev_leverrier     -- the Faddeev-LeVerrier sweep on exact scalars,
  pfd_residue           -- Taylor shift + series division per matrix entry.
"""

from __future__ import annotations

import math
from fractions import Fraction

from respfd.errors import (
    DimensionMismatch,
    EvalAtPole,
    InconsistentSystem,
    MatrixTooLarge,
    SingularSeriesDivision,
)
from respfd.linalg import SIZE_LIMIT, Matrix, PolyMatrix
from respfd.pfd import EigenvalueTerm, ResolventPFD, sample_points
from respfd.polynomials import FactoredCharPoly, Poly
from respfd.scalars import GaussianRational, as_fraction, scalar_key


def _dot(u, v):
    acc = Fraction(0)
    for a, b in zip(u, v):
        if a and b:
            acc = acc + a * b
    return acc


def add_rows(x: tuple, y: tuple) -> tuple:
    return tuple(tuple(a + b for a, b in zip(rx, ry)) for rx, ry in zip(x, y))


def scale_rows(x: tuple, c) -> tuple:
    return tuple(tuple(a * c for a in row) for row in x)


def zero_rows(nrows: int, ncols: int) -> tuple:
    return tuple(tuple(Fraction(0) for _ in range(ncols)) for _ in range(nrows))


def matmul_rows(x: tuple, y: tuple) -> tuple:
    cols = tuple(zip(*y))
    return tuple(tuple(_dot(row, col) for col in cols) for row in x)


def matmul(x: Matrix, y: Matrix) -> Matrix:
    if x.ncols != y.nrows:
        raise DimensionMismatch(f"cannot multiply {x.nrows}x{x.ncols} by {y.nrows}x{y.ncols}")
    if not y.nrows:
        return Matrix(zero_rows(x.nrows, y.ncols))
    return Matrix(matmul_rows(x.rows, y.rows))


def mat_vec(m: Matrix, v) -> tuple:
    return tuple(_dot(row, v) for row in m.rows)


def polymatrix_matmul(x: PolyMatrix, y: PolyMatrix) -> PolyMatrix:
    if not x.coeff_matrices or not y.coeff_matrices:
        return PolyMatrix(x.size, ())
    out = [zero_rows(x.size, x.size)] * (x.degree + y.degree + 1)
    for i, a in enumerate(x.coeff_matrices):
        for j, b in enumerate(y.coeff_matrices):
            out[i + j] = add_rows(out[i + j], matmul_rows(a.rows, b.rows))
    return PolyMatrix(x.size, tuple(Matrix(rows) for rows in out))


def eval_at(p: PolyMatrix, s0) -> Matrix:
    """Entrywise Horner evaluation; an entry that is still zero takes no product."""
    out = zero_rows(p.size, p.size)
    for c in reversed(p.coeff_matrices):
        out = tuple(tuple(x * s0 + y if x else y for x, y in zip(r, rc)) for r, rc in zip(out, c.rows))
    return Matrix(out)


def _row_to_integral(row) -> list:
    """Scale a row of Fractions/Gaussians to integral entries (growth control)."""
    common = 1
    for x in row:
        if isinstance(x, Fraction):
            d = x.denominator
        else:
            d = math.lcm(x.re.denominator, x.im.denominator)
        common = common * d // math.gcd(common, d)
    if common == 1:
        return list(row)
    return [x * common for x in row]


def _echelon(rows: list, ncols_main: int) -> tuple:
    """Bareiss forward elimination on Fraction rows: (rows, pivot columns, permutation sign)."""
    nrows = len(rows)
    width = len(rows[0]) if rows else 0
    pivots = []
    sign = 1
    prev = Fraction(1)
    r = 0
    for c in range(ncols_main):
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
            sign = -sign
        pivot = rows[r][c]
        for i in range(r + 1, nrows):
            head = rows[i][c]
            for j in range(c + 1, width):
                rows[i][j] = (pivot * rows[i][j] - head * rows[r][j]) / prev
            rows[i][c] = Fraction(0)
        prev = pivot
        pivots.append(c)
        r += 1
    return rows, pivots, sign


def det(m: Matrix):
    n = m.nrows
    if n == 0:
        return Fraction(1)
    scale = Fraction(1)
    rows = []
    for row in m.rows:
        scaled = _row_to_integral(row)
        nonzero = next((a for a in row if a), None)
        if nonzero is not None:
            scale = scale * as_fraction(scaled[row.index(nonzero)] / nonzero)
        rows.append(scaled)
    rows, pivots, sign = _echelon(rows, n)
    if len(pivots) < n:
        return Fraction(0)
    return sign * rows[n - 1][n - 1] / scale


def rank(m: Matrix) -> int:
    rows = [_row_to_integral(row) for row in m.rows]
    if not rows:
        return 0
    return len(_echelon(rows, m.ncols)[1])


def normalize_vector(v) -> tuple:
    """Scale to integral entries, content 1, first nonzero entry positive.

    Gaussian entries use the same rule on (re, im) integer pairs, with
    positivity judged by the real part first.
    """
    if not any(v):
        return tuple(Fraction(0) for _ in v)
    common = 1
    gaussian = False
    for x in v:
        if isinstance(x, GaussianRational):
            gaussian = True
            for part in (x.re, x.im):
                common = common * part.denominator // math.gcd(common, part.denominator)
        else:
            f = as_fraction(x)
            common = common * f.denominator // math.gcd(common, f.denominator)
    scaled = [x * common for x in v]
    content = 0
    for x in scaled:
        if isinstance(x, GaussianRational):
            content = math.gcd(content, abs(int(x.re)))
            content = math.gcd(content, abs(int(x.im)))
        else:
            content = math.gcd(content, abs(int(as_fraction(x))))
    if content > 1:
        scaled = [x / content for x in scaled]
    lead = next(x for x in scaled if x)
    if isinstance(lead, GaussianRational):
        negative = lead.re < 0 or (lead.re == 0 and lead.im < 0)
    else:
        negative = as_fraction(lead) < 0
    if negative:
        scaled = [-x for x in scaled]
    out = []
    for x in scaled:
        if gaussian:
            out.append(x if isinstance(x, GaussianRational) else GaussianRational(as_fraction(x)))
        else:
            out.append(as_fraction(x))
    return tuple(out)


def nullspace(m: Matrix) -> list:
    ncols = m.ncols
    rows, pivots, _ = _echelon([_row_to_integral(row) for row in m.rows], ncols)
    basis = []
    for free in [c for c in range(ncols) if c not in set(pivots)]:
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for k in range(len(pivots) - 1, -1, -1):
            c = pivots[k]
            acc = Fraction(0)
            for j in range(c + 1, ncols):
                if rows[k][j] and vec[j]:
                    acc = acc + rows[k][j] * vec[j]
            vec[c] = -acc / rows[k][c]
        basis.append(normalize_vector(tuple(vec)))
    return basis


def solve_many(m: Matrix, rhs_columns) -> list:
    nrows, ncols = m.nrows, m.ncols
    k = len(rhs_columns)
    aug = [_row_to_integral(list(m.rows[i]) + [col[i] for col in rhs_columns]) for i in range(nrows)]
    aug, pivots, _ = _echelon(aug, ncols)
    for i in range(len(pivots), nrows):
        if any(aug[i][ncols + t] for t in range(k)):
            raise InconsistentSystem("no solution for the given right-hand side")
    out = [[Fraction(0)] * k for _ in range(ncols)]
    for t in range(k):
        for idx in range(len(pivots) - 1, -1, -1):
            c = pivots[idx]
            row = aug[idx]
            acc = row[ncols + t]
            for j in range(c + 1, ncols):
                if row[j] and out[j][t]:
                    acc = acc - row[j] * out[j][t]
            out[c][t] = acc / row[c]
    return out


def inverse(m: Matrix) -> Matrix:
    n = m.nrows
    if rank(m) < n:
        raise InconsistentSystem("matrix is singular")
    eye = Matrix.identity(n)
    sol = solve_many(m, [list(eye.column(j)) for j in range(n)])
    return Matrix(tuple(tuple(sol[i][j] for j in range(n)) for i in range(n)))


def solve_undetermined(factored: FactoredCharPoly, adjugate: PolyMatrix, basis_polys: list) -> list:
    """The matrices X_k of adj(sI-A) = sum_k X_k basis_polys[k](s), from eval_at and solve_many."""
    n = adjugate.size
    points = sample_points(len(basis_polys), [root for root, _ in factored.linear], n)
    system = Matrix.from_rows([[poly.eval(s0) for poly in basis_polys] for s0 in points])
    values = [eval_at(adjugate, s0) for s0 in points]
    solution = solve_many(system, [[value[i, j] for value in values] for i in range(n) for j in range(n)])
    return [Matrix(tuple(tuple(row[i * n:(i + 1) * n]) for i in range(n))) for row in solution]


def resolvent_rows(pfd, s0) -> tuple:
    """The decomposition summed entrywise at s0, as row tuples; s0 may lie in any field extending Q(i)."""
    acc = zero_rows(pfd.size, pfd.size)
    for term in pfd.linear:
        delta = s0 - term.eigenvalue
        if not delta:
            raise EvalAtPole(f"{s0} is an eigenvalue of the matrix")
        inv = 1 / delta
        power = inv
        for j in range(1, term.multiplicity + 1):
            acc = add_rows(acc, scale_rows(term.coefficient(j).rows, power))
            power = power * inv
    for quad in pfd.quadratic:
        shifted = s0 + quad.a
        denom = shifted * shifted + quad.d
        if not denom:
            raise EvalAtPole(f"{s0} is a root of a quadratic factor")
        pair = add_rows(scale_rows(quad.p_matrix.rows, shifted), quad.q_matrix.rows)
        acc = add_rows(acc, scale_rows(pair, 1 / denom))
    return acc


def reconstruct_resolvent(pfd, s0) -> Matrix:
    return Matrix(resolvent_rows(pfd, s0))


def entry_poly(p: PolyMatrix, i: int, j: int) -> Poly:
    """Entry (i, j) of a polynomial matrix as one polynomial in s."""
    return Poly(tuple(c[i, j] for c in p.coeff_matrices))


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
    eye = tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))
    b = eye
    adj_coeffs = [b]  # B_k for s^{n-k}, collected high power first
    for k in range(1, n + 1):
        ab = matmul_rows(a.rows, b)
        trace = Fraction(0)
        for i in range(n):
            trace = trace + ab[i][i]
        c = -trace / k
        coeffs[n - k] = c
        b = add_rows(ab, scale_rows(eye, c))
        if k < n:
            adj_coeffs.append(b)
        elif any(x for row in b for x in row):
            raise AssertionError("faddeev_leverrier self-check failed")
    return Poly(tuple(coeffs)), PolyMatrix(n, tuple(Matrix(rows) for rows in reversed(adj_coeffs)))


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
                series = series_div(taylor_shift(entry_poly(adjugate, i, j), eigenvalue), denom_shifted, mult)
                for m in range(mult):
                    entries[m][i][j] = series.coeff(m)
        coefficients = tuple(
            Matrix(tuple(tuple(row) for row in entries[mult - j])) for j in range(1, mult + 1)
        )
        if isinstance(eigenvalue, GaussianRational) and eigenvalue.im == 0:
            eigenvalue = eigenvalue.re
        terms.append(EigenvalueTerm(eigenvalue, mult, coefficients))
    terms.sort(key=lambda t: scalar_key(t.eigenvalue))
    return ResolventPFD(matrix, "complex", tuple(terms))
