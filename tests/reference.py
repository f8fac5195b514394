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
  basis_polys           -- the basis polynomials charpoly/(s - lambda)^j,
                           (s+a) charpoly/quad and charpoly/quad by division,
  solve_undetermined    -- the sample-point solve of those polynomials
                           through eval_at and solve_many,
  reconstruct_resolvent -- the decomposition summed entrywise at s0
                           (resolvent_rows keeps the row tuples),
  taylor_shift          -- p(s + c) by repeated synthetic division,
  series_div            -- truncated power-series quotient,
  faddeev_leverrier     -- the Faddeev-LeVerrier sweep on exact scalars,
  pfd_residue           -- Taylor shift + series division per matrix entry,
  select_chain_basis    -- the greedy chain selection with the full-vector
                           test: every vector of each trial, ranked from
                           Fraction rows.

respfd's Poly holds coefficients and evaluates; it does no arithmetic between
polynomials.  The Fraction arithmetic the tests build polynomials with lives
here: linear_factor (s - root), poly_add, poly_neg, poly_sub, poly_mul,
poly_pow and poly_divmod (exact Euclidean division).  expand multiplies a
factorization's (linear, quadratic) factors out in that arithmetic, the oracle
for FactoredCharPoly's integer round trip (multiplies_out).

The float checks once kept their matrices as lists of rows, multiplied by a
generator product of their own.  nested_oracle_exp, nested_mat_mul and
nested_relative_error are those versions, so the tests can demand that the
row-major results are the same floats, bit for bit.

spell_scalar spells one scalar from its Fractions in text, LaTeX or JSON, the
oracle for the renderers, which spell matrix entries from the integer planes.
spell_integral is the per-entry plane speller the package had before it spelled
a real plane in one pass: one _spell call per entry.
"""

from __future__ import annotations

import math
from fractions import Fraction

from respfd.chains import ChainBasis, extract_column_chains
from respfd.errors import (
    DimensionMismatch,
    EvalAtPole,
    IncompleteBasis,
    InconsistentSystem,
    MatrixTooLarge,
    SingularSeriesDivision,
)
from respfd.linalg import SIZE_LIMIT, Matrix, PolyMatrix
from respfd.pfd import EigenvalueTerm, ResolventPFD, sample_points
from respfd.polynomials import FactoredCharPoly, Poly
from respfd.scalars import GaussianRational, _spell, as_fraction, scalar_key


def linear_factor(root) -> Poly:
    """The monic linear factor s - root."""
    return Poly((-root, Fraction(1)))


def poly_add(x: Poly, y: Poly) -> Poly:
    a, b = x.coeffs, y.coeffs
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for k, c in enumerate(b):
        out[k] = out[k] + c
    return Poly(out)


def poly_neg(x: Poly) -> Poly:
    return Poly(tuple(-c for c in x.coeffs))


def poly_sub(x: Poly, y: Poly) -> Poly:
    return poly_add(x, poly_neg(y))


def poly_mul(x: Poly, y: Poly) -> Poly:
    if x.is_zero or y.is_zero:
        return Poly(())
    out = [Fraction(0)] * (len(x.coeffs) + len(y.coeffs) - 1)
    for i, a in enumerate(x.coeffs):
        if not a:
            continue
        for j, b in enumerate(y.coeffs):
            out[i + j] = out[i + j] + a * b
    return Poly(out)


def poly_pow(p: Poly, n: int) -> Poly:
    if n < 0:
        raise ValueError("negative polynomial power")
    out = Poly.constant(Fraction(1))
    base = p
    while n:
        if n & 1:
            out = poly_mul(out, base)
        base = poly_mul(base, base)
        n >>= 1
    return out


def poly_divmod(x: Poly, y: Poly) -> tuple[Poly, Poly]:
    """Exact Euclidean division; requires a nonzero divisor."""
    if y.is_zero:
        raise ZeroDivisionError("polynomial division by zero polynomial")
    rem = list(x.coeffs)
    dq = len(rem) - len(y.coeffs)
    if dq < 0:
        return Poly(()), x
    inv_lead = Fraction(1) / y.leading() if y.leading() != 1 else None
    quot = [Fraction(0)] * (dq + 1)
    for k in range(dq, -1, -1):
        top = rem[k + y.degree]
        if not top:
            continue
        q = top if inv_lead is None else top * inv_lead
        quot[k] = q
        for j, b in enumerate(y.coeffs):
            rem[k + j] = rem[k + j] - q * b
    return Poly(quot), Poly(rem[: y.degree if y.degree > 0 else 0])


def expand(linear, quadratic) -> Poly:
    """A factorization's factors multiplied out: prod (s - root)^m * prod ((s+a)^2 + d)."""
    out = Poly.constant(Fraction(1))
    for root, mult in linear:
        out = poly_mul(out, poly_pow(linear_factor(root), mult))
    for a, d in quadratic:
        out = poly_mul(out, Poly((a * a + d, 2 * a, Fraction(1))))
    return out


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


def basis_polys(factored: FactoredCharPoly) -> list:
    """The basis polynomials of the undetermined-coefficient identity, in solve order.

    charpoly/(s - lambda_i)^j for each eigenvalue lambda_i and j = 1..r_i,
    then (s+a) charpoly/quad and charpoly/quad for each quadratic factor
    (s+a)^2 + d (real mode), each by exact polynomial division.
    """
    basis = []
    for eigenvalue, mult in factored.linear:
        partial = factored.poly
        for _ in range(mult):
            partial, rem = poly_divmod(partial, linear_factor(eigenvalue))
            assert rem.is_zero, "eigenvalue does not divide the characteristic polynomial"
            basis.append(partial)
    for a, d in factored.quadratic:
        cofactor, rem = poly_divmod(factored.poly, Poly((a * a + d, 2 * a, Fraction(1))))
        assert rem.is_zero, "quadratic factor does not divide the characteristic polynomial"
        basis += [poly_mul(cofactor, Poly((a, Fraction(1)))), cofactor]
    return basis


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
    charpoly = expand(factored.linear, factored.quadratic)
    terms = []
    for eigenvalue, mult in factored.linear:
        denom = charpoly
        for _ in range(mult):
            denom, rem = poly_divmod(denom, linear_factor(eigenvalue))
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


def select_chain_basis(pfd, eigenvalue_index: int) -> ChainBasis:
    """Longest column chains first (ties: lower column); admit one when the trial's vectors are independent."""
    term = pfd.linear[eigenvalue_index]
    candidates = sorted(extract_column_chains(pfd, eigenvalue_index), key=lambda c: (-c.length, c.column))
    selected, stacked = [], []
    for chain in candidates:
        trial = stacked + list(chain.vectors)
        if len(trial) <= term.multiplicity and rank(Matrix.from_rows(trial)) == len(trial):
            selected.append(chain)
            stacked = trial
    if len(stacked) < term.multiplicity:
        raise IncompleteBasis(f"no subset of column chains spans eigenvalue {term.eigenvalue}")
    return ChainBasis(term.eigenvalue, tuple(selected))


def _float_entries(m: Matrix) -> list:
    """m's entries, row-major, as floats (complex with an im plane); x / d rounds like float(Fraction(x, d))."""
    re, im, d = m.re, m.im, m.d
    if im is None:
        return [x / d for x in re]
    return [complex(x / d, y / d) for x, y in zip(re, im)]


def nested_mat_mul(x, y):
    cols = list(zip(*y))
    return [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in x]


def _nested_max_norm(x) -> float:
    return max((abs(v) for row in x for v in row), default=0.0)


def nested_oracle_exp(a: Matrix, t: float) -> list[list[float]]:
    """Independent floating-point e^{tA}: scaling and squaring, Taylor core.

    Scales by 2^{-m} until the infinity norm is at most 1/2, sums the Taylor
    series until the relative tail drops below 1e-16, then squares m times.
    """
    n = a.nrows
    entries = _float_entries(a)
    work = [[x * t for x in entries[i * n : (i + 1) * n]] for i in range(n)]
    norm = max((sum(abs(v) for v in row) for row in work), default=0.0)
    m = 0
    while norm > 0.5:
        norm /= 2.0
        m += 1
    scale = 2.0 ** m
    work = [[v / scale for v in row] for row in work]
    total = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    term = [row[:] for row in total]
    k = 1
    while k < 80:
        term = nested_mat_mul(term, work)
        term = [[v / k for v in row] for row in term]
        total = [[p + q for p, q in zip(r1, r2)] for r1, r2 in zip(total, term)]
        if _nested_max_norm(term) <= 1e-16 * _nested_max_norm(total):
            break
        k += 1
    for _ in range(m):
        total = nested_mat_mul(total, total)
    if a.is_rational_matrix():
        return [[float(v.real) for v in row] for row in total]
    return total


def nested_relative_error(x, y) -> float:
    """Max-norm relative difference, normalized by the max-norm of y."""
    diff = max(abs(a - b) for row_x, row_y in zip(x, y) for a, b in zip(row_x, row_y))
    denom = _nested_max_norm(y)
    return diff / denom if denom else diff


def spell_scalar(x, fmt: str):
    """One Q or Q(i) scalar spelled from its Fractions, as "text", "latex" or "json".

    The spelling the package had before it spelled matrix entries from the
    integer planes: str of a Fraction, \\frac{p}{q} in LaTeX with the sign in
    front, re+im i with a bare i or -i for a unit imaginary part, and JSON's
    {"re", "im"} strings for a non-real value.
    """
    x = x if isinstance(x, GaussianRational) else GaussianRational(x)

    def rational(f: Fraction) -> str:
        if fmt != "latex" or f.denominator == 1:
            return str(f)
        return f"{'-' if f < 0 else ''}\\frac{{{abs(f.numerator)}}}{{{f.denominator}}}"

    if x.im == 0:
        return rational(x.re)
    if fmt == "json":
        return {"re": str(x.re), "im": str(x.im)}
    im_text = "i" if x.im == 1 else "-i" if x.im == -1 else f"{rational(x.im)}i"
    if x.re == 0:
        return im_text
    return f"{rational(x.re)}{'+' if x.im > 0 else ''}{im_text}"


def spell_integral(re: list, im: list | None, d: int, fmt: str) -> list:
    """Each entry (re + i*im) / d of integer planes through _spell: p = x // g and q = d // g, g = gcd(x, d)."""
    if im is None:
        return [_spell(x // (g := math.gcd(x, d)), d // g, 0, 1, fmt) for x in re]
    return [_spell(x // (g := math.gcd(x, d)), d // g, y // (h := math.gcd(y, d)), d // h, fmt) for x, y in zip(re, im)]
