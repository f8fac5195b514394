"""Exact dense matrix arithmetic and fraction-free elimination.

Matrices are immutable, stored row-major as nested tuples of exact scalars
(Fraction or GaussianRational).  Vectors are plain tuples.

The integer kernel: to_integral splits a matrix into integer numerator
planes (real, plus imaginary when some entry is non-real) over one positive
denominator, the layout of FLINT's fmpq_mat; from_integral maps back, and
combine_integral forms Gaussian-integer linear combinations of such planes.
The exact hot paths run on those Python-int planes and build Fractions only
at the boundary:

  products      Matrix @ is one integer product of the two operands' planes
                over d_x d_y; PolyMatrix @ sums the plane products of each
                output coefficient in one integer accumulator.
  elimination   det, rank, nullspace, solve_many, inverse and solve_integral
                scale each row once by its own denominator and run Bareiss'
                fraction-free elimination over Z or Z[i]: entries stay minors
                of the input, and every division is a checked exact quotient.
                Back-substitution is fraction-free too (y = D x, D the last
                pivot), so a solution entry costs one Fraction.
  adjugate      faddeev_leverrier produces the characteristic polynomial and
                the full adjugate polynomial adj(sI - A) in a single O(n^4)
                sweep with the built-in self-check A*B_n + c_0*I = 0.

Matrix + and scalar * stay on Fraction entries.  They, @ and
linear_combination also accept entries outside Q(i) (such as quadratic
surds), which have no integer planes and take plain field arithmetic.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .errors import DimensionMismatch, InconsistentSystem, MatrixTooLarge, SelfCheckFailed
from .polynomials import Poly
from .scalars import GaussianRational, Scalar, as_fraction, is_rational

# Exact adjugate/pfd cost grows fast with n; refuse clearly past this size.
SIZE_LIMIT = 12


@dataclass(frozen=True)
class Matrix:
    """Immutable exact matrix; entries row-major as a tuple of row tuples."""

    rows: tuple

    def __post_init__(self):
        rows = tuple(tuple(Fraction(x) if isinstance(x, int) else x for x in row) for row in self.rows)
        if rows:
            width = len(rows[0])
            if any(len(row) != width for row in rows):
                raise DimensionMismatch("rows of differing length")
        object.__setattr__(self, "rows", rows)

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "Matrix":
        return Matrix(tuple(tuple(row) for row in rows))

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(
            tuple(
                tuple(Fraction(1) if i == j else Fraction(0) for j in range(n))
                for i in range(n)
            )
        )

    @staticmethod
    def zeros(nrows: int, ncols: int) -> "Matrix":
        return Matrix(tuple(tuple(Fraction(0) for _ in range(ncols)) for _ in range(nrows)))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __getitem__(self, key: tuple[int, int]) -> Scalar:
        i, j = key
        return self.rows[i][j]

    def row(self, i: int) -> tuple:
        return self.rows[i]

    def column(self, j: int) -> tuple:
        return tuple(row[j] for row in self.rows)

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise DimensionMismatch(
                f"cannot add {self.nrows}x{self.ncols} and {other.nrows}x{other.ncols}"
            )
        return Matrix(
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            )
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        return Matrix(tuple(tuple(-x for x in row) for row in self.rows))

    def __mul__(self, other):
        if isinstance(other, Matrix):
            return NotImplemented  # use @ for matrix products
        return Matrix(tuple(tuple(x * other for x in row) for row in self.rows))

    def __rmul__(self, other):
        if isinstance(other, Matrix):
            return NotImplemented
        return Matrix(tuple(tuple(other * x for x in row) for row in self.rows))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """One integer product of the operands' planes (see to_integral), over d_x d_y."""
        if self.ncols != other.nrows:
            raise DimensionMismatch(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        if not (self.nrows and other.ncols):
            return Matrix.zeros(self.nrows, other.ncols)
        try:
            (xr, xi, dx), (yr, yi, dy) = to_integral(self), to_integral(other)
        except TypeError:  # an entry outside Q(i), such as a quadratic surd: field arithmetic
            cols = [other.column(j) for j in range(other.ncols)]
            return Matrix(tuple(tuple(sum(map(operator.mul, row, col)) for col in cols) for row in self.rows))
        product = _plane_matmul((xr, xi), (yr, yi), self.nrows, self.ncols, other.ncols)
        return from_integral(*product, dx * dy, other.ncols)

    def transpose(self) -> "Matrix":
        return Matrix(tuple(tuple(row[j] for row in self.rows) for j in range(self.ncols)))

    @property
    def T(self) -> "Matrix":
        return self.transpose()

    @property
    def is_zero(self) -> bool:
        return all(not x for row in self.rows for x in row)

    def is_rational_matrix(self) -> bool:
        return all(is_rational(x) for row in self.rows for x in row)

    def demoted(self) -> "Matrix":
        """Convert to plain Fraction entries when no entry has imaginary part."""
        if self.is_rational_matrix():
            return Matrix(tuple(tuple(as_fraction(x) for x in row) for row in self.rows))
        return self

    def map(self, fn: Callable[[Scalar], Scalar]) -> "Matrix":
        return Matrix(tuple(tuple(fn(x) for x in row) for row in self.rows))

    def __str__(self) -> str:
        return "[" + ", ".join("[" + ", ".join(str(x) for x in row) + "]" for row in self.rows) + "]"


def mat_vec(m: Matrix, v: Sequence) -> tuple:
    if m.ncols != len(v):
        raise DimensionMismatch(f"cannot apply {m.nrows}x{m.ncols} to length-{len(v)} vector")
    (xr, xi, dx), (yr, yi, dy) = to_integral(m), entries_to_integral(v)
    return tuple(_scalars(*_plane_matmul((xr, xi), (yr, yi), m.nrows, m.ncols, 1), dx * dy))


def vec_is_zero(v: Sequence) -> bool:
    return all(not x for x in v)


def _echelon(re: list, im: list | None, ncols_main: int) -> tuple[list[int], int]:
    """Bareiss fraction-free forward elimination, in place, on integer rows.

    re holds the rows as int lists; im their imaginary parts for a system over
    Z[i], or None for one over Z.  Trailing columns beyond ncols_main ride
    along (augmented systems).  Every entry stays a minor of the input, so
    each division by the previous pivot is an exact quotient, and is checked.
    Returns (pivot column indices, sign of the row permutation).  Pivoting
    picks the first row with a nonzero entry, so results are deterministic.
    """
    nrows = len(re)
    pivots: list[int] = []
    sign = 1
    prev = (1, 0)
    r = 0
    for c in range(ncols_main):
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if re[i][c] or (im is not None and im[i][c])), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            for plane in (re,) if im is None else (re, im):
                plane[r], plane[pivot_row] = plane[pivot_row], plane[r]
            sign = -sign
        pr, top_re = re[r][c], re[r][c + 1:]
        if im is None:
            for row in re[r + 1:]:
                h = row[c]
                new_re, _ = _exact_quotients([pr * x - h * y for x, y in zip(row[c + 1:], top_re)], None, prev)
                row[c:] = [0] + new_re
            prev = (pr, 0)
        else:
            pi, top_im = im[r][c], im[r][c + 1:]
            for row_re, row_im in zip(re[r + 1:], im[r + 1:]):
                hr, hi = row_re[c], row_im[c]
                tail = list(zip(row_re[c + 1:], row_im[c + 1:], top_re, top_im))
                new_re, new_im = _exact_quotients(
                    [pr * x - pi * y - hr * u + hi * v for x, y, u, v in tail],
                    [pr * y + pi * x - hr * v - hi * u for x, y, u, v in tail],
                    prev,
                )
                row_re[c:], row_im[c:] = [0] + new_re, [0] + new_im
            prev = (pr, pi)
        pivots.append(c)
        r += 1
    return pivots, sign


def _exact_quotients(re: list, im: list | None, q: tuple) -> tuple[list, list | None]:
    """(re + i*im) / q for a nonzero Gaussian integer q = (qr, qi); every quotient must be exact."""
    qr, qi = q
    norm = qr
    if qi:
        norm = qr * qr + qi * qi
        re, im = [x * qr + y * qi for x, y in zip(re, im)], [y * qr - x * qi for x, y in zip(re, im)]
    if norm == 1:
        return re, im
    return _exact_division(re, norm), None if im is None else _exact_division(im, norm)


def _exact_division(values: list, k: int) -> list:
    if any(x % k for x in values):
        raise SelfCheckFailed("linalg", f"fraction-free elimination: a division by {k} is not exact")
    return [x // k for x in values]


def _system(row_planes: list) -> tuple[list, list | None]:
    """Integer rows (re, im or None for a real system) from per-row planes (re, im | None, d)."""
    re = [p[0] for p in row_planes]
    if all(p[1] is None for p in row_planes):
        return re, None
    return re, [p[1] if p[1] is not None else [0] * len(p[0]) for p in row_planes]


def _back_substitute(re: list, im: list | None, pivots: list, ncols: int, rhs_cols: Sequence) -> tuple[list, int]:
    """Fraction-free back-substitution on echelon rows, free variables zero.

    With D the last pivot, y = D x is integral (Cramer's rule on the pivot
    columns), so y_c = (D b - sum_{j > c} e_j y_j) / e_c is an exact quotient.
    Returns (one (re, im | None) plane pair per variable, den > 0): the
    solution for right-hand side rhs_cols[t] is planes[t] / den.
    """
    k = len(rhs_cols)
    solution = [([0] * k, None if im is None else [0] * k)] * ncols
    rows = [(row, None if im is None else im[i]) for i, row in enumerate(re[: len(pivots)])]

    def entry(row: tuple, j: int) -> tuple:
        return row[0][j], 0 if row[1] is None else row[1][j]

    lead = entry(rows[-1], pivots[-1]) if pivots else (1, 0)
    for idx in range(len(pivots) - 1, -1, -1):
        later = pivots[idx + 1 :]
        # one (1 x m)(m x k) product: (D, -e_j, ...) times the stacked b and later y_j
        coef = tuple(None if part is None else [d] + [-part[j] for j in later] for part, d in zip(rows[idx], lead))
        stack = tuple(
            None if part is None else [part[t] for t in rhs_cols] + [x for j in later for x in solution[j][p]]
            for p, part in enumerate(rows[idx])
        )
        y = _plane_matmul(coef, stack, 1, len(later) + 1, k)
        solution[pivots[idx]] = _exact_quotients(*y, entry(rows[idx], pivots[idx]))
    # x = y / D over a positive denominator
    d_re, d_im = lead
    if d_im:
        return [_plane_matmul(([d_re], [-d_im]), y, 1, 1, k) for y in solution], d_re * d_re + d_im * d_im
    if d_re < 0:
        negated = [([-x for x in y_re], None if y_im is None else [-x for x in y_im]) for y_re, y_im in solution]
        return negated, -d_re
    return solution, d_re


def det(m: Matrix) -> Scalar:
    """Exact determinant by fraction-free elimination; each row is scaled by its own denominator."""
    if not m.is_square:
        raise DimensionMismatch("determinant requires a square matrix")
    n = m.nrows
    if n == 0:
        return Fraction(1)
    row_planes = [entries_to_integral(row) for row in m.rows]
    re, im = _system(row_planes)
    pivots, sign = _echelon(re, im, n)
    if len(pivots) < n:
        return Fraction(0)
    value_im = None if im is None else [sign * im[-1][-1]]
    return _scalars([sign * re[-1][-1]], value_im, math.prod(p[2] for p in row_planes))[0]


def rank(m: Matrix) -> int:
    if not m.rows:
        return 0
    re, im = _system([entries_to_integral(row) for row in m.rows])
    return len(_echelon(re, im, m.ncols)[0])


def nullspace(m: Matrix) -> list[tuple]:
    """Exact basis of the right nullspace, one vector per free column.

    Basis vectors are scaled to integral entries with content 1 and the first
    nonzero entry made positive (deterministic output).
    """
    ncols = m.ncols
    re, im = _system([entries_to_integral(row) for row in m.rows])
    pivots, _ = _echelon(re, im, ncols)
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    # the pivot variables solve E x = -(column of the free variable)
    solution, den = _back_substitute(re, im, pivots, ncols, free_cols)
    values = {c: _scalars(*solution[c], den) for c in pivots}
    basis = []
    for t, free in enumerate(free_cols):
        vec: list = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for c in pivots:
            vec[c] = -values[c][t]
        basis.append(normalize_vector(tuple(vec)))
    return basis


def solve(m: Matrix, rhs: Sequence) -> tuple:
    """One exact solution of m x = rhs, or InconsistentSystem."""
    if len(rhs) != m.nrows:
        raise DimensionMismatch("right-hand side length does not match row count")
    solutions = solve_many(m, [list(rhs)])
    return tuple(col[0] for col in solutions)


def solve_many(m: Matrix, rhs_columns: Sequence[Sequence]) -> list[list]:
    """Solve m X = B for several right-hand-side columns at once.

    rhs_columns is a sequence of columns; returns the solution rows (one list
    per variable, entries per column), free variables fixed at zero.
    """
    rows = [entries_to_integral(tuple(row) + tuple(col[i] for col in rhs_columns)) for i, row in enumerate(m.rows)]
    solution, den = solve_integral(rows, m.ncols)
    return [_scalars(*planes, den) for planes in solution]


def solve_integral(row_planes: list, ncols: int) -> tuple[list, int]:
    """Solve M X = B given the integer planes of each augmented row [M | B].

    row_planes holds one (re, im | None, d) per row, as from to_integral or
    combine_integral; d is ignored, since scaling a row leaves X unchanged.
    Columns after ncols are right-hand sides.  Returns (one (re, im | None)
    plane pair per variable, den > 0) with X = planes / den, free variables
    fixed at zero; raises InconsistentSystem.
    """
    re, im = _system(row_planes)
    pivots, _ = _echelon(re, im, ncols)
    for i in range(len(pivots), len(re)):
        if any(re[i][ncols:]) or (im is not None and any(im[i][ncols:])):
            raise InconsistentSystem("no solution for the given right-hand side")
    width = len(re[0]) if re else ncols
    return _back_substitute(re, im, pivots, ncols, range(ncols, width))


def inverse(m: Matrix) -> Matrix:
    """Exact inverse from one elimination of [m | I]; InconsistentSystem when m is singular."""
    if not m.is_square:
        raise DimensionMismatch("inverse requires a square matrix")
    n = m.nrows
    augmented = [row + tuple(int(i == j) for j in range(n)) for i, row in enumerate(m.rows)]
    re, im = _system([entries_to_integral(row) for row in augmented])
    pivots, _ = _echelon(re, im, n)
    if len(pivots) < n:
        raise InconsistentSystem("matrix is singular")
    solution, den = _back_substitute(re, im, pivots, n, range(n, 2 * n))
    return Matrix(tuple(tuple(_scalars(*planes, den)) for planes in solution))


def normalize_vector(v: Sequence) -> tuple:
    """Scale to integral entries, content 1, first nonzero entry positive.

    Gaussian entries use the same rule on (re, im) integer pairs, with
    positivity judged by the real part first.
    """
    if vec_is_zero(v):
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


@dataclass(frozen=True)
class PolyMatrix:
    """A matrix polynomial C_0 + C_1 s + ... + C_m s^m with Matrix coefficients."""

    size: int
    coeff_matrices: tuple

    def __post_init__(self):
        coeffs = list(self.coeff_matrices)
        while coeffs and coeffs[-1].is_zero:
            coeffs.pop()
        object.__setattr__(self, "coeff_matrices", tuple(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeff_matrices) - 1

    def coeff(self, k: int) -> Matrix:
        if 0 <= k < len(self.coeff_matrices):
            return self.coeff_matrices[k]
        return Matrix.zeros(self.size, self.size)

    def entry_poly(self, i: int, j: int) -> Poly:
        return Poly(tuple(c[i, j] for c in self.coeff_matrices))

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        top = max(len(self.coeff_matrices), len(other.coeff_matrices))
        return PolyMatrix(
            self.size, tuple(self.coeff(k) + other.coeff(k) for k in range(top))
        )

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        """Matrix-polynomial product; each output coefficient sums its plane products in one integer accumulator."""
        n = self.size
        if not self.coeff_matrices or not other.coeff_matrices:
            return PolyMatrix(n, ())
        xs = [to_integral(c) for c in self.coeff_matrices]
        ys = [to_integral(c) for c in other.coeff_matrices]
        out = []
        for k in range(len(xs) + len(ys) - 1):
            products = [
                ((1, 0), 1, (*_plane_matmul(xs[i][:2], ys[k - i][:2], n, n, n), xs[i][2] * ys[k - i][2]))
                for i in range(max(0, k - len(ys) + 1), min(k, len(xs) - 1) + 1)
            ]
            out.append(from_integral(*combine_integral(products), n))
        return PolyMatrix(n, tuple(out))

    @property
    def is_zero(self) -> bool:
        return not self.coeff_matrices


def s_identity_minus(a: Matrix) -> PolyMatrix:
    """The pencil sI - A."""
    n = a.nrows
    return PolyMatrix(n, (-a, Matrix.identity(n)))


_QI_TYPES = {Fraction, GaussianRational, int}


def to_integral(m: Matrix) -> tuple[list, list | None, int]:
    """Integer planes of m over one positive common denominator.

    Returns (re, im, d) with m = (re + i*im) / d entrywise; re and im are flat
    row-major lists of ints, and im is None when no entry has an imaginary part.
    """
    return entries_to_integral([x for row in m.rows for x in row])


def entries_to_integral(entries: Sequence) -> tuple[list, list | None, int]:
    """to_integral of a flat sequence of scalars; TypeError for a scalar outside Q(i)."""
    kinds = set(map(type, entries))
    if not kinds <= _QI_TYPES:
        raise TypeError("only rational and Gaussian rational entries have integer planes")
    planes = [entries]
    if GaussianRational in kinds:
        planes = [[x.re if isinstance(x, GaussianRational) else x for x in entries]]
        im = [x.im if isinstance(x, GaussianRational) else 0 for x in entries]
        if any(im):
            planes.append(im)
    ratios = [[x.as_integer_ratio() for x in plane] for plane in planes]
    d = math.lcm(*(q for plane in ratios for _, q in plane))
    planes = [[p * (d // q) for p, q in plane] for plane in ratios]
    return planes[0], planes[1] if len(planes) > 1 else None, d


def _scalars(re: list, im: list | None, d: int) -> list:
    """The scalars (re + i*im) / d: Fractions, or GaussianRationals when some imaginary part is nonzero."""
    if im is None or not any(im):
        return [Fraction(x, d) for x in re]
    return [GaussianRational(Fraction(x, d), Fraction(y, d)) for x, y in zip(re, im)]


def from_integral(re: list, im: list | None, d: int, ncols: int) -> Matrix:
    """The exact matrix (re + i*im) / d from flat row-major integer planes (entries as in _scalars)."""
    entries = _scalars(re, im, d)
    return Matrix(tuple(tuple(entries[k : k + ncols]) for k in range(0, len(entries), ncols)))


def combine_integral(terms: list) -> tuple[list, list | None, int]:
    """sum of g X / k over (g, k, X): g a Gaussian integer (re, im), k a positive int, X planes from to_integral.

    Returns the sum as integer planes over one positive denominator with the
    common content removed, in the layout of to_integral.
    """
    den = math.lcm(*(k * x[2] for _, k, x in terms))
    size = len(terms[0][2][0])
    out_re, out_im = [0] * size, [0] * size
    for (gr, gi), k, (xr, xi, d) in terms:
        scale = den // (k * d)
        gr, gi = gr * scale, gi * scale
        if gr:
            out_re = [u + gr * v for u, v in zip(out_re, xr)]
        if gi:
            out_im = [u + gi * v for u, v in zip(out_im, xr)]
        if xi is not None:
            if gi:
                out_re = [u - gi * v for u, v in zip(out_re, xi)]
            if gr:
                out_im = [u + gr * v for u, v in zip(out_im, xi)]
    content = math.gcd(den, *out_re, *out_im)
    if content > 1:
        den //= content
        out_re = [x // content for x in out_re]
        out_im = [x // content for x in out_im]
    return out_re, out_im if any(out_im) else None, den


def linear_combination(weights: Sequence, matrices: Sequence) -> Matrix:
    """sum_k weights[k] * matrices[k]: one combine_integral over the matrices' planes."""
    try:
        terms = []
        for w, m in zip(weights, matrices):
            (re,), im, d = entries_to_integral([w])
            terms.append(((re, 0 if im is None else im[0]), d, to_integral(m)))
    except TypeError:  # a weight outside Q(i), such as a quadratic surd: field arithmetic
        acc = Matrix.zeros(matrices[0].nrows, matrices[0].ncols)
        for w, m in zip(weights, matrices):
            acc = acc + m * w
        return acc
    return from_integral(*combine_integral(terms), matrices[0].ncols)


def _int_matmul(x: list, y: list, m: int, k: int, n: int) -> list:
    """Row-major (m x k)(k x n) product of flat int lists."""
    rows = [x[i * k : (i + 1) * k] for i in range(m)]
    cols = [y[j::n] for j in range(n)]
    return [sum(map(operator.mul, row, col)) for row in rows for col in cols]


def _plane_matmul(x: tuple, y: tuple, m: int, k: int, n: int) -> tuple:
    """(m x k)(k x n) product of Gaussian-integer matrices given as (re, im) flat planes, im None when zero."""
    (xr, xi), (yr, yi) = x, y
    re = _int_matmul(xr, yr, m, k, n)
    if xi is not None and yi is not None:
        re = [u - v for u, v in zip(re, _int_matmul(xi, yi, m, k, n))]
    im = None
    for u, v in ((xr, yi), (xi, yr)):
        if u is not None and v is not None:
            p = _int_matmul(u, v, m, k, n)
            im = p if im is None else [s + t for s, t in zip(im, p)]
    return re, im


def _exact_quotient(x: int, k: int) -> int:
    q, r = divmod(x, k)
    if r:
        raise SelfCheckFailed("charpoly", f"faddeev_leverrier trace {x} is not divisible by {k}")
    return q


def faddeev_leverrier(a: Matrix) -> tuple[Poly, PolyMatrix]:
    """Characteristic polynomial det(sI - A) and adjugate adj(sI - A) together.

    Iterates B_1 = I, c_{n-k} = -tr(A B_k)/k, B_{k+1} = A B_k + c_{n-k} I.
    Then adj(sI - A) = sum_k B_k s^{n-k}, and A B_n + c_0 I = 0 serves as a
    built-in consistency check.

    The sweep runs on N = dA, d the common denominator of A, in Python ints
    (one more plane for Gaussian entries): on an integer matrix every trace
    division by k is exact.  Unscaling gives c_{n-k}(A) = c_{n-k}(N) / d^k and
    B_k(A) = B_k(N) / d^{k-1}.
    """
    if not a.is_square:
        raise DimensionMismatch("faddeev_leverrier requires a square matrix")
    n = a.nrows
    if n > SIZE_LIMIT:
        raise MatrixTooLarge(
            f"matrix size {n} exceeds the supported limit of {SIZE_LIMIT}"
        )
    if n == 0:
        return Poly.constant(Fraction(1)), PolyMatrix(0, ())
    re, im, d = to_integral(a)
    scaled = (re, im)
    diagonal = range(0, n * n, n + 1)
    b = ([int(k in diagonal) for k in range(n * n)], None)
    adj_coeffs = [from_integral(*b, 1, n)]  # B_k for s^{n-k}, collected high power first
    coeffs: list = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    for k in range(1, n + 1):
        b = _plane_matmul(scaled, b, n, n, n)  # N B_k, then + c I: B_{k+1}
        c_re, c_im = (0 if p is None else _exact_quotient(-sum(p[t] for t in diagonal), k) for p in b)
        for p, c in zip(b, (c_re, c_im)):
            if p is not None:
                for t in diagonal:
                    p[t] += c
        scale = d**k
        coeffs[n - k] = (
            GaussianRational(Fraction(c_re, scale), Fraction(c_im, scale)) if c_im else Fraction(c_re, scale)
        )
        if k < n:
            adj_coeffs.append(from_integral(*b, scale, n))
        elif any(b[0]) or (b[1] is not None and any(b[1])):
            raise SelfCheckFailed("charpoly", "faddeev_leverrier self-check A B_n + c_0 I = 0 failed")
    charpoly = Poly(tuple(coeffs))
    adjugate = PolyMatrix(n, tuple(reversed(adj_coeffs)))
    return charpoly, adjugate
