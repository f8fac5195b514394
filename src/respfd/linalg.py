"""Exact dense matrix arithmetic and fraction-free elimination.

Matrices are immutable, stored row-major as nested tuples of exact scalars
(Fraction or GaussianRational; anything with exact field operators works).
Vectors are plain tuples.

Elimination uses Bareiss' fraction-free scheme: rational rows are scaled to a
common integer denominator first, so intermediate entries are minors of an
integer (or Gaussian-integer) matrix and stay small.  One echelon pass backs
the determinant, rank, nullspace, and linear solves.

The integer kernel: to_integral splits a matrix into integer numerator
planes (real, plus imaginary when some entry is non-real) over one
positive denominator, the layout of FLINT's fmpq_mat; from_integral maps
back, and combine_integral forms Gaussian-integer linear combinations of
such planes.  faddeev_leverrier runs entirely on those Python-int planes, producing
the characteristic polynomial and the full adjugate polynomial adj(sI - A)
in a single O(n^4) sweep with the built-in self-check A*B_n + c_0*I = 0.
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


def _coerce_entry(x) -> Scalar:
    return Fraction(x) if isinstance(x, int) else x


@dataclass(frozen=True)
class Matrix:
    """Immutable exact matrix; entries row-major as a tuple of row tuples."""

    rows: tuple

    def __post_init__(self):
        rows = tuple(tuple(_coerce_entry(x) for x in row) for row in self.rows)
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
        if self.ncols != other.nrows:
            raise DimensionMismatch(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        cols = tuple(other.column(j) for j in range(other.ncols))
        return Matrix(
            tuple(
                tuple(_dot(row, col) for col in cols)
                for row in self.rows
            )
        )

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


def _dot(u: Sequence, v: Sequence) -> Scalar:
    acc = Fraction(0)
    for a, b in zip(u, v):
        if a and b:
            acc = acc + a * b
    return acc


def mat_vec(m: Matrix, v: Sequence) -> tuple:
    if m.ncols != len(v):
        raise DimensionMismatch(f"cannot apply {m.nrows}x{m.ncols} to length-{len(v)} vector")
    return tuple(_dot(row, v) for row in m.rows)


def vec_is_zero(v: Sequence) -> bool:
    return all(not x for x in v)


def _row_to_integral(row: Sequence) -> list:
    """Scale a row of Fractions/Gaussians to integral entries (growth control)."""
    common = 1
    for x in row:
        if isinstance(x, Fraction):
            d = x.denominator
        elif isinstance(x, GaussianRational):
            d = x.re.denominator * x.im.denominator // math.gcd(
                x.re.denominator, x.im.denominator
            )
        else:
            return list(row)  # exotic scalars: skip scaling, stay in the field
        common = common * d // math.gcd(common, d)
    if common == 1:
        return list(row)
    return [x * common for x in row]


def _echelon(rows: list[list], ncols_main: int) -> tuple[list[list], list[int], int]:
    """Bareiss fraction-free forward elimination over the main columns.

    Trailing columns beyond ncols_main ride along (augmented systems).
    Returns (rows, pivot column indices, sign of the row permutation).
    Pivoting picks the first row with a nonzero entry, so results are
    deterministic.
    """
    nrows = len(rows)
    width = len(rows[0]) if rows else 0
    pivots: list[int] = []
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


def det(m: Matrix) -> Scalar:
    """Exact determinant by fraction-free elimination."""
    if not m.is_square:
        raise DimensionMismatch("determinant requires a square matrix")
    n = m.nrows
    if n == 0:
        return Fraction(1)
    scale = Fraction(1)
    rows = []
    for row in m.rows:
        scaled = _row_to_integral(row)
        # recover the scaling factor exactly from any nonzero entry
        scale = scale * _scaling_factor(row, scaled)
        rows.append(scaled)
    rows, pivots, sign = _echelon(rows, n)
    if len(pivots) < n:
        return Fraction(0)
    value = rows[n - 1][n - 1]
    return sign * value / scale


def _scaling_factor(original: Sequence, scaled: Sequence) -> Fraction:
    for a, b in zip(original, scaled):
        if a:
            ratio = b / a
            return as_fraction(ratio) if not isinstance(ratio, Fraction) else ratio
    return Fraction(1)


def rank(m: Matrix) -> int:
    rows = [_row_to_integral(row) for row in m.rows]
    if not rows:
        return 0
    _, pivots, _ = _echelon(rows, m.ncols)
    return len(pivots)


def nullspace(m: Matrix) -> list[tuple]:
    """Exact basis of the right nullspace, one vector per free column.

    Basis vectors are scaled to integral entries with content 1 and the first
    nonzero entry made positive (deterministic output).
    """
    ncols = m.ncols
    rows = [_row_to_integral(row) for row in m.rows]
    rows, pivots, _ = _echelon(rows, ncols)
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for free in free_cols:
        vec: list = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        # back-substitute pivot variables, bottom up
        for k in range(len(pivots) - 1, -1, -1):
            c = pivots[k]
            row = rows[k]
            acc = Fraction(0)
            for j in range(c + 1, ncols):
                if row[j] and vec[j]:
                    acc = acc + row[j] * vec[j]
            vec[c] = -acc / row[c]
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
    nrows, ncols = m.nrows, m.ncols
    k = len(rhs_columns)
    aug = []
    for i in range(nrows):
        row = list(m.rows[i]) + [col[i] for col in rhs_columns]
        aug.append(_row_to_integral(row))
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
    if not m.is_square:
        raise DimensionMismatch("inverse requires a square matrix")
    n = m.nrows
    if rank(m) < n:
        raise InconsistentSystem("matrix is singular")
    eye = Matrix.identity(n)
    cols = [list(eye.column(j)) for j in range(n)]
    sol = solve_many(m, cols)
    return Matrix(tuple(tuple(sol[i][j] for j in range(n)) for i in range(n)))


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

    def eval_at(self, s0: Scalar) -> Matrix:
        """Entrywise Horner evaluation; an entry that is still zero takes no product."""
        out = Matrix.zeros(self.size, self.size).rows
        for c in reversed(self.coeff_matrices):
            out = tuple(tuple(x * s0 + y if x else y for x, y in zip(r, rc)) for r, rc in zip(out, c.rows))
        return Matrix(out)

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        top = max(len(self.coeff_matrices), len(other.coeff_matrices))
        return PolyMatrix(
            self.size, tuple(self.coeff(k) + other.coeff(k) for k in range(top))
        )

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if not self.coeff_matrices or not other.coeff_matrices:
            return PolyMatrix(self.size, ())
        out = [Matrix.zeros(self.size, self.size)] * (self.degree + other.degree + 1)
        for i, a in enumerate(self.coeff_matrices):
            if a.is_zero:
                continue
            for j, b in enumerate(other.coeff_matrices):
                out[i + j] = out[i + j] + (a @ b)
        return PolyMatrix(self.size, tuple(out))

    @property
    def is_zero(self) -> bool:
        return not self.coeff_matrices


def s_identity_minus(a: Matrix) -> PolyMatrix:
    """The pencil sI - A."""
    n = a.nrows
    return PolyMatrix(n, (-a, Matrix.identity(n)))


def to_integral(m: Matrix) -> tuple[list, list | None, int]:
    """Integer planes of m over one positive common denominator.

    Returns (re, im, d) with m = (re + i*im) / d entrywise; re and im are flat
    row-major lists of ints, and im is None when no entry has an imaginary part.
    """
    entries = [x for row in m.rows for x in row]
    planes = [[x.re if isinstance(x, GaussianRational) else x for x in entries]]
    if any(isinstance(x, GaussianRational) and x.im for x in entries):
        planes.append([x.im if isinstance(x, GaussianRational) else 0 for x in entries])
    d = math.lcm(*(x.denominator for plane in planes for x in plane))
    planes = [[x.numerator * (d // x.denominator) for x in plane] for plane in planes]
    return planes[0], planes[1] if len(planes) > 1 else None, d


def from_integral(re: list, im: list | None, d: int, ncols: int) -> Matrix:
    """The exact matrix (re + i*im) / d from flat row-major integer planes.

    Entries are Fractions, or GaussianRationals when some imaginary part is nonzero.
    """
    if im is None or not any(im):
        entries = [Fraction(x, d) for x in re]
    else:
        entries = [GaussianRational(Fraction(x, d), Fraction(y, d)) for x, y in zip(re, im)]
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


def _int_matmul(x: list, y: list, n: int) -> list:
    rows = [x[k : k + n] for k in range(0, n * n, n)]
    cols = [y[j::n] for j in range(n)]
    return [sum(map(operator.mul, row, col)) for row in rows for col in cols]


def _plane_matmul(x: tuple, y: tuple, n: int) -> tuple:
    """Product of n x n Gaussian-integer matrices given as (re, im) flat planes, im None when zero."""
    (xr, xi), (yr, yi) = x, y
    re = _int_matmul(xr, yr, n)
    if xi is not None and yi is not None:
        re = [u - v for u, v in zip(re, _int_matmul(xi, yi, n))]
    im = None
    for u, v in ((xr, yi), (xi, yr)):
        if u is not None and v is not None:
            p = _int_matmul(u, v, n)
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
        b = _plane_matmul(scaled, b, n)  # N B_k, then + c I: B_{k+1}
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
