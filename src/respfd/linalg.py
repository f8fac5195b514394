"""Exact dense matrix arithmetic and fraction-free elimination.

A Matrix stores its entries, all in Q or Q(i), as canonical integer planes in
the layout of FLINT's fmpq_mat: re, flat row-major Python-int numerators; im,
the imaginary numerators, present only when some entry is non-real; one
positive denominator d with gcd(d, re, im) = 1.  Equal matrices have equal
planes, and every operation runs on Python ints:

  arithmetic    +, -, negation and scalar * (a Q or Q(i) scalar) are one
                combine_integral; ==, hash and is_zero compare the planes.
  products      flat_matmul, on flat row-major lists, is the one product loop.
                Matrix @ and mat_vec are one integer product over d_x d_y.
  elimination   det, rank, nullspace, solve_many and inverse divide each row
                slice of the planes by its content and run Bareiss'
                fraction-free elimination over Z or Z[i], every division a
                checked exact quotient; back-substitution is fraction-free
                too (y = D x, D the last pivot).
  adjugate      faddeev_leverrier yields the characteristic polynomial and
                adj(sI - A) in one O(n^4) sweep, self-checked by A B_n + c_0 I = 0.

Fraction and GaussianRational entries exist only at the boundary: a Matrix is
built from rows of them; rows, m[i, j], row and column build them from the
planes on each call, as Fractions when every entry returned is real.  An entry
outside Q(i) raises TypeError.  Vectors are plain tuples of scalars.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from fractions import Fraction

from .errors import DimensionMismatch, InconsistentSystem, MatrixTooLarge, SelfCheckFailed
from .polynomials import Poly
from .record import Record
from .scalars import GaussianRational, Scalar

# Exact adjugate/pfd cost grows fast with n; refuse clearly past this size.
SIZE_LIMIT = 12


class Matrix:
    """Immutable exact matrix over Q or Q(i), stored as canonical integer planes (re, im, d)."""

    __slots__ = ("nrows", "ncols", "re", "im", "d")

    def __init__(self, rows: Sequence[Sequence]):
        rows = tuple(tuple(row) for row in rows)
        ncols = len(rows[0]) if rows else 0
        if any(len(row) != ncols for row in rows):
            raise DimensionMismatch("rows of differing length")
        re, im, d = entries_to_integral([x for row in rows for x in row])
        self._set(len(rows), ncols, re, im, d)

    def _set(self, nrows: int, ncols: int, re: Sequence, im: Sequence | None, d: int) -> None:
        planes = (tuple(re), None if im is None else tuple(im))
        for name, value in zip(self.__slots__, (nrows, ncols, *planes, d)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    def __reduce__(self):
        return from_integral, (self.re, self.im, self.d, self.nrows, self.ncols)

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "Matrix":
        return Matrix(rows)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return from_integral([int(i == j) for i in range(n) for j in range(n)], None, 1, n, n)

    @staticmethod
    def zeros(nrows: int, ncols: int) -> "Matrix":
        return from_integral([0] * (nrows * ncols), None, 1, nrows, ncols)

    @property
    def rows(self) -> tuple:
        """The entries as row tuples of Fractions, or of GaussianRationals when some entry is non-real."""
        entries, n = self._entries(slice(None)), self.ncols
        return tuple(entries[i * n : (i + 1) * n] for i in range(self.nrows))

    def _entries(self, part: slice) -> tuple:
        """The entries at the row-major positions `part` of the planes: Fractions when all of them are real."""
        return tuple(_scalars(self.re[part], self.im and self.im[part], self.d))

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __getitem__(self, key: tuple[int, int]) -> Scalar:
        k = range(self.nrows)[key[0]] * self.ncols + range(self.ncols)[key[1]]
        return self._entries(slice(k, k + 1))[0]

    def row(self, i: int) -> tuple:
        i = range(self.nrows)[i]
        return self._entries(slice(i * self.ncols, (i + 1) * self.ncols))

    def column(self, j: int) -> tuple:
        return self._entries(slice(range(self.ncols)[j], None, self.ncols))

    def _key(self) -> tuple:
        return self.nrows, self.ncols, self.d, self.re, self.im

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"Matrix({self.rows!r})"

    def __add__(self, other: "Matrix") -> "Matrix":
        return linear_combination((1, 1), (self, other))

    def __sub__(self, other: "Matrix") -> "Matrix":
        return linear_combination((1, -1), (self, other))

    def __neg__(self) -> "Matrix":
        return linear_combination((-1,), (self,))

    def __mul__(self, other):
        """Scalar product with a Q or Q(i) scalar; use @ for matrix products."""
        if isinstance(other, Matrix):
            return NotImplemented
        return linear_combination((other,), (self,))

    __rmul__ = __mul__

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """One integer product of the operands' planes, over d_x d_y."""
        if self.ncols != other.nrows:
            raise DimensionMismatch(f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}")
        product = _plane_matmul((self.re, self.im), (other.re, other.im), self.nrows, self.ncols, other.ncols)
        return from_integral(*product, self.d * other.d, self.nrows, other.ncols)

    def transpose(self) -> "Matrix":
        return Matrix(zip(*self.rows))

    @property
    def T(self) -> "Matrix":
        return self.transpose()

    @property
    def is_zero(self) -> bool:
        return self.im is None and not any(self.re)

    def is_rational_matrix(self) -> bool:
        return self.im is None

    def __str__(self) -> str:
        return "[" + ", ".join("[" + ", ".join(str(x) for x in row) + "]" for row in self.rows) + "]"


def mat_vec(m: Matrix, v: Sequence) -> tuple:
    if m.ncols != len(v):
        raise DimensionMismatch(f"cannot apply {m.nrows}x{m.ncols} to length-{len(v)} vector")
    yr, yi, dy = entries_to_integral(v)
    return tuple(_scalars(*_plane_matmul((m.re, m.im), (yr, yi), m.nrows, m.ncols, 1), m.d * dy))


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


def _system(row_planes: list) -> tuple[list, list | None, int]:
    """Fresh integer rows (re, im or None for a real system) from per-row planes (re, im | None, ...).

    Each row is divided by its content; also returns the product of those contents.
    """
    gaussian = any(p[1] is not None for p in row_planes)
    rows, scale = [], 1
    for p in row_planes:
        planes = (p[0], p[1] or [0] * len(p[0])) if gaussian else (p[0],)
        content = math.gcd(*planes[0], *(planes[1] if gaussian else ())) or 1
        scale *= content
        rows.append([[x // content for x in plane] for plane in planes])
    return [r[0] for r in rows], [r[1] for r in rows] if gaussian else None, scale


def _row_planes(m: Matrix) -> list:
    """The rows of m as (re, im | None, d) slices of its planes."""
    c, im = m.ncols, m.im
    return [(m.re[i * c : (i + 1) * c], im and im[i * c : (i + 1) * c], m.d) for i in range(m.nrows)]


def _augmented(m: Matrix, r: Matrix) -> list:
    """Per-row planes of [m | r]."""
    return [join_integral(x, y) for x, y in zip(_row_planes(m), _row_planes(r))]


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
    """Exact determinant by fraction-free elimination: det(m) = det(N) / d^n for the integer plane N = d m."""
    if not m.is_square:
        raise DimensionMismatch("determinant requires a square matrix")
    n = m.nrows
    if n == 0:
        return Fraction(1)
    re, im, scale = _system(_row_planes(m))
    pivots, sign = _echelon(re, im, n)
    if len(pivots) < n:
        return Fraction(0)
    value_im = None if im is None else [sign * scale * im[-1][-1]]
    return _scalars([sign * scale * re[-1][-1]], value_im, m.d**n)[0]


def rank(m: Matrix) -> int:
    re, im, _ = _system(_row_planes(m))
    return len(_echelon(re, im, m.ncols)[0])


def nullspace(m: Matrix) -> list[tuple]:
    """Exact basis of the right nullspace, one vector per free column.

    Basis vectors are scaled to integral entries with content 1 and the first
    nonzero entry made positive (deterministic output).
    """
    ncols = m.ncols
    re, im, _ = _system(_row_planes(m))
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
    return tuple(col[0] for col in solve_many(m, [list(rhs)]))


def solve_many(m: Matrix, rhs_columns: Sequence[Sequence]) -> list[list]:
    """Solve m X = B for several right-hand-side columns at once.

    rhs_columns is a sequence of columns; returns the solution rows (one list
    per variable, entries per column), free variables fixed at zero.
    """
    if any(len(col) != m.nrows for col in rhs_columns):
        raise DimensionMismatch("right-hand side length does not match row count")
    solution, den = solve_integral(_augmented(m, Matrix(zip(*rhs_columns))), m.ncols)
    return [_scalars(*planes, den) for planes in solution]


def solve_integral(row_planes: list, ncols: int) -> tuple[list, int]:
    """Solve M X = B given the integer planes of each augmented row [M | B].

    row_planes holds one (re, im | None, ...) per row, as from combine_integral
    or join_integral; a denominator is ignored, since scaling a row leaves X
    unchanged.
    Columns after ncols are right-hand sides.  Returns (one (re, im | None)
    plane pair per variable, den > 0) with X = planes / den, free variables
    fixed at zero; raises InconsistentSystem.
    """
    re, im, _ = _system(row_planes)
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
    re, im, _ = _system(_augmented(m, Matrix.identity(n)))
    pivots, _ = _echelon(re, im, n)
    if len(pivots) < n:
        raise InconsistentSystem("matrix is singular")
    solution, den = _back_substitute(re, im, pivots, n, range(n, 2 * n))
    solved = [[x for planes in solution for x in planes[p] or ()] for p in (0, 1)]
    return from_integral(*solved, den, n, n)


def normalize_vector(v: Sequence) -> tuple:
    """Scale to integral entries, content 1, first nonzero entry positive.

    Gaussian entries use the same rule on (re, im) integer pairs, with
    positivity judged by the real part first; a vector with a Gaussian entry
    stays Gaussian.
    """
    re, im, _ = entries_to_integral(v)
    pairs = list(zip(re, im or [0] * len(re)))
    lead = next((p for p in pairs if p != (0, 0)), None)
    if lead is None:
        return tuple(Fraction(0) for _ in v)
    scale = math.gcd(*re, *(im or ())) * (-1 if lead < (0, 0) else 1)
    if any(isinstance(x, GaussianRational) for x in v):
        return tuple(GaussianRational(x // scale, y // scale) for x, y in pairs)
    return tuple(Fraction(x // scale) for x in re)


class PolyMatrix(Record):
    """A matrix polynomial C_0 + C_1 s + ... + C_m s^m with Matrix coefficients.

    A container for adj(sI - A) with no arithmetic: callers read its
    coefficients through coeff, which is zero below 0 and above the degree.
    """

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


_QI_TYPES = {Fraction, GaussianRational, int, bool}


def entries_to_integral(entries: Sequence) -> tuple[list, list | None, int]:
    """Integer planes (re, im | None, d) of a flat sequence of scalars, d their lcm denominator.

    Raises TypeError for a scalar outside Q(i).
    """
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


def _canonical(re: Sequence, im: Sequence | None, d: int) -> tuple:
    """The canonical planes of (re + i*im) / d, d > 0: an all-zero im becomes None, gcd(d, re, im) is divided out."""
    if im is not None and not any(im):
        im = None
    content = math.gcd(d, *re, *(im or ()))
    if content > 1:
        return [x // content for x in re], None if im is None else [x // content for x in im], d // content
    return re, im, d


def from_integral(re: Sequence, im: Sequence | None, d: int, nrows: int, ncols: int) -> Matrix:
    """The nrows x ncols matrix (re + i*im) / d from flat row-major integer planes, d > 0."""
    m = Matrix.__new__(Matrix)
    m._set(nrows, ncols, *_canonical(re, im, d))
    return m


def join_integral(x: tuple, y: tuple) -> tuple[list, list | None, int]:
    """The entries of planes x = (re, im | None, d) followed by those of y, over one denominator."""
    (xr, xi, dx), (yr, yi, dy) = x, y
    d = math.lcm(dx, dy)
    sx, sy = d // dx, d // dy
    re = [v * sx for v in xr] + [v * sy for v in yr]
    if xi is None and yi is None:
        return re, None, d
    return re, [v * sx for v in xi or [0] * len(xr)] + [v * sy for v in yi or [0] * len(yr)], d


def combine_integral(terms: list) -> tuple[list, list | None, int]:
    """sum of g X / k over (g, k, X): g a Gaussian integer (re, im), k a positive int, X planes (re, im | None, d).

    Returns the sum as canonical planes (re, im | None, d), the layout of a Matrix.
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
    return _canonical(out_re, out_im, den)


def linear_combination(weights: Sequence, matrices: Sequence) -> Matrix:
    """sum_k weights[k] * matrices[k] for Q or Q(i) weights: one combine_integral over the matrices' planes."""
    first = matrices[0]
    for m in matrices:
        if (m.nrows, m.ncols) != (first.nrows, first.ncols):
            raise DimensionMismatch(f"cannot add {first.nrows}x{first.ncols} and {m.nrows}x{m.ncols}")
    re, im, d = entries_to_integral(weights)
    terms = [((x, y), d, (m.re, m.im, m.d)) for x, y, m in zip(re, im or [0] * len(re), matrices)]
    return from_integral(*combine_integral(terms), first.nrows, first.ncols)


def flat_matmul(x: list, y: list, m: int, k: int, n: int) -> list:
    """Row-major (m x k)(k x n) product of flat row-major lists of ints, floats or complex numbers."""
    rows = [x[i * k : (i + 1) * k] for i in range(m)]
    cols = [y[j::n] for j in range(n)]
    return [sum(map(operator.mul, row, col)) for row in rows for col in cols]


def _plane_matmul(x: tuple, y: tuple, m: int, k: int, n: int) -> tuple:
    """(m x k)(k x n) product of Gaussian-integer matrices given as (re, im) flat planes, im None when zero."""
    (xr, xi), (yr, yi) = x, y
    re = flat_matmul(xr, yr, m, k, n)
    if xi is not None and yi is not None:
        re = [u - v for u, v in zip(re, flat_matmul(xi, yi, m, k, n))]
    im = None
    for u, v in ((xr, yi), (xi, yr)):
        if u is not None and v is not None:
            p = flat_matmul(u, v, m, k, n)
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
    B_k(A) = B_k(N) / d^{k-1}.  N B_1 = N, so the sweep takes n - 1 products.
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
    scaled = (a.re, a.im)
    diagonal = range(0, n * n, n + 1)
    b = ([int(k in diagonal) for k in range(n * n)], None)
    adj_coeffs = [from_integral(*b, 1, n, n)]  # B_k for s^{n-k}, collected high power first
    coeffs: list = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    for k in range(1, n + 1):
        # N B_k, then + c I: B_{k+1}; B_1 = I, so N B_1 is a copy of N's planes
        b = _plane_matmul(scaled, b, n, n, n) if k > 1 else tuple(None if p is None else list(p) for p in scaled)
        c_re, c_im = (0 if p is None else _exact_quotient(-sum(p[t] for t in diagonal), k) for p in b)
        for p, c in zip(b, (c_re, c_im)):
            if p is not None:
                for t in diagonal:
                    p[t] += c
        scale = a.d**k
        coeffs[n - k] = (
            GaussianRational(Fraction(c_re, scale), Fraction(c_im, scale)) if c_im else Fraction(c_re, scale)
        )
        if k < n:
            adj_coeffs.append(from_integral(*b, scale, n, n))
        elif any(b[0]) or (b[1] is not None and any(b[1])):
            raise SelfCheckFailed("charpoly", "faddeev_leverrier self-check A B_n + c_0 I = 0 failed")
    charpoly = Poly(tuple(coeffs))
    adjugate = PolyMatrix(n, tuple(reversed(adj_coeffs)))
    return charpoly, adjugate
