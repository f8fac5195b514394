"""Partial-fraction decomposition of the resolvent (sI - A)^{-1}.

Two independent algorithms compute the same family of matrix coefficients
B_ij with

    (sI - A)^{-1} = sum_i sum_{j=1..r_i} B_ij / (s - lambda_i)^j

and are cross-checked against each other (the test suite, `respfd verify`):

  pfd_residue       -- local Taylor expansion of adj(sI-A)/q_i(s) around each
                       eigenvalue: only the r_i Taylor coefficient matrices
                       it uses, formed as integer linear combinations of the
                       adjugate's numerator planes, then one truncated series
                       division on whole matrices,
  pfd_undetermined  -- undetermined matrix coefficients: at n integer sample
                       points s0, the basis values 1/(s0 - lambda_i)^j and the
                       monomials s0^k / charpoly(s0) form integer rows of one
                       scalar system, solved by fraction-free elimination for
                       the partial fractions of s^k / det(sI - A); one
                       product with the adjugate's coefficient matrices then
                       gives every B_ij.

Real mode keeps everything rational: each irreducible quadratic factor
(s+a)^2 + d contributes a term ((s+a) P + Q) / ((s+a)^2 + d), where Q folds
the sqrt(d) scale so that P and Q are rational matrices.  pfd_real is the
same solve, _solve_undetermined, with the two more basis values (s0+a)/quad
and 1/quad per quadratic factor.  _basis_at gives the basis values at one
point, for the solve and for reconstruct_resolvent; no basis polynomial is built.
Both algorithms read charpoly as numerators over one denominator, `factored.integral`.

Each algorithm returns one ResolventPFD: `mode`, `linear` (EigenvalueTerm,
...) and `quadratic` (QuadraticTerm, ..., empty in complex mode).

verify_pfd and verify_real_pfd recompute the structural identities of the
decomposition (projectors, chain recurrences, annihilation, reconstruction)
from scratch and report them individually.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import EvalAtPole, SelfCheckFailed, SingularSeriesDivision
from .linalg import (
    Matrix,
    PolyMatrix,
    combine_integral,
    entries_to_integral,
    from_integral,
    join_integral,
    linear_combination,
    rank,
    solve_integral,
)
from .polynomials import FactoredCharPoly
from .record import Record
from .scalars import Scalar, scalar_im, scalar_key, scalar_re


class EigenvalueTerm(Record):
    """All coefficients attached to one eigenvalue: B_1 .. B_r."""

    eigenvalue: Scalar
    multiplicity: int
    coefficients: tuple  # Matrix, index j-1

    def coefficient(self, j: int) -> Matrix:
        """B_j for 1 <= j <= multiplicity."""
        return self.coefficients[j - 1]


class QuadraticTerm(Record):
    """Term ((s+a) P + Q) / ((s+a)^2 + d) for one irreducible quadratic."""

    a: Fraction
    d: Fraction
    p_matrix: Matrix
    q_matrix: Matrix


class ResolventPFD(Record):
    """Complete decomposition in one mode, eigenvalues sorted by (re, im).

    `mode` is the factorization's mode, "complex" or "real"; real mode keeps
    only rational eigenvalues in `linear` and adds the (P, Q) pairs.
    """

    matrix: Matrix
    mode: str
    linear: tuple  # EigenvalueTerm, ...
    quadratic: tuple = ()  # QuadraticTerm, ..., real mode only

    @property
    def size(self) -> int:
        return self.matrix.nrows


def pfd_residue(factored: FactoredCharPoly, adjugate: PolyMatrix, matrix: Matrix) -> ResolventPFD:
    """Decomposition via local series expansion around each eigenvalue.

    For eigenvalue lambda of multiplicity r, the resolvent near lambda is
    g(s) / (s-lambda)^r with g = adj(sI-A) / (charpoly/(s-lambda)^r); the
    Taylor coefficients a_0..a_{r-1} of g around lambda give B_j = a_{r-j}.
    """
    if factored.mode != "complex":
        raise ValueError("pfd_residue requires a complex-mode factorization")
    n = adjugate.size
    coeffs, h_den = factored.integral
    charpoly = [(c, 0) for c in coeffs]
    numerators = [(c.re, c.im, c.d) for c in adjugate.coeff_matrices]
    terms = []
    for eigenvalue, mult in factored.linear:
        series = _residue_series(charpoly, h_den, numerators, eigenvalue, mult)
        coefficients = tuple(from_integral(*series[mult - j], n, n) for j in range(1, mult + 1))
        terms.append(EigenvalueTerm(eigenvalue, mult, coefficients))
    return ResolventPFD(matrix, factored.mode, tuple(terms))


def _residue_series(charpoly: list, h_den: int, numerators: list, eigenvalue, mult: int) -> list:
    """Taylor coefficients a_0..a_{r-1} of adj(sI-A)/q(s) at lambda, q = charpoly/(s-lambda)^r.

    Everything is Gaussian-integer arithmetic: with lambda = P/e, the weights
    w_jm = C(m,j) P^(m-j) e^(n-m) give [s^j] charpoly(s+lambda) = sum_m w_jm h_m
    / (h_den e^(n-j)), which must vanish for j < r; its coefficients r..2r-1 are
    the Taylor coefficients e_0..e_{r-1} of q.  With C_m = N_m / d_m (integer
    planes a Matrix stores), only the r adjugate Taylor matrices
    T_k = sum_m w_km N_m / (d_m e^(n-k)) are formed, and the series division
    a_k = (T_k - sum_t e_t a_{k-t}) / e_0 runs on whole matrices.
    Returns each a_k as integer planes (re, im | None, d).
    """
    n = len(charpoly) - 1
    re, im = scalar_re(eigenvalue), scalar_im(eigenvalue)
    e = math.lcm(re.denominator, im.denominator)
    point = ((re * e).numerator, (im * e).numerator)
    powers = [(1, 0)]
    for _ in range(n):
        powers.append(_gmul(powers[-1], point))
    weights = [
        [_gscale(powers[m - j], math.comb(m, j) * e ** (n - m)) for m in range(j, n + 1)]
        for j in range(2 * mult)
    ]
    taylor = [_gsum(_gmul(w, h) for w, h in zip(row, charpoly[j:])) for j, row in enumerate(weights)]
    if any(x or y for x, y in taylor[:mult]):
        raise SelfCheckFailed("pfd", "eigenvalue does not divide the characteristic polynomial")
    # e_k = taylor[k + r] / (h_den e^(n-k-r)), so with E = taylor[r]: 1/e_0 = h_den e^(n-r) conj(E) / |E|^2
    lead = taylor[mult]
    norm = lead[0] ** 2 + lead[1] ** 2
    if not norm:
        raise SingularSeriesDivision(f"eigenvalue {eigenvalue} has multiplicity above {mult}")
    inverse = _gscale((lead[0], -lead[1]), h_den * e ** (n - mult))
    series = []
    for k in range(mult):
        combination = [(_gmul(w, inverse), e ** (n - k) * norm, c) for w, c in zip(weights[k], numerators[k:])]
        for t in range(1, k + 1):
            if t + mult <= n:  # taylor[t + mult] vanishes beyond the degree
                coefficient = _gmul(_gscale(taylor[t + mult], -1), inverse)
                combination.append((coefficient, h_den * e ** (n - t - mult) * norm, series[k - t]))
        series.append(combine_integral(combination))
    return series


def _gmul(x: tuple, y: tuple) -> tuple:
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _gscale(x: tuple, k: int) -> tuple:
    return x[0] * k, x[1] * k


def _gsum(values) -> tuple:
    re = im = 0
    for x, y in values:
        re, im = re + x, im + y
    return re, im


def sample_points(count: int, eigenvalues, n: int) -> list:
    """Deterministic rational sample points s = n+1, n+2, ... skipping eigenvalues."""
    taken = []
    forbidden = {scalar_key(root) for root in eigenvalues}
    value = Fraction(n + 1)
    while len(taken) < count:
        if (value, Fraction(0)) not in forbidden:
            taken.append(value)
        value += 1
    return taken


def _basis_at(linear, quadratic, s0: Scalar) -> list:
    """The decomposition's basis values at s0, in solve order.

    1/(s0 - lambda)^j for j = 1..r per (lambda, r) in linear, then
    (s0+a)/quad(s0) and 1/quad(s0) per (a, d) in quadratic, quad = (s+a)^2 + d.
    Raises EvalAtPole when s0 is an eigenvalue or a root of a quadratic factor.
    """
    values = []
    for eigenvalue, mult in linear:
        delta = s0 - eigenvalue
        if not delta:
            raise EvalAtPole(f"{s0} is an eigenvalue of the matrix")
        power = inv = 1 / delta
        for _ in range(mult):
            values.append(power)
            power = power * inv
    for a, d in quadratic:
        shifted = s0 + a
        denom = shifted * shifted + d
        if not denom:
            raise EvalAtPole(f"{s0} is a root of a quadratic factor")
        values += [shifted / denom, 1 / denom]
    return values


def _solve_undetermined(factored: FactoredCharPoly, adjugate: PolyMatrix) -> list:
    """The matrices X_k of adj(sI-A) = charpoly(s) sum_k X_k basis_k(s), in solve order.

    With adj(sI-A) = sum_i C_i s^i, the scalar partial fractions
    s^i / charpoly(s) = sum_k T[k, i] basis_k(s) give X_k = sum_i T[k, i] C_i.
    One integer sample point s0 per unknown gives the row
    [_basis_at(s0) | s0^i / charpoly(s0)] of the scalar system, charpoly(s0) an
    integer Horner pass over `factored.integral`; solve_integral eliminates
    those m x (m + n) rows for T, and one Matrix product of T with the adjugate's
    coefficient planes, stacked over one denominator, gives every X_k.
    """
    n, coefficients = adjugate.size, adjugate.coeff_matrices
    numerators, h = factored.integral
    rows = []
    for s0 in sample_points(factored.degree, factored.eigenvalues(), n):
        value = 0  # h charpoly(s0), nonzero; every sample point is an integer
        for c in reversed(numerators):
            value = value * s0.numerator + c
        monomials = [(h if value > 0 else -h) * s0.numerator**i for i in range(len(coefficients))]
        basis = entries_to_integral(_basis_at(factored.linear, factored.quadratic, s0))
        rows.append(join_integral(basis, (monomials, None, abs(value))))
    solution, den = solve_integral(rows, factored.degree)
    planes = ([x for p in solution for x in p[k] or ()] for k in (0, 1))
    d, size = math.lcm(*(c.d for c in coefficients)), n * n
    re = [x * (d // c.d) for c in coefficients for x in c.re]
    im = [x * (d // c.d) for c in coefficients for x in c.im or [0] * size]
    t = from_integral(*planes, den, len(rows), len(coefficients))
    solved = t @ from_integral(re, im, d, len(coefficients), size)
    parts = [slice(j * size, (j + 1) * size) for j in range(len(rows))]
    return [from_integral(solved.re[p], solved.im and solved.im[p], solved.d, n, n) for p in parts]


def pfd_undetermined(
    factored: FactoredCharPoly, adjugate: PolyMatrix, matrix: Matrix
) -> ResolventPFD:
    """Decomposition by undetermined matrix coefficients.

    Multiplying the decomposition by the characteristic polynomial gives the
    polynomial identity  adj(sI-A) = sum_ij B_ij * charpoly(s)/(s-lambda_i)^j,
    solved at sample points by _solve_undetermined.
    """
    if factored.mode != "complex":
        raise ValueError("pfd_undetermined requires a complex-mode factorization")
    return _undetermined_pfd(factored, adjugate, matrix)


def pfd_real(factored: FactoredCharPoly, adjugate: PolyMatrix, matrix: Matrix) -> ResolventPFD:
    """Real-mode decomposition with undetermined matrix coefficients.

    Linear factors contribute B_ij exactly as in complex mode; each quadratic
    factor (s+a)^2 + d contributes the pair (P, Q) of the term
    ((s+a) P + Q)/((s+a)^2 + d), i.e. two more basis values
    (s+a)/quad and 1/quad.  All stored matrices are rational.
    """
    if factored.mode != "real":
        raise ValueError("pfd_real requires a real-mode factorization")
    return _undetermined_pfd(factored, adjugate, matrix)


def _undetermined_pfd(factored: FactoredCharPoly, adjugate: PolyMatrix, matrix: Matrix) -> ResolventPFD:
    """The solved matrices read in basis order: B_i1..B_ir per eigenvalue, then (P, Q) per quadratic."""
    solved = iter(_solve_undetermined(factored, adjugate))
    linear = tuple(
        EigenvalueTerm(eigenvalue, mult, tuple(next(solved) for _ in range(mult)))
        for eigenvalue, mult in factored.linear
    )
    quadratic = tuple(QuadraticTerm(a, d, next(solved), next(solved)) for a, d in factored.quadratic)
    return ResolventPFD(matrix, factored.mode, linear, quadratic)


def reconstruct_resolvent(pfd, s0: Scalar) -> Matrix:
    """Evaluate the decomposition at the point s0; equals (s0 I - A)^{-1}.

    Raises EvalAtPole when s0 is an eigenvalue (or, real mode, a root of a
    quadratic factor, which cannot happen for real rational s0).
    """
    linear = [(term.eigenvalue, term.multiplicity) for term in pfd.linear]
    weights = _basis_at(linear, [(quad.a, quad.d) for quad in pfd.quadratic], s0)
    matrices = [b for term in pfd.linear for b in term.coefficients]
    matrices += [m for quad in pfd.quadratic for m in (quad.p_matrix, quad.q_matrix)]
    return linear_combination(weights, matrices)


class CheckResult(Record):
    name: str
    passed: bool
    detail: str = ""


def verify_pfd(a: Matrix, pfd: ResolventPFD) -> list[CheckResult]:
    """Structural identity report for a complex-mode decomposition.

    Covers: sum of the B_i1 is the identity; each B_i1 is idempotent and
    commutes with (A - lambda_i I); cross products B_i1 B_p1 vanish; the chain
    recurrence (A - lambda_i I) B_ij = B_{i,j+1} with annihilation at j = r_i;
    the power identity B_ij = B_i2^{j-1}; rank B_i1 = r_i; and exact resolvent
    reconstruction at three sample points.
    """
    eye = Matrix.identity(a.nrows)
    results = [CheckResult("projector_sum", _projector_sum(pfd) == eye, "sum of B_i1 equals I")]

    for term in pfd.linear:
        b1 = term.coefficient(1)
        shifted = a - eye * term.eigenvalue
        label = f"lambda={term.eigenvalue}"
        moved = [shifted @ b for b in term.coefficients]  # S B_j for the commutes and recurrence lines
        results.append(
            CheckResult(f"idempotent[{label}]", (b1 @ b1) == b1, "B_1^2 = B_1")
        )
        results.append(
            CheckResult(f"commutes[{label}]", moved[0] == (b1 @ shifted), "(A-lambda I) B_1 = B_1 (A-lambda I)")
        )
        results.extend(_recurrence_checks(moved, term, label))
        power_ok = True
        if term.multiplicity >= 2:
            power = b2 = term.coefficient(2)
            for b in term.coefficients[2:]:
                power = power @ b2
                power_ok = power_ok and power == b
        results.append(
            CheckResult(f"power_identity[{label}]", power_ok, "B_j = B_2^{j-1}")
        )
        results.append(
            CheckResult(
                f"projector_rank[{label}]",
                rank(b1) == term.multiplicity,
                f"rank B_1 = algebraic multiplicity {term.multiplicity}",
            )
        )

    for i, term_i in enumerate(pfd.linear):
        for p, term_p in enumerate(pfd.linear):
            if i < p:
                product = term_i.coefficient(1) @ term_p.coefficient(1)
                results.append(
                    CheckResult(
                        f"orthogonal[{term_i.eigenvalue};{term_p.eigenvalue}]",
                        product.is_zero,
                        "B_i1 B_p1 = 0 for i != p",
                    )
                )

    results.extend(_reconstruction_checks(a, pfd))
    return results


def verify_real_pfd(a: Matrix, pfd: ResolventPFD) -> list[CheckResult]:
    """Structural identity report for a real-mode decomposition.

    The quadratic pairs satisfy exact rational identities inherited from the
    underlying conjugate eigenvalue pair: (A + aI) P = Q, (A + aI) Q = -d P,
    and P idempotent for a simple factor.
    """
    eye = Matrix.identity(a.nrows)
    results = [CheckResult("projector_sum", _projector_sum(pfd) == eye, "sum of B_i1 and P equals I")]
    for term in pfd.linear:
        shifted = a - eye * term.eigenvalue
        results.extend(_recurrence_checks([shifted @ b for b in term.coefficients], term, f"lambda={term.eigenvalue}"))
    for quad in pfd.quadratic:
        label = f"(s+{quad.a})^2+{quad.d}"
        shifted = a + eye * quad.a
        results.append(
            CheckResult(
                f"quad_pair_P[{label}]",
                (shifted @ quad.p_matrix) == quad.q_matrix,
                "(A+aI) P = Q",
            )
        )
        results.append(
            CheckResult(
                f"quad_pair_Q[{label}]",
                (shifted @ quad.q_matrix) == quad.p_matrix * (-quad.d),
                "(A+aI) Q = -d P",
            )
        )
        results.append(
            CheckResult(
                f"quad_idempotent[{label}]",
                (quad.p_matrix @ quad.p_matrix) == quad.p_matrix,
                "P^2 = P",
            )
        )
    results.extend(_reconstruction_checks(a, pfd))
    return results


def _projector_sum(pfd) -> Matrix:
    """Sum of every B_i1 and every quadratic P: the identity for a correct decomposition."""
    total = Matrix.zeros(pfd.size, pfd.size)
    for term in pfd.linear:
        total = total + term.coefficient(1)
    for quad in pfd.quadratic:
        total = total + quad.p_matrix
    return total


def _recurrence_checks(moved: list, term: EigenvalueTerm, label: str) -> list[CheckResult]:
    """Recurrence (A-lambda I) B_j = B_{j+1} and annihilation (A-lambda I) B_r = 0, moved[j-1] = (A-lambda I) B_j."""
    recurrence_ok = all(x == y for x, y in zip(moved, term.coefficients[1:]))
    return [
        CheckResult(f"recurrence[{label}]", recurrence_ok, "(A-lambda I) B_j = B_{j+1}"),
        CheckResult(f"annihilation[{label}]", moved[-1].is_zero, "(A-lambda I) B_r = 0"),
    ]


def _reconstruction_checks(a: Matrix, pfd) -> list[CheckResult]:
    eye = Matrix.identity(a.nrows)
    return [
        CheckResult(
            f"reconstruction[s={s0}]",
            (reconstruct_resolvent(pfd, s0) @ (eye * s0 - a)) == eye,
            "pfd(s0) (s0 I - A) = I",
        )
        for s0 in sample_points(3, [term.eigenvalue for term in pfd.linear], a.nrows)
    ]


def all_passed(results: list[CheckResult]) -> bool:
    return all(r.passed for r in results)
