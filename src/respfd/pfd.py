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
  pfd_undetermined  -- undetermined matrix coefficients: evaluate the
                       polynomial identity at n rational sample points as
                       integer rows and solve the resulting exact linear
                       system by fraction-free elimination.

Real mode keeps everything rational: each irreducible quadratic factor
(s+a)^2 + d contributes a term ((s+a) P + Q) / ((s+a)^2 + d), where Q folds
the sqrt(d) scale so that P and Q are rational matrices.  pfd_real is the
undetermined-coefficient solve with two more basis polynomials per quadratic
factor: pfd_undetermined and pfd_real both build their basis and read the
matrices solved by one sample-point solver, _solve_undetermined.

Each algorithm returns one ResolventPFD: `mode`, `linear` (EigenvalueTerm,
...) and `quadratic` (QuadraticTerm, ..., empty in complex mode).

verify_pfd and verify_real_pfd recompute the structural identities of the
decomposition (projectors, chain recurrences, annihilation, reconstruction)
from scratch and report them individually.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
from .polynomials import FactoredCharPoly, Poly
from .scalars import Scalar, as_fraction, scalar_im, scalar_key, scalar_re


@dataclass(frozen=True)
class EigenvalueTerm:
    """All coefficients attached to one eigenvalue: B_1 .. B_r."""

    eigenvalue: Scalar
    multiplicity: int
    coefficients: tuple  # Matrix, index j-1

    def coefficient(self, j: int) -> Matrix:
        """B_j for 1 <= j <= multiplicity."""
        return self.coefficients[j - 1]


@dataclass(frozen=True)
class QuadraticTerm:
    """Term ((s+a) P + Q) / ((s+a)^2 + d) for one irreducible quadratic."""

    a: Fraction
    d: Fraction
    p_matrix: Matrix
    q_matrix: Matrix


@dataclass(frozen=True)
class ResolventPFD:
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
    charpoly = [as_fraction(c) for c in factored.expand().coeffs]
    h_den = math.lcm(*(c.denominator for c in charpoly))
    charpoly = [((c * h_den).numerator, 0) for c in charpoly]
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


def _basis(factored: FactoredCharPoly) -> list:
    """The basis polynomials of the undetermined-coefficient identity, in solve order.

    charpoly/(s - lambda_i)^j for each eigenvalue lambda_i and j = 1..r_i,
    then (s+a) charpoly/quad and charpoly/quad for each quadratic factor
    (s+a)^2 + d (real mode).
    """
    charpoly = factored.expand()
    basis = []
    for eigenvalue, mult in factored.linear:
        partial = charpoly
        for _ in range(mult):
            partial, rem = divmod(partial, Poly.linear(eigenvalue))
            if not rem.is_zero:
                raise SelfCheckFailed("pfd", "eigenvalue does not divide the characteristic polynomial")
            basis.append(partial)
    for a, d in factored.quadratic:
        cofactor, rem = divmod(charpoly, Poly((a * a + d, 2 * a, Fraction(1))))
        if not rem.is_zero:
            raise SelfCheckFailed("pfd", "quadratic factor does not divide the characteristic polynomial")
        basis += [cofactor * Poly((a, Fraction(1))), cofactor]
    return basis


def _solve_undetermined(factored: FactoredCharPoly, adjugate: PolyMatrix, basis_polys: list) -> list:
    """The matrices X_k of adj(sI-A) = sum_k X_k basis_polys[k](s), in basis order.

    Evaluating the identity at one rational non-eigenvalue point per unknown
    gives one exact linear system shared by every matrix entry; the n^2
    right-hand sides are the entries of adj(s0 I - A).  The row of s0 = u/v
    (basis values, then adjugate entries) is one combine_integral of the s^k
    coefficient planes with weights u^k v^(deg-k) over v^deg, and
    solve_integral eliminates those integer rows as they are.
    """
    n = adjugate.size
    points = sample_points(len(basis_polys), [root for root, _ in factored.linear], n)
    degree = max(adjugate.degree, *(poly.degree for poly in basis_polys))
    # the s^k coefficients of every basis polynomial, then of every adjugate entry
    coefficients = [
        join_integral(entries_to_integral([p.coeff(k) for p in basis_polys]), (c.re, c.im, c.d))
        for k, c in enumerate(map(adjugate.coeff, range(degree + 1)))
    ]
    rows = [
        combine_integral([((u**k * v ** (degree - k), 0), v**degree, c) for k, c in enumerate(coefficients)])
        for u, v in (s0.as_integer_ratio() for s0 in points)
    ]
    solution, den = solve_integral(rows, len(basis_polys))
    return [from_integral(*planes, den, n, n) for planes in solution]


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
    ((s+a) P + Q)/((s+a)^2 + d), i.e. two more basis polynomials
    (s+a) charpoly/quad and charpoly/quad.  All stored matrices are rational.
    """
    if factored.mode != "real":
        raise ValueError("pfd_real requires a real-mode factorization")
    return _undetermined_pfd(factored, adjugate, matrix)


def _undetermined_pfd(factored: FactoredCharPoly, adjugate: PolyMatrix, matrix: Matrix) -> ResolventPFD:
    """The solved matrices read in basis order: B_i1..B_ir per eigenvalue, then (P, Q) per quadratic."""
    solved = iter(_solve_undetermined(factored, adjugate, _basis(factored)))
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
    weights, matrices = [], []
    for term in pfd.linear:
        delta = s0 - term.eigenvalue
        if not delta:
            raise EvalAtPole(f"{s0} is an eigenvalue of the matrix")
        inv = 1 / delta
        power = inv
        for j in range(1, term.multiplicity + 1):
            weights.append(power)
            matrices.append(term.coefficient(j))
            power = power * inv
    for quad in pfd.quadratic:
        shifted = s0 + quad.a
        denom = shifted * shifted + quad.d
        if not denom:
            raise EvalAtPole(f"{s0} is a root of a quadratic factor")
        weights += [shifted / denom, 1 / denom]
        matrices += [quad.p_matrix, quad.q_matrix]
    return linear_combination(weights, matrices)


@dataclass(frozen=True)
class CheckResult:
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
        results.append(
            CheckResult(f"idempotent[{label}]", (b1 @ b1) == b1, "B_1^2 = B_1")
        )
        results.append(
            CheckResult(
                f"commutes[{label}]",
                (shifted @ b1) == (b1 @ shifted),
                "(A-lambda I) B_1 = B_1 (A-lambda I)",
            )
        )
        results.extend(_recurrence_checks(shifted, term, label))
        power_ok = True
        if term.multiplicity >= 2:
            b2 = term.coefficient(2)
            acc = b2
            for j in range(2, term.multiplicity + 1):
                if acc != term.coefficient(j):
                    power_ok = False
                acc = acc @ b2
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
        results.extend(_recurrence_checks(a - eye * term.eigenvalue, term, f"lambda={term.eigenvalue}"))
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


def _recurrence_checks(shifted: Matrix, term: EigenvalueTerm, label: str) -> list[CheckResult]:
    """Recurrence (A-lambda I) B_j = B_{j+1} and annihilation (A-lambda I) B_r = 0."""
    recurrence_ok = all(
        (shifted @ term.coefficient(j)) == term.coefficient(j + 1) for j in range(1, term.multiplicity)
    )
    annihilated = (shifted @ term.coefficient(term.multiplicity)).is_zero
    return [
        CheckResult(f"recurrence[{label}]", recurrence_ok, "(A-lambda I) B_j = B_{j+1}"),
        CheckResult(f"annihilation[{label}]", annihilated, "(A-lambda I) B_r = 0"),
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
