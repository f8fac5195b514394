"""The `respfd verify` report: exact identities, chain checks and the float oracle.

verification_report(a, mode) returns one CheckResult per check, in the order
it runs them.  It needs both pfd and exponential, and exponential imports pfd.

Each report computes an intermediate once and lets every check that needs it
read it; no line is derived from another line's verdict, and nothing outlives
the call.  The output is the same as with each check computing its own:
- mode_agreement's real decomposition is the complex undetermined solve when
  the real view has no quadratic factor: it then has the same polynomial,
  roots and sample points, so pfd_real would solve the identical system;
- each eigenvalue's column chains are extracted once, for chain_structure and
  for select_chain_basis;
- each exp_eval(form, t) is evaluated once, for the oracle, semigroup and
  mode_agreement lines alike;
- the oracle keeps its Taylor cores and their squares by the exact scaled
  list tA / 2^m (numeric_oracle_exp): scaling by 2 is exact, so the default
  t = 0.5 and t = 1.0 share a core and differ by one squaring, bit for bit.
"""

from __future__ import annotations

import cmath
from fractions import Fraction

from .chains import extract_column_chains, geometric_multiplicity, select_chain_basis
from .errors import IncompleteBasis, IrrationalSpectrum, RepeatedQuadraticFactor
from .exponential import (
    exp_derivative,
    exp_eval,
    exp_from_pfd,
    numeric_oracle_exp,
    premultiply,
    relative_error,
)
from .linalg import Matrix, det, faddeev_leverrier, flat_matmul, rank
from .pfd import (
    CheckResult,
    ResolventPFD,
    pfd_real,
    pfd_residue,
    pfd_undetermined,
    verify_pfd,
    verify_real_pfd,
)
from .polynomials import factor_charpoly, integral_coeffs

ORACLE_TOLERANCE = 1e-9
SEMIGROUP_TOLERANCE = 1e-8
MODE_AGREEMENT_TOLERANCE = 1e-12


def verification_report(a: Matrix, mode: str = "auto", hints=None, times=(0.1, 0.5, 1.0)) -> list[CheckResult]:
    """Every identity the pipeline promises, plus the numeric oracle."""
    checks: list[CheckResult] = []
    n = a.nrows
    eye = Matrix.identity(n)
    charpoly, adjugate = faddeev_leverrier(a)

    # with adj(sI - A) = sum C_k s^k, the coefficient of s^k is C_{k-1} - A C_k = c_k I,
    # for every power either side reaches
    adjugate_ok = all(
        adjugate.coeff(k - 1) - a @ adjugate.coeff(k) == eye * charpoly.coeff(k)
        for k in range(max(adjugate.degree + 1, charpoly.degree) + 1)
    )
    checks.append(
        CheckResult("adjugate_identity", adjugate_ok, "(sI - A) adj(sI - A) = det(sI - A) I")
    )
    sign = Fraction(1) if n % 2 == 0 else Fraction(-1)
    checks.append(
        CheckResult(
            "det_consistency",
            charpoly.eval(Fraction(0)) == sign * det(a),
            "det(sI - A) at s=0 equals (-1)^n det(A)",
        )
    )

    factored = factor_charpoly(charpoly, mode, hints)
    mode_used = factored.mode
    checks.append(
        CheckResult(
            "factor_roundtrip",
            factored.multiplies_out(*integral_coeffs(charpoly)),
            f"{mode_used}-mode factorization expands back to det(sI - A)",
        )
    )

    if mode_used == "complex":
        via_residue = pfd_residue(factored, adjugate, a)
        via_samples = pfd_undetermined(factored, adjugate, a)
        checks.append(
            CheckResult(
                "cross_algorithm",
                via_residue == via_samples,
                "residue and undetermined-coefficient decompositions agree",
            )
        )
        checks.extend(verify_pfd(a, via_residue))
        checks.extend(_chain_checks(a, via_residue))
        pfd = via_residue
    else:
        pfd = pfd_real(factored, adjugate, a)
        checks.extend(verify_real_pfd(a, pfd))

    cf = exp_from_pfd(pfd)
    checks.append(
        CheckResult("exp_at_zero", cf.value_at_zero() == eye, "closed form equals I at t = 0")
    )
    checks.append(
        CheckResult(
            "derivative_identity",
            exp_derivative(cf) == premultiply(cf, a),
            "d/dt e^{tA} = A e^{tA}, exact coefficient comparison",
        )
    )
    values, squares = {}, {}

    def value(form, t):
        if (id(form), t) not in values:
            values[id(form), t] = exp_eval(form, t)
        return values[id(form), t]

    for t in times:
        checks.append(
            _float_check(
                f"oracle[t={t:g}]", t, ORACLE_TOLERANCE,
                lambda: (value(cf, t), numeric_oracle_exp(a, t, squares)),
                "relative error {:.3e} vs scaling-and-squaring",
            )
        )
    # the semigroup and mode-agreement times scale with the largest requested |t|
    scale = max((abs(t) for t in times), default=0.0) or 1.0
    for t1, t2 in ((0.1 * scale, 0.2 * scale), (0.5 * scale, 0.5 * scale)):
        checks.append(
            _float_check(
                f"semigroup[{t1:g}+{t2:g}]", t1 + t2, SEMIGROUP_TOLERANCE,
                lambda: (flat_matmul(value(cf, t1), value(cf, t2), n, n, n), value(cf, t1 + t2)),
                "relative error {:.3e}",
            )
        )
    if mode_used == "complex":
        try:
            real_factored = factored.view("real")
        except (IrrationalSpectrum, RepeatedQuadraticFactor):
            real_factored = None
        if real_factored is not None:
            # with no quadratic factor the real view has the complex one's roots and sample points
            real_pfd = (
                ResolventPFD(a, "real", via_samples.linear) if not real_factored.quadratic
                else pfd_real(real_factored, adjugate, a)
            )
            real_cf = exp_from_pfd(real_pfd)
            t = 0.5 * scale
            checks.append(
                _float_check(
                    "mode_agreement", t, MODE_AGREEMENT_TOLERANCE,
                    lambda: (value(real_cf, t), value(cf, t)),
                    "real and complex closed forms agree numerically ({:.3e})",
                )
            )
    return checks


def _float_check(name: str, t: float, tolerance: float, evaluate, detail: str) -> CheckResult:
    """Compare two row-major float matrices from evaluate(); overflow is a named FAIL."""
    try:
        x, y = evaluate()
        finite = all(map(cmath.isfinite, x + y))
    except OverflowError:
        finite = False
    if not finite:
        return CheckResult(name, False, f"float overflow at t={t:g}")
    err = relative_error(x, y)
    return CheckResult(name, err <= tolerance, detail.format(err))


def _chain_checks(a: Matrix, pfd: ResolventPFD) -> list[CheckResult]:
    checks = []
    n = a.nrows
    eye = Matrix.identity(n)
    zero = (0,) * n
    all_vectors = []
    expected_union = 0
    for idx, term in enumerate(pfd.linear):
        label = f"lambda={term.eigenvalue}"
        shifted = a - eye * term.eigenvalue
        # one product per eigenvalue: (A - lambda I) V = W, V's columns its chain vectors
        # and W's their successors, the zero vector after each chain's last
        chains = extract_column_chains(pfd, idx)
        vectors = [v for chain in chains for v in chain.vectors]
        successors = [w for chain in chains for w in (*chain.vectors[1:], zero)]
        structure_ok = not vectors or shifted @ Matrix(zip(*vectors)) == Matrix(zip(*successors))
        checks.append(
            CheckResult(f"chain_structure[{label}]", structure_ok, "(A-lambda I) maps each chain forward")
        )
        try:
            basis = select_chain_basis(pfd, idx, chains)
        except IncompleteBasis:
            # a real outcome: the complete greedy pass shows that whole column
            # chains cannot span this generalized eigenspace (see select_chain_basis)
            checks.append(
                CheckResult(
                    f"chain_basis[{label}]",
                    True,
                    "finding: no subset of column chains spans; selection correctly refused",
                )
            )
            continue
        counts_ok = (
            basis.total_vectors == term.multiplicity
            and len(basis.chains) == geometric_multiplicity(a, term.eigenvalue)
        )
        checks.append(
            CheckResult(
                f"chain_basis[{label}]",
                counts_ok,
                "chain count = geometric multiplicity, total = algebraic multiplicity",
            )
        )
        all_vectors.extend(basis.all_vectors())
        expected_union += term.multiplicity
    checks.append(
        CheckResult(
            "basis_union_rank",
            len(all_vectors) == expected_union
            and (not all_vectors or rank(Matrix.from_rows(all_vectors)) == expected_union),
            "selected chain bases are jointly independent"
            + ("" if expected_union == n else f" (spanning {expected_union} of {n} dimensions)"),
        )
    )
    return checks
