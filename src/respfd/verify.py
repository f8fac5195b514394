"""The `respfd verify` report: exact identities, chain checks and the float oracle.

verification_report(a, mode) returns one CheckResult per check, in the order
it runs them.  It needs both pfd and exponential, and exponential imports pfd.
"""

from __future__ import annotations

import cmath
from fractions import Fraction

from .chains import extract_column_chains, geometric_multiplicity, select_chain_basis
from .errors import IncompleteBasis, IrrationalSpectrum, RepeatedQuadraticFactor
from .exponential import (
    _float_mat_mul,
    exp_derivative,
    exp_eval,
    exp_from_pfd,
    numeric_oracle_exp,
    premultiply,
    relative_error,
)
from .linalg import (
    Matrix,
    PolyMatrix,
    det,
    faddeev_leverrier,
    mat_vec,
    rank,
    s_identity_minus,
    vec_is_zero,
)
from .pfd import (
    CheckResult,
    ResolventPFD,
    pfd_real,
    pfd_residue,
    pfd_undetermined,
    verify_pfd,
    verify_real_pfd,
)
from .polynomials import factor_charpoly

ORACLE_TOLERANCE = 1e-9
SEMIGROUP_TOLERANCE = 1e-8
MODE_AGREEMENT_TOLERANCE = 1e-12


def verification_report(a: Matrix, mode: str = "auto", hints=None, times=(0.1, 0.5, 1.0)) -> list[CheckResult]:
    """Every identity the pipeline promises, plus the numeric oracle."""
    checks: list[CheckResult] = []
    n = a.nrows
    eye = Matrix.identity(n)
    charpoly, adjugate = faddeev_leverrier(a)

    pencil = s_identity_minus(a)
    product = pencil @ adjugate
    expected = PolyMatrix(n, tuple(eye * c for c in charpoly.coeffs))
    checks.append(
        CheckResult("adjugate_identity", product == expected, "(sI - A) adj(sI - A) = det(sI - A) I")
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
            factored.expand() == charpoly,
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
    for t in times:
        checks.append(
            _float_check(
                f"oracle[t={t:g}]", t, ORACLE_TOLERANCE,
                lambda: (exp_eval(cf, t), numeric_oracle_exp(a, t)),
                "relative error {:.3e} vs scaling-and-squaring",
            )
        )
    # the semigroup and mode-agreement times scale with the largest requested |t|
    scale = max((abs(t) for t in times), default=0.0) or 1.0
    for t1, t2 in ((0.1 * scale, 0.2 * scale), (0.5 * scale, 0.5 * scale)):
        checks.append(
            _float_check(
                f"semigroup[{t1:g}+{t2:g}]", t1 + t2, SEMIGROUP_TOLERANCE,
                lambda: (_float_mat_mul(exp_eval(cf, t1), exp_eval(cf, t2)), exp_eval(cf, t1 + t2)),
                "relative error {:.3e}",
            )
        )
    if mode_used == "complex":
        try:
            real_factored = factored.view("real")
        except (IrrationalSpectrum, RepeatedQuadraticFactor):
            real_factored = None
        if real_factored is not None:
            real_cf = exp_from_pfd(pfd_real(real_factored, adjugate, a))
            t = 0.5 * scale
            checks.append(
                _float_check(
                    "mode_agreement", t, MODE_AGREEMENT_TOLERANCE,
                    lambda: (exp_eval(real_cf, t), exp_eval(cf, t)),
                    "real and complex closed forms agree numerically ({:.3e})",
                )
            )
    return checks


def _float_check(name: str, t: float, tolerance: float, evaluate, detail: str) -> CheckResult:
    """Compare two float matrices from evaluate(); overflow is a named FAIL."""
    try:
        x, y = evaluate()
        finite = all(cmath.isfinite(v) for m in (x, y) for row in m for v in row)
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
    all_vectors = []
    expected_union = 0
    for idx, term in enumerate(pfd.linear):
        label = f"lambda={term.eigenvalue}"
        shifted = a - eye * term.eigenvalue
        structure_ok = True
        for chain in extract_column_chains(pfd, idx):
            for v, w in zip(chain.vectors, chain.vectors[1:]):
                if mat_vec(shifted, v) != w:
                    structure_ok = False
            if not vec_is_zero(mat_vec(shifted, chain.vectors[-1])):
                structure_ok = False
        checks.append(
            CheckResult(f"chain_structure[{label}]", structure_ok, "(A-lambda I) maps each chain forward")
        )
        try:
            basis = select_chain_basis(pfd, idx)
        except IncompleteBasis:
            # a real, exhaustively verified outcome: whole column chains
            # cannot span this generalized eigenspace (see select_chain_basis)
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
