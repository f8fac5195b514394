"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the PASS/FAIL lines.
Tolerances are pinned here: exact equality for every symbolic result,
1e-9 max-norm relative error for the oracle comparison, 1e-8 for the
semigroup spot-check.  Runtime limits: one second per golden computation,
sixty seconds for the 200-matrix property run.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from respfd.chains import extract_column_chains, geometric_multiplicity, select_chain_basis
from respfd.cli import run
from respfd.errors import IncompleteBasis
from respfd.exponential import (
    cos_basis,
    exp_basis,
    exp_derivative,
    exp_eval,
    exp_from_pfd,
    matrix_exponential,
    numeric_oracle_exp,
    premultiply,
    relative_error,
    sin_basis,
    solve_ivp,
)
from respfd.linalg import Matrix, faddeev_leverrier, flat_matmul, rank
from respfd.pfd import all_passed, pfd_residue, pfd_undetermined, reconstruct_resolvent, verify_pfd
from respfd.polynomials import factor_charpoly
from tests.conftest import (
    GOLDEN_2X2_DISTINCT,
    GOLDEN_2X2_ROTATION,
    GOLDEN_3X3_CHAINS,
    GOLDEN_3X3_IVP,
    GOLDEN_3X3_SPIRAL,
    GOLDEN_MATRICES,
    random_jordan_matrix,
)

ORACLE_TOLERANCE = 1e-9
SEMIGROUP_TOLERANCE = 1e-8
GOLDEN_TIME_LIMIT = 1.0
PROPERTY_TIME_LIMIT = 60.0
PROPERTY_COUNT = 200
DERIVATIVE_SAMPLE = 50
SUITE_SEED = 987654321

_pfd_cache: dict[int, object] = {}


@pytest.fixture(scope="module")
def random_suite():
    rng = random.Random(SUITE_SEED)
    suite = []
    for i in range(PROPERTY_COUNT):
        n = 2 + (i % 5)  # cycles n through 2..6
        suite.append(random_jordan_matrix(rng, n))
    return suite


def _decomposition(index: int, a: Matrix):
    if index not in _pfd_cache:
        charpoly, adjugate = faddeev_leverrier(a)
        factored = factor_charpoly(charpoly, "complex")
        _pfd_cache[index] = pfd_residue(factored, adjugate, a)
    return _pfd_cache[index]


@pytest.fixture
def report(capsys):
    """Run a criterion body and print its PASS/FAIL line past pytest capture."""

    def _report(number: int, name: str, body):
        start = time.perf_counter()
        error = None
        detail = ""
        try:
            detail = body() or ""
        except BaseException as exc:  # report the line, then re-raise
            error = exc
            detail = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        status = "FAIL" if error is not None else "PASS"
        suffix = f"{detail}, " if detail else ""
        with capsys.disabled():
            print(f"ACCEPTANCE {number} {name}: {status} ({suffix}{elapsed:.2f}s)")
        if error is not None:
            raise error
        return elapsed

    return _report


def test_criterion_1_golden_pfd_and_chains(report, tmp_path):
    def body():
        matrix_file = tmp_path / "golden.txt"
        matrix_file.write_text("0 1 2\n-2 4 0\n-1 1 2\n")
        start = time.perf_counter()
        pfd = _decomposition(-1, GOLDEN_3X3_CHAINS)
        (term,) = pfd.linear
        assert term.eigenvalue == 2 and term.multiplicity == 3
        assert term.coefficient(1) == Matrix.identity(3)
        assert term.coefficient(2) == Matrix.from_rows([[-2, 1, 2], [-2, 2, 0], [-1, 1, 0]])
        assert term.coefficient(3) == Matrix.from_rows([[0, 2, -4], [0, 2, -4], [0, 1, -2]])
        chains = extract_column_chains(pfd, 0)
        assert [c.length for c in chains] == [2, 3, 3]

        def V(*vs):
            return tuple(tuple(Fraction(x) for x in v) for v in vs)

        assert chains[0].vectors == V((1, 0, 0), (-2, -2, -1))
        assert chains[1].vectors == V((0, 1, 0), (1, 2, 1), (2, 2, 1))
        assert chains[2].vectors == V((0, 0, 1), (2, 0, 0), (-4, -4, -2))

        # the same results through the command surface
        import json

        code, out, _ = run(["pfd", str(matrix_file), "--format", "json"])
        assert code == 0
        (json_term,) = json.loads(out)["terms"]
        assert json_term["lambda"] == "2"
        assert json_term["B"] == [
            [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
            [["-2", "1", "2"], ["-2", "2", "0"], ["-1", "1", "0"]],
            [["0", "2", "-4"], ["0", "2", "-4"], ["0", "1", "-2"]],
        ]
        code, out, _ = run(["chains", str(matrix_file)])
        assert code == 0
        assert "column 1 (length 2): [1, 0, 0] -> [-2, -2, -1]" in out
        assert "column 2 (length 3): [0, 1, 0] -> [1, 2, 1] -> [2, 2, 1]" in out
        assert "column 3 (length 3): [0, 0, 1] -> [2, 0, 0] -> [-4, -4, -2]" in out
        elapsed = time.perf_counter() - start
        assert elapsed < GOLDEN_TIME_LIMIT, f"took {elapsed:.2f}s"
        return "pfd + 3 chains exact, library and CLI"

    report(1, "golden-pfd-and-chains", body)


def test_criterion_2_golden_exponentials(report):
    def body():
        timings = []

        start = time.perf_counter()
        cf = matrix_exponential(GOLDEN_2X2_DISTINCT, "real")
        assert dict(cf.terms) == {
            exp_basis(Fraction(2), 0): Matrix.from_rows([[-3, -4], [3, 4]]),
            exp_basis(Fraction(3), 0): Matrix.from_rows([[4, 4], [-3, -3]]),
        }
        timings.append(time.perf_counter() - start)

        start = time.perf_counter()
        cf = matrix_exponential(GOLDEN_2X2_ROTATION, "real")
        assert dict(cf.terms) == {
            cos_basis(Fraction(0), Fraction(9)): Matrix.identity(2),
            sin_basis(Fraction(0), Fraction(9)): GOLDEN_2X2_ROTATION * Fraction(1, 3),
        }
        timings.append(time.perf_counter() - start)

        start = time.perf_counter()
        sol = solve_ivp(GOLDEN_3X3_IVP, (1, -1, 2), "real")
        assert dict(sol.components) == {
            exp_basis(Fraction(1), 0): (Fraction(-3), Fraction(-5), Fraction(6)),
            exp_basis(Fraction(-1), 0): (Fraction(4), Fraction(4), Fraction(-4)),
        }
        assert exp_basis(Fraction(1), 1) not in dict(
            matrix_exponential(GOLDEN_3X3_IVP, "real").terms
        )  # the zero coefficient of t e^t is absent
        timings.append(time.perf_counter() - start)

        start = time.perf_counter()
        cf = matrix_exponential(GOLDEN_3X3_SPIRAL, "real")
        b3 = Matrix.from_rows([[1, 3, 2], [-2, -6, -4], [3, 8, 5]])
        assert dict(cf.terms) == {
            exp_basis(Fraction(-2), 0): Matrix.from_rows([[2, 1, 0], [-2, -1, 0], [2, 1, 0]]),
            cos_basis(Fraction(2), Fraction(9)): Matrix.from_rows(
                [[-1, -1, 0], [2, 2, 0], [-2, -1, 1]]
            ),
            sin_basis(Fraction(2), Fraction(9)): b3,
        }
        # the stored quadratic numerator carries the factor sqrt(9) = 3
        from respfd.exponential import decompose

        real_pfd = decompose(GOLDEN_3X3_SPIRAL, "real")
        assert real_pfd.quadratic[0].q_matrix == b3 * Fraction(3)
        timings.append(time.perf_counter() - start)

        worst = max(timings)
        assert worst < GOLDEN_TIME_LIMIT, f"slowest example took {worst:.2f}s"
        return "4 exponential examples exact"

    report(2, "golden-exponentials", body)


def test_criterion_3_cross_algorithm_property(random_suite, report):
    def body():
        start = time.perf_counter()
        for index, (a, _) in enumerate(random_suite):
            charpoly, adjugate = faddeev_leverrier(a)
            factored = factor_charpoly(charpoly, "complex")
            via_residue = pfd_residue(factored, adjugate, a)
            via_samples = pfd_undetermined(factored, adjugate, a)
            assert via_residue == via_samples, f"algorithms disagree on matrix {index}"
            report = verify_pfd(a, via_residue)
            assert all_passed(report), (
                f"matrix {index}: " + ", ".join(r.name for r in report if not r.passed)
            )
            _pfd_cache[index] = via_residue
        elapsed = time.perf_counter() - start
        assert elapsed < PROPERTY_TIME_LIMIT, f"took {elapsed:.2f}s"
        return f"{len(random_suite)} matrices, exact agreement + identities"

    report(3, "cross-algorithm-property", body)


def test_criterion_4_resolvent_reconstruction(random_suite, report):
    def body():
        for index, (a, _) in enumerate(random_suite):
            n = a.nrows
            pfd = _decomposition(index, a)
            eigenvalues = {term.eigenvalue for term in pfd.linear}
            s0 = Fraction(n + 1)
            checked = 0
            while checked < 3:
                if s0 in eigenvalues:
                    s0 += 1
                    continue
                lhs = reconstruct_resolvent(pfd, s0) @ (Matrix.identity(n) * s0 - a)
                assert lhs == Matrix.identity(n), f"matrix {index} at s0={s0}"
                checked += 1
                s0 += 1
        return f"{len(random_suite)} matrices x 3 points, exact"

    report(4, "resolvent-reconstruction", body)


def test_criterion_5_chain_basis_completeness(random_suite, report):
    def body():
        findings = []
        for index, (a, spectrum) in enumerate(random_suite):
            pfd = _decomposition(index, a)
            by_eig = {lam: (alg, geo) for lam, alg, geo in spectrum}
            union = []
            complete = True
            for idx, term in enumerate(pfd.linear):
                alg, geo = by_eig[term.eigenvalue]
                try:
                    basis = select_chain_basis(pfd, idx)
                except IncompleteBasis:
                    chains = extract_column_chains(pfd, idx)
                    assert _no_chain_subset_spans(chains, alg), (
                        f"matrix {index}: selection failed although a subset spans"
                    )
                    findings.append((index, term.eigenvalue, alg, geo))
                    complete = False
                    continue
                assert basis.total_vectors == alg
                assert len(basis.chains) == geo
                assert len(basis.chains) == geometric_multiplicity(a, term.eigenvalue)
                assert rank(Matrix.from_rows(basis.all_vectors())) == alg
                union.extend(basis.all_vectors())
            if complete:
                assert rank(Matrix.from_rows(union)) == a.nrows, f"matrix {index}"
        for index, lam, alg, geo in findings:
            print(
                f"  finding: matrix {index}, eigenvalue {lam} (alg {alg}, geo {geo}): "
                "no subset of whole column chains spans; verified by brute force"
            )
        return (
            f"{len(random_suite)} matrices, {len(findings)} IncompleteBasis findings "
            "(each verified genuine)"
        )

    report(5, "chain-basis-completeness", body)


def _no_chain_subset_spans(chains, target: int) -> bool:
    for size in range(1, len(chains) + 1):
        for combo in combinations(chains, size):
            vectors = [v for c in combo for v in c.vectors]
            if len(vectors) == target and rank(Matrix.from_rows(vectors)) == target:
                return False
    return True


def test_criterion_6_exact_derivative_identity(random_suite, report):
    def body():
        for a in GOLDEN_MATRICES:
            for mode in ("complex", "real"):
                cf = matrix_exponential(a, mode)
                assert exp_derivative(cf) == premultiply(cf, a)
        for index, (a, _) in enumerate(random_suite[:DERIVATIVE_SAMPLE]):
            cf = exp_from_pfd(_decomposition(index, a))
            assert exp_derivative(cf) == premultiply(cf, a), f"matrix {index}"
        return f"goldens x 2 modes + {DERIVATIVE_SAMPLE} random, exact"

    report(6, "exact-derivative-identity", body)


def test_criterion_7_oracle_agreement(random_suite, report):
    def body():
        worst_oracle = 0.0
        worst_semigroup = 0.0
        closed_forms = []
        for a in GOLDEN_MATRICES:
            closed_forms.append((a, matrix_exponential(a, "real")))
            closed_forms.append((a, matrix_exponential(a, "complex")))
        for index, (a, _) in enumerate(random_suite):
            closed_forms.append((a, exp_from_pfd(_decomposition(index, a))))
        for a, cf in closed_forms:
            for t in (0.1, 0.5, 1.0):
                err = relative_error(exp_eval(cf, t), numeric_oracle_exp(a, t))
                worst_oracle = max(worst_oracle, err)
                assert err <= ORACLE_TOLERANCE, f"oracle error {err:.3e} at t={t}"
            for t1, t2 in ((0.1, 0.2), (0.5, 0.5)):
                prod = flat_matmul(exp_eval(cf, t1), exp_eval(cf, t2), a.nrows, a.nrows, a.nrows)
                err = relative_error(prod, exp_eval(cf, t1 + t2))
                worst_semigroup = max(worst_semigroup, err)
                assert err <= SEMIGROUP_TOLERANCE, f"semigroup error {err:.3e}"
        return (
            f"{len(closed_forms)} closed forms; worst oracle {worst_oracle:.2e}, "
            f"worst semigroup {worst_semigroup:.2e}"
        )

    report(7, "oracle-agreement", body)


def test_criterion_8_error_paths(tmp_path, report):
    def body():
        irrational = tmp_path / "irrational.txt"
        irrational.write_text("0 2\n1 0\n")  # det(sI - A) = s^2 - 2
        code, out, err = run(["exp", str(irrational)])
        assert code == 1, f"expected exit 1, got {code}"
        assert "IrrationalSpectrum" in err
        assert "s^2 - 2" in err, "diagnostic must name the residual"

        repeated = tmp_path / "repeated.txt"
        repeated.write_text("0 -1 0 0\n1 0 0 0\n0 0 0 -1\n0 0 1 0\n")  # (s^2+1)^2
        code, out, err = run(["exp", str(repeated), "--mode", "real"])
        assert code == 1, f"expected exit 1, got {code}"
        assert "RepeatedQuadraticFactor" in err
        assert "s^2 + 1" in err
        return "both error paths exit 1 with named factors"

    report(8, "error-paths", body)
