"""The verify report's module: how it is wired up, and outcomes no CLI test pins."""

from __future__ import annotations

import subprocess
import sys
from fractions import Fraction

import pytest

import respfd.chains
import respfd.cli
import respfd.exponential
import respfd.verify
from respfd.chains import Chain
from respfd.io import parse_matrix
from respfd.linalg import Matrix, PolyMatrix, faddeev_leverrier
from respfd.pfd import all_passed, pfd_real
from respfd.polynomials import factor_charpoly
from respfd.verify import verification_report
from tests.conftest import (
    GOLDEN_3X3_CHAINS,
    NILPOTENT_2X2,
    NILPOTENT_221,
    REPEATED_QUAD_FILE,
    block_diagonal,
    deadline,
    disguised,
    gaussian_block,
)


def test_cli_runs_the_report_of_the_verify_module():
    assert respfd.cli.verification_report is respfd.verify.verification_report


def test_verify_module_imports_without_the_cli():
    code = "import sys, respfd.verify; sys.exit('respfd.cli' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True)
    assert result.returncode == 0, result.stderr


def test_mode_agreement_is_left_out_when_the_real_view_is_refused():
    # (s^2 + 1)^2 is a repeated quadratic: there is no real-mode closed form to compare
    checks = verification_report(parse_matrix(REPEATED_QUAD_FILE), "complex")
    assert "mode_agreement" not in [c.name for c in checks]
    assert all_passed(checks)


def test_incomplete_chain_basis_is_a_passing_finding():
    checks = verification_report(NILPOTENT_221, "complex")
    by_name = {c.name: c for c in checks}
    basis = by_name["chain_basis[lambda=0]"]
    assert basis.passed
    assert basis.detail == "finding: no subset of column chains spans; selection correctly refused"
    union = by_name["basis_union_rank"]
    assert union.passed
    assert union.detail == "selected chain bases are jointly independent (spanning 0 of 5 dimensions)"
    assert len(checks) == 25 and all_passed(checks)


@pytest.mark.parametrize("seed", [1, 2])
def test_largest_gaussian_multiplicity_verifies_promptly(seed):
    # the slowest case inside the envelope: the pair (1 +- 3i)/(10^6 + 3) at multiplicity 6, 12x12
    q = 10**6 + 3
    a = disguised(block_diagonal(gaussian_block(Fraction(1, q), Fraction(3, q), 6)), seed)
    with deadline(10):
        checks = verification_report(a, "complex")
    assert all_passed(checks)


def _bump_entry(m: Matrix) -> Matrix:
    """m with its (0, 1) entry raised by 1."""
    rows = [list(row) for row in m.rows]
    rows[0][1] += 1
    return Matrix(rows)


@pytest.mark.parametrize("tamper", ["C_0", "C_n-1", "C_n"])
def test_adjugate_identity_fails_on_a_wrong_adjugate_coefficient(monkeypatch, tamper):
    a = GOLDEN_3X3_CHAINS if tamper != "C_n" else NILPOTENT_2X2
    charpoly, adjugate = faddeev_leverrier(a)
    coeffs = list(adjugate.coeff_matrices)
    if tamper == "C_0":
        coeffs[0] = _bump_entry(coeffs[0])
    elif tamper == "C_n-1":
        coeffs[-1] = _bump_entry(coeffs[-1])
    else:  # a coefficient above the true degree n - 1, with A C_n = 0: only s^{n+1} shows it
        coeffs.append(Matrix([[1, 0], [0, 0]]))
    monkeypatch.setattr(respfd.verify, "faddeev_leverrier", lambda m: (charpoly, PolyMatrix(m.nrows, tuple(coeffs))))
    by_name = {c.name: c for c in verification_report(a, "complex")}
    assert not by_name["adjugate_identity"].passed
    assert by_name["det_consistency"].passed  # the characteristic polynomial is the true one


@pytest.mark.parametrize("tamper", ["cut", "doubled"])
def test_chain_structure_fails_on_a_broken_chain(monkeypatch, tamper):
    extract = respfd.verify.extract_column_chains

    def broken(pfd, idx):
        chains = extract(pfd, idx)
        first = chains[0]
        assert first.length >= 2
        if tamper == "cut":  # its last vector is no longer an eigenvector's successor
            vectors = first.vectors[:-1]
        else:  # v_1 twice: (A - lambda I) v_1 is not v_1
            vectors = (first.vectors[0], *first.vectors)
        return [Chain(first.eigenvalue, vectors, first.column), *chains[1:]]

    monkeypatch.setattr(respfd.verify, "extract_column_chains", broken)
    by_name = {c.name: c for c in verification_report(GOLDEN_3X3_CHAINS, "complex")}
    assert not by_name["chain_structure[lambda=2]"].passed
    assert by_name["adjugate_identity"].passed


def _jordan(lam: Fraction, size: int) -> list:
    return [[lam if j == i else 1 if j == i + 1 else 0 for j in range(size)] for i in range(size)]


# rational spectrum: 2 with blocks (4, 2), -1 with (3), 1/2 with (2, 1); multiplicities 6, 3, 3
JORDAN_12 = disguised(
    block_diagonal(_jordan(2, 4), _jordan(2, 2), _jordan(-1, 3), _jordan(Fraction(1, 2), 2), _jordan(Fraction(1, 2), 1)),
    5,
)


def _counted(monkeypatch, module, name: str) -> list:
    """Replace module.name by a wrapper that records each call's arguments; returns the record."""
    original, calls = getattr(module, name), []

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_one_real_solve_and_one_extraction_per_eigenvalue(monkeypatch):
    real = _counted(monkeypatch, respfd.verify, "pfd_real")
    extract = _counted(monkeypatch, respfd.verify, "extract_column_chains")
    extract_inside = _counted(monkeypatch, respfd.chains, "extract_column_chains")
    forms = _counted(monkeypatch, respfd.verify, "exp_from_pfd")
    checks = verification_report(JORDAN_12, "complex")
    assert all_passed(checks) and "mode_agreement" in [c.name for c in checks]
    # a rational spectrum has no quadratic factor: the real view's solve is the complex one
    assert real == []
    charpoly, adjugate = faddeev_leverrier(JORDAN_12)
    real_pfd = pfd_real(factor_charpoly(charpoly, "real"), adjugate, JORDAN_12)
    assert [pfd for (pfd,) in forms if pfd.mode == "real"] == [real_pfd]
    assert [idx for _, idx in extract] == [0, 1, 2] and extract_inside == []


def test_default_times_evaluate_each_form_once_and_share_oracle_squarings(monkeypatch):
    evals = _counted(monkeypatch, respfd.verify, "exp_eval")
    cores = _counted(monkeypatch, respfd.exponential, "_taylor_core")
    checks = verification_report(JORDAN_12, "complex")
    assert all_passed(checks)
    keys = [(id(form), t) for form, t in evals]
    # the complex form at 0.1, 0.5, 1.0 (oracle) and 0.2, 0.1 + 0.2 (semigroup); the real one at 0.5
    assert len(keys) == len(set(keys)) == 6
    # t = 0.5 and t = 1.0 scale to the same tA / 2^m; t = 0.1 to another
    assert len(cores) == 2


def test_power_identity_forms_r_minus_2_products(monkeypatch):
    twos, powers, original = [], [], Matrix.__matmul__
    verify_pfd = respfd.verify.verify_pfd

    def counted(x, y):
        z = original(x, y)
        if any(y is b2 for b2 in twos) and any(x is p for p in (*twos, *powers)):
            powers.append(z)
        return z

    def checked(a, pfd):
        twos.extend(term.coefficient(2) for term in pfd.linear if term.multiplicity >= 2)
        try:
            return verify_pfd(a, pfd)
        finally:
            twos.clear()

    monkeypatch.setattr(Matrix, "__matmul__", counted)
    monkeypatch.setattr(respfd.verify, "verify_pfd", checked)
    checks = verification_report(JORDAN_12, "complex")
    assert [c.passed for c in checks if c.name.startswith("power_identity")] == [True] * 3
    assert len(powers) == (6 - 2) + (3 - 2) + (3 - 2)
