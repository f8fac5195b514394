"""The verify report's module: how it is wired up, and outcomes no CLI test pins."""

from __future__ import annotations

import subprocess
import sys
from fractions import Fraction

import pytest

import respfd.cli
import respfd.verify
from respfd.io import parse_matrix
from respfd.pfd import all_passed
from respfd.verify import verification_report
from tests.conftest import block_diagonal, deadline, disguised, gaussian_block
from tests.test_chains import NILPOTENT_221
from tests.test_cli import REPEATED_QUAD_FILE


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
