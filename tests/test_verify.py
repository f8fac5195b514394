"""The verify report's module: how it is wired up, and outcomes no CLI test pins."""

from __future__ import annotations

import subprocess
import sys

import respfd.cli
import respfd.verify
from respfd.io import parse_matrix
from respfd.pfd import all_passed
from respfd.verify import verification_report
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
