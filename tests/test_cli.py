"""CLI dispatch, exit codes, output formats."""

from __future__ import annotations

import gc
import json
import subprocess
import sys

import pytest

from respfd import cli
from respfd.cli import build_parser, run
from tests.conftest import REPEATED_QUAD_FILE, deadline

GOLDEN_CHAINS_FILE = "0 1 2\n-2 4 0\n-1 1 2\n"
IVP_FILE = "-5 6 2\n-6 7 2\n6 -6 -1\n"
SPIRAL_FILE = "1 9 6\n-6 -20 -12\n9 24 13\n"
ROTATION_FILE = "5 17\n-2 -5\n"
IRRATIONAL_FILE = "0 2\n1 0\n"  # characteristic polynomial s^2 - 2
SHIFTED_REPEATED_QUAD_FILE = "0 0 0 -1\n1 0 0 2\n0 1 0 -3\n0 0 1 2\n"  # (s^2-s+1)^2


@pytest.fixture
def write(tmp_path):
    def _write(content: str, name: str = "matrix.txt") -> str:
        path = tmp_path / name
        path.write_text(content)
        return str(path)

    return _write


def test_charpoly_text(write):
    code, out, err = run(["charpoly", write(GOLDEN_CHAINS_FILE)])
    assert code == 0 and not err
    assert "det(sI - A) = s^3 - 6s^2 + 12s - 8" in out
    assert "(s - 2)^3" in out


def test_charpoly_real_mode_quadratic(write):
    code, out, _ = run(["charpoly", write(SPIRAL_FILE), "--mode", "real"])
    assert code == 0
    assert "(s + 2) ((s + 2)^2 + 9)" in out


def test_pfd_json_golden(write):
    code, out, _ = run(["pfd", write(GOLDEN_CHAINS_FILE), "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    (term,) = payload["terms"]
    assert term["lambda"] == "2"
    assert term["multiplicity"] == 3
    assert term["B"][0] == [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    assert term["B"][1] == [["-2", "1", "2"], ["-2", "2", "0"], ["-1", "1", "0"]]
    assert term["B"][2] == [["0", "2", "-4"], ["0", "2", "-4"], ["0", "1", "-2"]]


def test_chains_text_golden(write):
    code, out, _ = run(["chains", write(GOLDEN_CHAINS_FILE)])
    assert code == 0
    assert "column 1 (length 2): [1, 0, 0] -> [-2, -2, -1]" in out
    assert "column 2 (length 3): [0, 1, 0] -> [1, 2, 1] -> [2, 2, 1]" in out
    assert "column 3 (length 3): [0, 0, 1] -> [2, 0, 0] -> [-4, -4, -2]" in out


def test_chains_requires_complex_mode(write):
    code, out, err = run(["chains", write(GOLDEN_CHAINS_FILE), "--mode", "real"])
    assert code == 2
    assert "complex mode" in err


def test_chains_irrational_spectrum_names_residual(write):
    code, out, err = run(["chains", write(IRRATIONAL_FILE)])
    assert code == 1
    assert "IrrationalSpectrum" in err
    assert "s^2 - 2" in err


def test_solve_text_golden(write):
    code, out, _ = run(
        ["solve", write(IVP_FILE), "--y0", "1,-1,2", "--mode", "real"]
    )
    assert code == 0
    assert out == "e^(-t) * [4, 4, -4] + e^t * [-3, -5, 6]\n"


def test_solve_requires_y0(write):
    code, _, _ = run(["solve", write(IVP_FILE)])
    assert code == 2


def test_solve_wrong_y0_length_is_usage_error(write):
    code, _, err = run(["solve", write(IVP_FILE), "--y0", "1,2"])
    assert code == 2
    assert "3x3" in err


def test_solve_bad_y0_token_is_usage_error(write):
    code, _, _ = run(["solve", write(IVP_FILE), "--y0", "1,two,3"])
    assert code == 2


def test_bad_t_list_is_usage_error(write):
    code, _, _ = run(["verify", write(IVP_FILE), "--t", "0.1,abc"])
    assert code == 2


def test_exp_latex_rotation(write):
    code, out, _ = run(["exp", write(ROTATION_FILE), "--mode", "real", "--format", "latex"])
    assert code == 0
    assert "\\cos(3t)\\begin{bmatrix}1&0\\\\0&1\\end{bmatrix}" in out
    assert "\\sin(3t)" in out
    assert "\\frac{5}{3}" in out


def test_general_text_spiral(write):
    code, out, _ = run(["general", write(SPIRAL_FILE), "--mode", "real"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == (
        "C1 * (e^(-2t) * [2, -2, 2] + e^(-2t) cos(3t) * [-1, 2, -2]"
        " + e^(-2t) sin(3t) * [1, -2, 3])"
    )
    assert lines[2].startswith("C3 * (e^(-2t) cos(3t) * [0, 0, 1]")


def test_exit_1_irrational_spectrum(write):
    code, out, err = run(["pfd", write(IRRATIONAL_FILE)])
    assert code == 1 and not out
    assert "factor: IrrationalSpectrum" in err
    assert "s^2 - 2" in err


def test_exit_1_repeated_quadratic_real_mode(write):
    code, out, err = run(["exp", write(REPEATED_QUAD_FILE), "--mode", "real"])
    assert code == 1
    assert "RepeatedQuadraticFactor" in err
    assert "s^2 + 1" in err


def test_repeated_quadratic_message_folds_the_sign(write):
    code, out, err = run(["pfd", write(SHIFTED_REPEATED_QUAD_FILE), "--mode", "real"])
    assert (code, out) == (1, "")
    assert err == "factor: RepeatedQuadraticFactor: quadratic factor (s - 1/2)^2 + 3/4 is repeated\n"


def test_repeated_quadratic_fine_in_complex_auto(write):
    code, out, _ = run(["exp", write(REPEATED_QUAD_FILE)])
    assert code == 0
    assert "cos" not in out  # complex form, e^{it} terms with Gaussian entries


def test_exit_2_parse_error(write):
    code, _, err = run(["pfd", write("1 2\nx 4\n")])
    assert code == 2
    assert "parse:" in err and "line 2" in err


def test_exit_2_non_square(write):
    code, _, err = run(["pfd", write("1 2\n3\n")])
    assert code == 2
    assert "line 2" in err


def test_exit_2_missing_file():
    code, _, err = run(["pfd", "/nonexistent/matrix.txt"])
    assert code == 2


def test_exit_2_unknown_command():
    code, _, _ = run(["frobnicate", "x"])
    assert code == 2


def test_verify_golden_passes(write):
    code, out, _ = run(["verify", write(GOLDEN_CHAINS_FILE)])
    assert code == 0
    assert "result: PASS" in out
    assert "cross_algorithm" in out
    assert "oracle[t=0.1]" in out
    assert "FAIL" not in out


def test_verify_real_mode(write):
    code, out, _ = run(["verify", write(SPIRAL_FILE), "--mode", "real", "--t", "0.25,0.75"])
    assert code == 0
    assert "oracle[t=0.25]" in out
    assert "quad_pair_P" in out


def test_verify_json(write):
    code, out, _ = run(["verify", write(IVP_FILE), "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert all(check["passed"] for check in payload["checks"])


def test_verify_exit_code_tracks_failures(write, monkeypatch):
    # exit code must be 0 iff the report has zero failures
    import respfd.cli as cli_module
    from respfd.pfd import CheckResult

    monkeypatch.setattr(
        cli_module,
        "verification_report",
        lambda a, mode, hints, times: [CheckResult("forced", False, "synthetic failure")],
    )
    code, out, _ = run(["verify", write(GOLDEN_CHAINS_FILE)])
    assert code == 1
    assert "FAIL" in out and "forced" in out


def test_roots_hints_file(write, tmp_path):
    hints = tmp_path / "roots.txt"
    hints.write_text("# eigenvalue hints\n-2+3i 1\n")
    code, out, _ = run(
        ["charpoly", write(SPIRAL_FILE), "--mode", "complex", "--roots", str(hints)]
    )
    assert code == 0
    assert "-2+3i" in out


def test_bad_hint_exits_1(write, tmp_path):
    hints = tmp_path / "roots.txt"
    hints.write_text("7 1\n")
    code, _, err = run(["charpoly", write(GOLDEN_CHAINS_FILE), "--roots", str(hints)])
    assert code == 1
    assert err == "factor: HintMismatch: hinted root 7 does not annihilate the polynomial\n"


def test_too_large_matrix_names_the_input_stage(write):
    identity_13 = "".join(" ".join("1" if i == j else "0" for j in range(13)) + "\n" for i in range(13))
    code, out, err = run(["charpoly", write(identity_13)])
    assert (code, out) == (1, "")
    assert err == "input: MatrixTooLarge: matrix size 13 exceeds the supported limit of 12\n"


def test_stdin_input():
    result = subprocess.run(
        [sys.executable, "-m", "respfd.cli", "charpoly", "-"],
        input=GOLDEN_CHAINS_FILE.encode(),
        capture_output=True,
    )
    assert result.returncode == 0
    assert b"(s - 2)^3" in result.stdout


def test_console_script_help():
    result = subprocess.run(
        [sys.executable, "-m", "respfd.cli", "--help"], capture_output=True
    )
    assert result.returncode == 0
    assert b"charpoly" in result.stdout and b"verify" in result.stdout


def test_run_keeps_the_parser_of_its_first_call(write, monkeypatch, capsys):
    path = write(GOLDEN_CHAINS_FILE)
    command_lines = [[sub, path] for sub in ("charpoly", "pfd", "chains", "exp", "general", "verify")]
    command_lines += [["solve", path, "--y0", "1,0,1"], ["--help"], ["pfd", path, "--bogus"]]

    def observe():
        # argparse writes --help and its usage errors to sys.stdout / sys.stderr itself
        return [(run(argv), capsys.readouterr()) for argv in command_lines]

    run(["charpoly", path])
    before = observe()

    def no_new_parser():
        raise AssertionError("run() built a parser after its first call")

    monkeypatch.setattr(cli, "build_parser", no_new_parser)
    assert observe() == before
    assert [result[0] for result, _ in before] == [0] * 8 + [2]
    assert "usage: respfd" in before[-2][1].out and "unrecognized arguments: --bogus" in before[-1][1].err


def test_build_parser_returns_a_fresh_parser():
    assert build_parser() is not build_parser()


def test_verify_float_overflow_is_named_fail(write):
    # e^(1000 t) is no float at t = 1000: a FAIL with exit 1, never a traceback
    code, out, err = run(["verify", write("1000 0 0\n0 -1 1\n0 0 -1\n"), "--t", "1000"])
    assert code == 1
    assert err == ""
    assert "FAIL  oracle[t=1000]" in out and "float overflow at t=1000" in out
    assert "result: FAIL" in out


@pytest.mark.parametrize("mode", ["complex", "real", "auto"])
def test_verify_non_finite_basis_argument_is_named_fail(write, mode):
    # +-3i t and 3t are not finite at t = 1e308: cmath.exp, cos and sin must not end in a traceback
    with deadline(10):
        code, out, err = run(["verify", write(ROTATION_FILE), "--t", "1e308", "--mode", mode])
    assert (code, err) == (1, "")
    assert "FAIL  oracle[t=1e+308]" in out and "float overflow at t=1e+308" in out


def test_json_ops_leave_no_cyclic_garbage(write):
    goldens = [GOLDEN_CHAINS_FILE, "6 4\n-3 -1\n", ROTATION_FILE, IVP_FILE, SPIRAL_FILE]
    commands = ["charpoly", "pfd", "chains", "exp", "solve", "general", "verify"]
    files = [(write(rows, f"golden{k}.txt"), rows.count("\n")) for k, rows in enumerate(goldens)]

    def args(command, path, size):
        return [command, path, "--format", "json"] + (["--y0", ",".join(["1"] * size)] if command == "solve" else [])

    run(args("pfd", *files[0]))  # warm-up: the parser and lazily built state
    gc.collect()
    gc.disable()
    try:
        for path, size in files:
            for command in commands:
                code, _, _ = run(args(command, path, size))
                assert (command, path, code in (0, 1), gc.collect()) == (command, path, True, 0)
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "rows, t", [("0 3\n0 0\n", "1e308"), ("0 10000000000\n0 0\n", "1e300")], ids=["3_at_1e308", "1e10_at_1e300"]
)
def test_verify_overflowing_oracle_norm_is_named_fail(write, rows, t):
    # t A overflows to inf: the oracle's scaling loop must stop and name the overflow
    with deadline(10):
        code, out, err = run(["verify", write(rows), "--t", t])
    assert (code, err) == (1, "")
    assert f"FAIL  oracle[t={float(t):g}]" in out and f"float overflow at t={float(t):g}" in out


@pytest.mark.parametrize("times", ["nan", "inf", "0.1,-inf"])
def test_verify_non_finite_t_is_usage_error(write, times):
    code, out, err = run(["verify", write(IVP_FILE), "--t", times])
    assert code == 2
    assert out == "" and err.startswith("usage:")


@pytest.mark.parametrize(
    "rows, mode",
    [
        # eigenvalues +-i, 1+-2i, 2+-i
        ("0 -1 0 0 0 0\n1 0 0 0 0 0\n0 0 1 -2 0 0\n0 0 2 1 0 0\n0 0 0 0 2 -1\n0 0 0 0 1 2\n", "complex"),
        # companion matrix of (s^2 + 1)^3
        ("0 0 0 0 0 -1\n1 0 0 0 0 0\n0 1 0 0 0 -3\n0 0 1 0 0 0\n0 0 0 1 0 -3\n0 0 0 0 1 0\n", "complex"),
        # (s^2 + 2)(s^2 + 3)(s^2 + 5)
        ("0 -2 0 0 0 0\n1 0 0 0 0 0\n0 0 0 -3 0 0\n0 0 1 0 0 0\n0 0 0 0 0 -5\n0 0 0 0 1 0\n", "real"),
    ],
    ids=["qi_three_pairs", "qi_cubed_companion", "real_three_quadratics"],
)
def test_verify_sextic_spectra_pass(write, rows, mode):
    with deadline(20):
        code, out, err = run(["verify", write(rows), "--mode", mode])
    assert code == 0, out + err
    assert "result: PASS" in out


def test_verify_small_t_scales_semigroup_and_mode_checks(write):
    # e^(1000 t) overflows at t = 1; with --t 0.001 every check stays at t <= 0.001
    rows = "1000 0 0\n0 -1 1\n0 0 -1\n"
    code, out, err = run(["verify", write(rows), "--t", "0.001"])
    assert code == 0, out + err
    assert "FAIL" not in out and "result: PASS" in out
    assert "semigroup[0.0005+0.0005]" in out and "mode_agreement" in out


@pytest.mark.parametrize("line", ["1 2 3", "x 1", "2 one", "1/0 1"])
def test_roots_file_errors_are_usage_errors(write, tmp_path, line):
    hints = tmp_path / "roots.txt"
    hints.write_text(f"# hints\n{line}\n")
    code, out, err = run(["charpoly", write(GOLDEN_CHAINS_FILE), "--roots", str(hints)])
    assert code == 2 and out == ""
    assert err.startswith("usage: roots file line 2")


def test_bad_y0_scalar_names_the_option(write):
    code, _, err = run(["solve", write(IVP_FILE), "--y0", "1,1/0,3"])
    assert code == 2
    assert err.startswith("usage: --y0")


def _corrupt_trace_division(monkeypatch):
    import respfd.linalg

    monkeypatch.setattr(respfd.linalg, "_exact_quotient", lambda x, k: x // k + 1)


def _corrupt_factorization(monkeypatch):
    import respfd.polynomials

    factors = respfd.polynomials._irreducible_factors

    def doubled(p):
        rational, quadratic = factors(p)
        return {root: 2 * mult for root, mult in rational.items()}, quadratic

    monkeypatch.setattr(respfd.polynomials, "_irreducible_factors", doubled)


@pytest.mark.parametrize(
    "corrupt, stage", [(_corrupt_trace_division, "charpoly"), (_corrupt_factorization, "factor")]
)
@pytest.mark.parametrize("command", ["pfd", "verify"])
def test_failed_self_check_exits_3_naming_stage(write, monkeypatch, corrupt, stage, command):
    path = write(GOLDEN_CHAINS_FILE)
    corrupt(monkeypatch)
    code, out, err = run([command, path])
    assert code == 3 and out == ""
    assert err.startswith(f"{stage}: internal self-check failed:")
