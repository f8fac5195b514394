"""Command-line interface: parse the arguments, dispatch, render.

Subcommands: charpoly, pfd, chains, exp, solve, general, verify.  Exit codes:
0 success, 1 domain error (unfactorable spectrum, repeated quadratic, ...),
2 usage or parse error, 3 failed internal self-check (a bug; stderr names the
stage).  `verify` prints respfd.verify.verification_report and exits 0 only
when every structural identity and the floating-point oracle comparison pass.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from . import io as rio
from .chains import extract_column_chains
from .errors import (
    EmptyMatrix,
    EvalAtPole,
    HintMismatch,
    IncompleteBasis,
    IrrationalSpectrum,
    MatrixParseError,
    MatrixTooLarge,
    NonSquareMatrix,
    RepeatedQuadraticFactor,
    RespfdError,
    SelfCheckFailed,
)
from .exponential import decompose, general_solution, matrix_exponential, solve_ivp
from .linalg import Matrix, faddeev_leverrier
from .pfd import all_passed
from .polynomials import factor_charpoly
from .scalars import parse_rational, parse_scalar
from .verify import verification_report

_STAGE_BY_ERROR = {
    IrrationalSpectrum: "factor",
    RepeatedQuadraticFactor: "factor",
    HintMismatch: "factor",
    MatrixTooLarge: "input",
    EvalAtPole: "reconstruct",
    IncompleteBasis: "chains",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="respfd",
        description=(
            "Exact partial fractions of the matrix resolvent: eigenvector "
            "chains, closed-form matrix exponentials, and linear ODE solutions."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("matrix", help="matrix file path, or - for stdin")
        p.add_argument(
            "--mode",
            choices=["complex", "real", "auto"],
            default="auto",
            help="factorization mode (auto: complex when every eigenvalue is in Q(i), else real)",
        )
        p.add_argument(
            "--format",
            choices=["text", "latex", "json"],
            default="text",
            dest="fmt",
            help="output format",
        )
        p.add_argument("--roots", help="file of eigenvalue hints: one 'root multiplicity' per line")

    add_common(sub.add_parser("charpoly", help="characteristic polynomial and factorization"))
    add_common(sub.add_parser("pfd", help="partial fraction decomposition of the resolvent"))
    add_common(sub.add_parser("chains", help="generalized eigenvector chains (complex mode)"))
    add_common(sub.add_parser("exp", help="closed-form matrix exponential"))
    p_solve = sub.add_parser("solve", help="solve the initial value problem y' = Ay")
    add_common(p_solve)
    p_solve.add_argument("--y0", required=True, help="initial vector, e.g. \"1,-1,2\"")
    add_common(sub.add_parser("general", help="general solution of y' = Ay"))
    p_verify = sub.add_parser("verify", help="run every structural identity and the oracle")
    add_common(p_verify)
    p_verify.add_argument(
        "--t",
        default="0.1,0.5,1.0",
        help="comma-separated sample times for the oracle comparison",
    )
    return parser


# The parser that run() uses, built on the first call and kept: building one
# costs about 30 times as much as a parse, and every parser is cyclic garbage.
# It caches the original function object, so a later replacement of
# cli.build_parser (which still returns a fresh parser) never reaches it.
_parser = functools.cache(build_parser)


def _load_matrix(path: str) -> Matrix:
    if path == "-":
        return rio.parse_matrix(sys.stdin.buffer.read())
    with open(path, "rb") as handle:
        return rio.parse_matrix(handle.read())


def _load_hints(path: str) -> list:
    hints = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split()
            if len(parts) != 2:
                raise UsageError(f"roots file line {lineno}: expected 'root multiplicity'")
            try:
                hints.append((parse_scalar(parts[0]), int(parts[1])))
            except (ValueError, ZeroDivisionError) as exc:
                raise UsageError(f"roots file line {lineno}: {exc}") from exc
    return hints


def _parse_y0(text: str) -> tuple:
    try:
        return tuple(parse_rational(tok) for tok in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"--y0: {exc}") from exc


def _parse_times(text: str) -> list[float]:
    try:
        times = [float(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"--t: {exc}") from exc
    if not all(math.isfinite(t) for t in times):
        raise UsageError(f"--t needs finite sample times, got {text!r}")
    return times


def _cmd_charpoly(a: Matrix, args, hints) -> str:
    charpoly, _ = faddeev_leverrier(a)
    factored = factor_charpoly(charpoly, args.mode, hints)
    return rio.render_charpoly(charpoly, factored, args.fmt)


def _cmd_pfd(a: Matrix, args, hints) -> str:
    pfd = decompose(a, args.mode, hints)
    return rio.render_pfd(pfd, args.fmt)


def _cmd_chains(a: Matrix, args, hints) -> str:
    if args.mode == "real":
        raise UsageError("chains requires complex mode (eigenvalue chains are undefined per quadratic factor)")
    try:
        pfd = decompose(a, "complex", hints)
    except IrrationalSpectrum as exc:
        raise IrrationalSpectrum(
            f"chains requires a complex-mode factorization: {exc}",
            residual=exc.residual,
        ) from exc
    groups = []
    for idx, term in enumerate(pfd.linear):
        groups.append((term.eigenvalue, term.multiplicity, extract_column_chains(pfd, idx)))
    return rio.render_chains(groups, args.fmt)


def _cmd_exp(a: Matrix, args, hints) -> str:
    cf = matrix_exponential(a, args.mode, hints)
    return rio.render_exp(cf, args.fmt)


def _cmd_solve(a: Matrix, args, hints) -> str:
    y0 = _parse_y0(args.y0)
    if len(y0) != a.nrows:
        raise UsageError(
            f"--y0 has {len(y0)} entries but the matrix is {a.nrows}x{a.nrows}"
        )
    sol = solve_ivp(a, y0, args.mode, hints)
    return rio.render_solve(sol, args.fmt)


def _cmd_general(a: Matrix, args, hints) -> str:
    gen = general_solution(a, args.mode, hints)
    return rio.render_general(gen, args.fmt)


def _cmd_verify(a: Matrix, args, hints) -> tuple[str, int]:
    checks = verification_report(a, args.mode, hints, _parse_times(args.t))
    return rio.render_verify(checks, args.fmt), 0 if all_passed(checks) else 1


class UsageError(ValueError):
    pass


_DISPATCH = {
    "charpoly": _cmd_charpoly,
    "pfd": _cmd_pfd,
    "chains": _cmd_chains,
    "exp": _cmd_exp,
    "solve": _cmd_solve,
    "general": _cmd_general,
}


def run(argv) -> tuple[int, str, str]:
    """Execute a command line; returns (exit code, stdout text, stderr text)."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else 2), "", ""
    try:
        matrix = _load_matrix(args.matrix)
        hints = _load_hints(args.roots) if args.roots else None
        if args.command == "verify":
            output, code = _cmd_verify(matrix, args, hints)
            return code, output, ""
        output = _DISPATCH[args.command](matrix, args, hints)
        return 0, output, ""
    except (MatrixParseError, NonSquareMatrix, EmptyMatrix) as exc:
        return 2, "", f"parse: {exc}\n"
    except UsageError as exc:
        return 2, "", f"usage: {exc}\n"
    except (OSError, UnicodeDecodeError) as exc:
        return 2, "", f"input: {exc}\n"
    except RespfdError as exc:
        stage = _STAGE_BY_ERROR.get(type(exc), "pipeline")
        return 1, "", f"{stage}: {type(exc).__name__}: {exc}\n"
    except SelfCheckFailed as exc:
        return 3, "", f"{exc.stage}: internal self-check failed: {exc}\n"


def main(argv=None) -> int:
    code, out, err = run(sys.argv[1:] if argv is None else argv)
    if out:
        sys.stdout.write(out)
    if err:
        sys.stderr.write(err)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
