"""CLI output snapshot: exit code and stdout digest of every subcommand.

Covers the five goldens, one mixed linear + quadratic matrix and three
matrices that reach the rendering branches for p/q and zero eigenvalues,
p/q Gaussian pairs and irrational frequencies, in every subcommand, format
and valid mode.  The digests in `cli_snapshot.json` pin
the exact stdout bytes, so a refactor that changes any rendered B_ij,
closed-form coefficient or check name fails here.  `verify` prints float
errors as `{:.3e}`; those numbers are masked before hashing so a last-ulp
difference in the platform's libm cannot flip the digest.

Re-record (only when an output change is intended):

    PYTHONPATH=src python -m tests.test_cli_snapshot --record
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

from respfd import io
from respfd.cli import run
from respfd.io import matrix_to_file_text
from tests.conftest import GOLDEN_MATRICES, block_diagonal, disguised

SNAPSHOT_FILE = Path(__file__).with_name("cli_snapshot.json")

MIXED = disguised(block_diagonal([[1, -2], [2, 1]], [[3, 1], [0, 3]], [[-1]]), 6)
HALF = Fraction(1, 2)
# J2(-1/2), 3/2, 0, 1, -1: e^t, e^(-t), the basis 1 and (s + 1/2)^2.
RATIONAL_PQ = disguised(block_diagonal([[-HALF, 1], [0, -HALF]], [[3 * HALF]], [[0]], [[1]], [[-1]]), 3)
# 1/2 +- 3/2 i and -1/3: a p/q Gaussian pair and the frequency (3/2)t.
GAUSSIAN_PQ = disguised(block_diagonal([[HALF, -3 * HALF], [3 * HALF, HALF]], [[Fraction(-1, 3)]]), 4)
# -1/2 +- sqrt(2) i, +- sqrt(3) i and 2: sqrt(d) frequencies and the 1/sqrt(d) sine scale.
SURD = disguised(block_diagonal([[-HALF, -2], [1, -HALF]], [[0, -3], [1, 0]], [[2]]), 5)
MATRICES = {
    "golden_3x3_chains": GOLDEN_MATRICES[0],
    "golden_2x2_distinct": GOLDEN_MATRICES[1],
    "golden_2x2_rotation": GOLDEN_MATRICES[2],
    "golden_3x3_ivp": GOLDEN_MATRICES[3],
    "golden_3x3_spiral": GOLDEN_MATRICES[4],
    "mixed_5x5": MIXED,
    "rational_pq_6x6": RATIONAL_PQ,
    "gaussian_pq_3x3": GAUSSIAN_PQ,
    "surd_5x5": SURD,
}
SUBCOMMANDS = ("charpoly", "pfd", "chains", "exp", "solve", "general", "verify")
FORMATS = ("text", "latex", "json")
_FLOAT_ERROR = re.compile(r"\d\.\d{3}e[+-]\d+")


def _modes(subcommand: str) -> tuple:
    return ("complex", "auto") if subcommand == "chains" else ("complex", "real", "auto")


def _digest(subcommand: str, stdout: str) -> str:
    if subcommand == "verify":
        stdout = _FLOAT_ERROR.sub("<err>", stdout)
    return hashlib.sha256(stdout.encode()).hexdigest()


def _observe(name: str, subcommand: str, directory: str) -> dict:
    matrix = MATRICES[name]
    path = Path(directory) / f"{name}.txt"
    path.write_text(matrix_to_file_text(matrix))
    extra = ["--y0", ",".join(str(k + 1) for k in range(matrix.nrows))] if subcommand == "solve" else []
    out = {}
    for mode in _modes(subcommand):
        for fmt in FORMATS:
            code, stdout, _ = run([subcommand, str(path), "--mode", mode, "--format", fmt, *extra])
            out[f"{mode}/{fmt}"] = [code, _digest(subcommand, stdout)]
    return out


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
@pytest.mark.parametrize("name", sorted(MATRICES))
def test_cli_snapshot(name, subcommand, tmp_path):
    expected = json.loads(SNAPSHOT_FILE.read_text())[name][subcommand]
    assert _observe(name, subcommand, str(tmp_path)) == expected


@pytest.mark.parametrize("name", sorted(MATRICES))
def test_json_writer_matches_the_stdlib_on_every_snapshot_payload(name, tmp_path, monkeypatch):
    payloads = []
    writer = io._finish_json
    monkeypatch.setattr(io, "_finish_json", lambda payload: payloads.append(payload) or writer(payload))
    path = tmp_path / f"{name}.txt"
    path.write_text(matrix_to_file_text(MATRICES[name]))
    y0 = ["--y0", ",".join(str(k + 1) for k in range(MATRICES[name].nrows))]
    for subcommand in SUBCOMMANDS:
        for mode in _modes(subcommand):
            run([subcommand, str(path), "--mode", mode, "--format", "json", *(y0 if subcommand == "solve" else [])])
    assert payloads
    for payload in payloads:
        assert writer(payload) == json.dumps(payload, indent=2) + "\n"


def _record() -> None:
    with tempfile.TemporaryDirectory() as directory:
        snapshot = {
            name: {sub: _observe(name, sub, directory) for sub in SUBCOMMANDS}
            for name in sorted(MATRICES)
        }
    SNAPSHOT_FILE.write_text(json.dumps(snapshot, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: python -m tests.test_cli_snapshot --record")
    _record()
