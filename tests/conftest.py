"""Shared fixtures: golden matrices and the planted-Jordan random generator."""

from __future__ import annotations

import contextlib
import random
import signal
from fractions import Fraction

import pytest

from respfd.linalg import Matrix, inverse

# The five matrices with hand-checked decompositions, exponentials, chains.
GOLDEN_3X3_CHAINS = Matrix.from_rows([[0, 1, 2], [-2, 4, 0], [-1, 1, 2]])
GOLDEN_2X2_DISTINCT = Matrix.from_rows([[6, 4], [-3, -1]])
GOLDEN_2X2_ROTATION = Matrix.from_rows([[5, 17], [-2, -5]])
GOLDEN_3X3_IVP = Matrix.from_rows([[-5, 6, 2], [-6, 7, 2], [6, -6, -1]])
GOLDEN_3X3_SPIRAL = Matrix.from_rows([[1, 9, 6], [-6, -20, -12], [9, 24, 13]])

GOLDEN_MATRICES = [
    GOLDEN_3X3_CHAINS,
    GOLDEN_2X2_DISTINCT,
    GOLDEN_2X2_ROTATION,
    GOLDEN_3X3_IVP,
    GOLDEN_3X3_SPIRAL,
]

NILPOTENT_2X2 = Matrix.from_rows([[0, 1], [0, 0]])

EIGENVALUE_POOL = [
    Fraction(-3),
    Fraction(-2),
    Fraction(-1),
    Fraction(0),
    Fraction(1),
    Fraction(2),
    Fraction(3),
    Fraction(1, 2),
    Fraction(-1, 2),
    Fraction(3, 2),
]


def _random_partition(rng: random.Random, total: int, parts: int) -> list[int]:
    """Split total into `parts` positive integers, uniformly-ish."""
    cuts = sorted(rng.sample(range(1, total), parts - 1)) if parts > 1 else []
    bounds = [0] + cuts + [total]
    return [b - a for a, b in zip(bounds, bounds[1:])]


def _random_block_sizes(rng: random.Random, multiplicity: int) -> list[int]:
    parts = rng.randint(1, multiplicity)
    return sorted(_random_partition(rng, multiplicity, parts), reverse=True)


def _jordan_matrix(blocks: list[tuple[Fraction, int]]) -> Matrix:
    n = sum(size for _, size in blocks)
    rows = [[Fraction(0)] * n for _ in range(n)]
    offset = 0
    for lam, size in blocks:
        for i in range(size):
            rows[offset + i][offset + i] = lam
            if i + 1 < size:
                rows[offset + i][offset + i + 1] = Fraction(1)
        offset += size
    return Matrix.from_rows(rows)


def _random_unimodular(rng: random.Random, n: int) -> Matrix:
    rows = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-2, -1, 1, 2])
        candidate = [rows[j][k] + c * rows[i][k] for k in range(n)]
        if max(abs(x) for x in candidate) <= 40:
            rows[j] = candidate
    return Matrix.from_rows(rows)


def random_jordan_matrix(rng: random.Random, n: int | None = None):
    """A = S J S^{-1} with planted rational Jordan structure.

    Returns (A, spectrum) with spectrum a list of
    (eigenvalue, algebraic multiplicity, geometric multiplicity) sorted by
    eigenvalue.
    """
    if n is None:
        n = rng.randint(2, 6)
    k = rng.randint(1, min(3, n))
    eigenvalues = rng.sample(EIGENVALUE_POOL, k)
    mults = _random_partition(rng, n, k)
    blocks = []
    spectrum = []
    for lam, r in zip(eigenvalues, mults):
        sizes = _random_block_sizes(rng, r)
        spectrum.append((lam, r, len(sizes)))
        blocks.extend((lam, size) for size in sizes)
    jordan = _jordan_matrix(blocks)
    s = _random_unimodular(rng, n)
    a = s @ jordan @ inverse(s)
    spectrum.sort(key=lambda item: item[0])
    return a, spectrum


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260808)


@contextlib.contextmanager
def deadline(seconds: float):
    """Fail (rather than hang) when the body runs longer than `seconds`."""

    def fire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def block_diagonal(*blocks) -> Matrix:
    n = sum(len(block) for block in blocks)
    rows = [[Fraction(0)] * n for _ in range(n)]
    offset = 0
    for block in blocks:
        for i, row in enumerate(block):
            for j, x in enumerate(row):
                rows[offset + i][offset + j] = Fraction(x)
        offset += len(block)
    return Matrix.from_rows(rows)


def companion(*low_coeffs) -> list:
    """Companion block of the monic polynomial with these ascending low coefficients."""
    n = len(low_coeffs)
    rows = [[1 if i == j + 1 else 0 for j in range(n)] for i in range(n)]
    for i, c in enumerate(low_coeffs):
        rows[i][-1] = -c
    return rows


def disguised(a: Matrix, seed: int) -> Matrix:
    """S A S^{-1} for a seeded unimodular S: same spectrum, dense entries."""
    s = _random_unimodular(random.Random(seed), a.nrows)
    return s @ a @ inverse(s)
