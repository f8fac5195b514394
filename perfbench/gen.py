"""Seeded workload generators.

Every op is planted: the generator builds A = S J S^{-1} from a chosen real
block form J and a unimodular S, so it knows the spectrum, the mode that
`--mode auto` must reach and the outcome class (exit code plus error name)
a correct program gives.  The same seed gives the same ops.

A workload is a *cycle*: a fixed list of strata, one op each, replayed in a
closed loop.  Stratifying by size (and, in `spectra`, by the bit length of
the charpoly's constant term) keeps the op mix of a run independent of the
seed, so metrics stay comparable across seeds.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from exact import CQ, matmul

F = Fraction
GOLDEN = {
    "golden_chains": [[0, 1, 2], [-2, 4, 0], [-1, 1, 2]],
    "golden_distinct": [[6, 4], [-3, -1]],
    "golden_rotation": [[5, 17], [-2, -5]],
    "golden_ivp": [[-5, 6, 2], [-6, 7, 2], [6, -6, -1]],
    "golden_spiral": [[1, 9, 6], [-6, -20, -12], [9, 24, 13]],
}
# Planted golden spectra: (rational or Q(i) eigenvalue, multiplicity).
GOLDEN_SPECTRA = {
    "golden_chains": [(F(2), 3)],
    "golden_distinct": [(F(2), 1), (F(3), 1)],
    "golden_rotation": [(CQ(0, -3), 1), (CQ(0, 3), 1)],
    "golden_ivp": [(F(-1), 1), (F(1), 2)],
    "golden_spiral": [(F(-2), 1), (CQ(-2, -3), 1), (CQ(-2, 3), 1)],
}
NON_SQUARES = (2, 3, 5, 6, 7, 10)
GENERATED_TIMEOUT_S = 20.0
PROBE_TIMEOUT_S = 2.0


@dataclass
class Spectrum:
    """What a correct factorization of the planted matrix contains."""

    linear: dict = field(default_factory=dict)  # eigenvalue (Fraction | CQ) -> multiplicity
    quadratic: list = field(default_factory=list)  # [(a, d)] meaning (s+a)^2 + d, d non-square

    def complex_ok(self) -> bool:
        return not self.quadratic

    def eigenvalues(self, mode: str) -> dict:
        """Linear factors in the given mode; real mode turns Q(i) pairs into quadratics."""
        if mode == "complex":
            return dict(self.linear)
        return {k: m for k, m in self.linear.items() if not isinstance(k, CQ)}

    def quadratics(self, mode: str) -> list:
        if mode == "complex":
            return []
        out = list(self.quadratic)
        for lam, m in self.linear.items():
            if isinstance(lam, CQ) and lam.im > 0:
                out.extend([(-lam.re, lam.im * lam.im)] * m)
        return sorted(out)


@dataclass
class Op:
    name: str
    case: str  # key of the matrix file
    command: str
    fmt: str = "json"
    mode: str = "auto"
    extra: list = field(default_factory=list)
    expect: tuple = (0, None)  # (exit code, error name)
    timeout: float = GENERATED_TIMEOUT_S
    probe: str | None = None
    y0: list | None = None

    def argv(self, path: str) -> list:
        argv = [self.command, path, "--format", self.fmt]
        if self.mode != "auto":
            argv += ["--mode", self.mode]
        if self.y0 is not None:
            argv.append("--y0=" + ",".join(str(v) for v in self.y0))
        return argv + list(self.extra)

    @property
    def sibling(self) -> tuple:
        """Key shared by the text, LaTeX and JSON renderings of one result."""
        return (self.case, self.command, self.mode, tuple(self.extra), tuple(self.y0 or ()))


@dataclass
class Case:
    matrix: list  # rows of Fractions
    spectrum: Spectrum | None  # None when the spectrum is not planted (probes)


@dataclass
class Workload:
    cases: dict  # name -> Case
    cycle: list  # [Op]


@dataclass
class Pool:
    """Distinct cycles of one workload; a run replays them round-robin."""

    cases: dict
    cycles: list  # [[Op]]


def block_matrix(blocks) -> tuple[list, Spectrum]:
    """Real block form J and its spectrum.

    ("jordan", lam, size); ("rot", a, b, m): m coupled copies of
    [[a, -b], [b, a]], eigenvalues a +- bi of multiplicity m;
    ("quad", a, d): [[-a, 1], [-d, -a]], charpoly (s+a)^2 + d.
    """
    n = sum(b[2] if b[0] == "jordan" else (2 * b[3] if b[0] == "rot" else 2) for b in blocks)
    j = [[F(0)] * n for _ in range(n)]
    spec = Spectrum()
    at = 0
    for b in blocks:
        if b[0] == "jordan":
            _, lam, size = b
            for i in range(size):
                j[at + i][at + i] = F(lam)
                if i + 1 < size:
                    j[at + i][at + i + 1] = F(1)
            spec.linear[F(lam)] = spec.linear.get(F(lam), 0) + size
            at += size
        elif b[0] == "rot":
            _, a, bb, m = b
            for k in range(m):
                o = at + 2 * k
                j[o][o], j[o][o + 1], j[o + 1][o], j[o + 1][o + 1] = F(a), F(-bb), F(bb), F(a)
                if k + 1 < m:
                    j[o][o + 2] = j[o + 1][o + 3] = F(1)
            for lam in (CQ(a, bb), CQ(a, -bb)):
                spec.linear[lam] = spec.linear.get(lam, 0) + m
            at += 2 * m
        else:
            _, a, d = b
            j[at][at], j[at][at + 1], j[at + 1][at], j[at + 1][at + 1] = F(-a), F(1), F(-d), F(-a)
            spec.quadratic.append((F(a), F(d)))
            at += 2
    spec.quadratic.sort()
    return j, spec


def unimodular(rng: random.Random, n: int, bound: int = 6) -> tuple[list, list]:
    """Integer S with det 1 and its integer inverse, from 2n row operations.

    A fixed count of applied operations keeps entry sizes, and so the cost
    of an op, alike across seeds.
    """
    s = [[int(i == j) for j in range(n)] for i in range(n)]
    s_inv = [row[:] for row in s]
    applied = 0
    while n > 1 and applied < 2 * n:
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        row = [s[j][k] + c * s[i][k] for k in range(n)]
        if max(abs(x) for x in row) > bound:
            continue
        s[j] = row  # S <- E S with E = I + c e_j e_i^T
        for r in range(n):  # S^{-1} <- S^{-1} E^{-1}
            s_inv[r][i] -= c * s_inv[r][j]
        applied += 1
    return s, s_inv


def planted(rng: random.Random, blocks) -> Case:
    """A = S J S^{-1}, computed on integers: J has only integer and half entries."""
    j, spec = block_matrix(blocks)
    s, s_inv = unimodular(rng, len(j))
    twice = matmul(matmul(s, [[int(2 * x) for x in row] for row in j]), s_inv)
    return Case([[F(x, 2) for x in row] for row in twice], spec)


def template_blocks(rng: random.Random, template: str) -> list:
    """Blocks for a structure template such as "J3,1 H2 P1 Q".

    Each word takes a fresh value: J<sizes> an integer eigenvalue with those
    Jordan block sizes, H<sizes> a half-integer one, P<m> a Q(i) pair a +- bi
    with m coupled copies, Q a real quadratic (s+a)^2 + d with d not a
    square.  The k-th word of a kind always gets the same magnitudes and only
    the signs vary with the seed (as does S), so an op's cost is much the
    same on every seed while its inputs differ.
    """

    def sign():
        return rng.choice((-1, 1))

    integers = [sign() * m for m in (1, 2, 3, 4)]
    halves = [sign() * F(m, 2) for m in (1, 3)]
    pairs = [(sign() * a, b) for a, b in ((1, 2), (2, 1), (1, 1))]
    quads = [(sign() * a, d) for a, d in ((1, 2), (1, 3), (2, 5))]
    for pool in (integers, halves, pairs, quads):
        pool.reverse()  # pop() hands them out in the order listed
    blocks = []
    for word in template.split():
        kind, arg = word[0], word[1:]
        if kind in "JH":
            lam = integers.pop() if kind == "J" else halves.pop()
            blocks.extend(("jordan", lam, int(size)) for size in arg.split(","))
        elif kind == "P":
            blocks.append(("rot", *pairs.pop(), int(arg)))
        else:
            blocks.append(("quad", *quads.pop()))
    rng.shuffle(blocks)
    return blocks


def random_y0(rng: random.Random, n: int) -> list:
    while True:
        y0 = [rng.randint(-3, 3) for _ in range(n)]
        if any(y0):
            return y0


# ---------------------------------------------------------------------------
# workloads


JORDAN_TEMPLATES = {8: "J3,1 J2 H1,1", 10: "J3,2 J2,1 H2", 12: "J4,2 J3,1 H1,1"}


def gen_jordan(rng: random.Random) -> Workload:
    """Planted rational Jordan matrices at n = 8, 10, 12 (12 is SIZE_LIMIT)."""
    cases, cycle = {}, []
    for n, template in JORDAN_TEMPLATES.items():
        for command in ("exp", "chains", "solve", "general"):
            name = f"jordan_n{n}_{command}"
            cases[name] = planted(rng, template_blocks(rng, template))
            y0 = random_y0(rng, n) if command == "solve" else None
            cycle.append(Op(name, name, command, y0=y0))
    return Workload(cases, cycle)


# One op per template; P = Q(i) pair, Q = real quadratic (auto falls back to real).
VERIFY_TEMPLATES = (
    "J2,1 J1 H1,1",
    "P1 J2 H1,1",
    "P2 J1 H1",
    "P1 P1 J2 H1",
    "Q J2,1 H1,1",
    "P1 Q J2 H1,1",
    "Q Q J2,1 H1",
    "J3,1 J2 H1,1",
    "P1 Q J3 H1,1",
    "Q J3,1 J2 H1,1",
    "J3,2 J2,1 H2",
    "Q Q J3 J2 H2",
    "J4,2 J3,1 H1,1",
)


def gen_verify(rng: random.Random) -> Workload:
    """`verify` at n = 6..12 over mixed rational, Q(i) and real-quadratic spectra."""
    cases, cycle = {}, []
    for idx, template in enumerate(VERIFY_TEMPLATES):
        case = planted(rng, template_blocks(rng, template))
        name = f"verify_{idx}_n{len(case.matrix)}_" + template.replace(" ", "_").replace(",", "")
        cases[name] = case
        cycle.append(Op(name, name, "verify", fmt="text"))
    return Workload(cases, cycle)


# c0 strata (bits of the charpoly's integer constant term) for `spectra`.
SPECTRA_BITS = (6, 10, 14, 18, 22, 26, 30, 34, 38, 40, 42, 44, 46, 48)


def _big_spectrum_blocks(rng: random.Random, n: int, c0_bits: int, shape: str) -> list:
    """Blocks whose charpoly has |c0| within 5% above 2^c0_bits.

    shape "rational": integer eigenvalues only; "qi": one Q(i) pair;
    "quad": one real quadratic, so complex mode fails and auto factors twice.
    The large factor is a single integer eigenvalue (or the quadratic's d).
    """
    small = []
    rest = n - 1 if shape == "rational" else n - 2
    if shape == "qi":
        a, b = rng.choice((-1, 1, 2)), rng.choice((1, 2))
        small_blocks = [("rot", a, b, 1)]
        prod = a * a + b * b
    else:
        small_blocks, prod = [], 1
    for _ in range(rest - (1 if shape == "quad" else 0)):
        lam = rng.choice((-3, -2, -1, 1, 2, 3))
        small.append(lam)
        prod *= abs(lam)
    target = (2**c0_bits) * (1 + rng.random() / 20)
    big = max(2, round(target / prod))
    if shape == "quad":
        # the big factor lives in d of (s+a)^2 + d; keep d a non-square
        a = rng.choice((-1, 0, 1))
        d = big - a * a
        while _is_square(d):
            d += 1
        blocks = [("quad", a, d)]
        if rest > len(small):
            blocks.append(("jordan", rng.choice((-2, -1, 1, 2)), 1))
    else:
        sign = rng.choice((-1, 1))
        while big in small or -big in small:
            big += 1
        blocks = [("jordan", sign * big, 1)]
    blocks += [("jordan", lam, 1) for lam in small] + small_blocks
    rng.shuffle(blocks)
    return blocks


def _is_square(x: int) -> bool:
    return x >= 0 and math.isqrt(x) ** 2 == x


def _companion(coeffs_ascending: list) -> list:
    """Companion matrix of the monic polynomial with the given low coefficients."""
    n = len(coeffs_ascending)
    m = [[F(0)] * n for _ in range(n)]
    for i in range(1, n):
        m[i][i - 1] = F(1)
    for i in range(n):
        m[i][n - 1] = -F(coeffs_ascending[i])
    return m


def spectra_probes(rng: random.Random) -> tuple[dict, list]:
    """The ROADMAP probes: hangs, in-scope rejections and an overflow traceback."""
    cases, ops = {}, []

    def add(name, case, command, expect, mode="auto", extra=(), fmt="json"):
        cases[name] = case
        ops.append(Op(name, name, command, fmt=fmt, mode=mode, extra=list(extra), expect=expect,
                      timeout=PROBE_TIMEOUT_S, probe=name))

    add("prime_pair_2x2",
        Case([[F(1000000007), F(1)], [F(0), F(1000000009)]],
             Spectrum({F(1000000007): 1, F(1000000009): 1})),
        "pfd", (0, None))
    add("random_int_12x12",
        Case([[F(rng.randint(-20, 20)) for _ in range(12)] for _ in range(12)], None),
        "pfd", (1, "IrrationalSpectrum"))
    # eigenvalues +-i, 1+-2i, 2+-i: in scope over Q(i), residual degree 6
    add("qi_three_pairs_6x6",
        planted(rng, [("rot", 0, 1, 1), ("rot", 1, 2, 1), ("rot", 2, 1, 1)]),
        "pfd", (0, None), mode="complex")
    # (s^2+1)^3 = s^6 + 3 s^4 + 3 s^2 + 1
    add("qi_cubed_companion_6x6",
        Case(_companion([1, 0, 3, 0, 3, 0]), Spectrum({CQ(0, 1): 3, CQ(0, -1): 3})),
        "pfd", (0, None), mode="complex")
    add("real_three_quadratics_6x6",
        planted(rng, [("quad", 0, 2), ("quad", 0, 3), ("quad", 0, 5)]),
        "pfd", (0, None), mode="real")
    # e^{1000 * 1000} is no float: the right outcome is a named FAIL (exit 1)
    add("verify_t1000_large_eig",
        planted(rng, [("jordan", F(1000), 1), ("jordan", F(-1), 2)]),
        "verify", (1, None), extra=("--t", "1000"), fmt="text")
    return cases, ops


def gen_spectra(rng: random.Random) -> Workload:
    """charpoly / pfd / exp in auto mode at n = 2..8 over c0 strata, plus verify and probes.

    `_divisors` trial division costs O(sqrt|c0|), so the strata run from
    microseconds to seconds; "quad" spectra make auto factor twice.
    """
    cases, cycle = {}, []
    commands = ("charpoly", "pfd", "exp")
    shapes = ("rational", "qi", "quad")
    for idx, c0_bits in enumerate(SPECTRA_BITS):
        n = 2 + idx % 7
        shape = shapes[idx % 3]
        if shape != "rational" and n < 3:
            n = 3
        name = f"spectra_{idx}_n{n}_{shape}_c0b{c0_bits}"
        cases[name] = planted(rng, _big_spectrum_blocks(rng, n, c0_bits, shape))
        cycle.append(Op(name, name, commands[idx % 3]))
    # verify share: moderate spectra pass.  e^{2000 t} and e^{100000 t}
    # overflow a float at t = 0.5; the right outcome is a named FAIL (exit 1),
    # today it is an OverflowError traceback.
    for idx, (template, big) in enumerate(
        (("J2 H1,1", 0), ("P1 J2 H1,1", 0), ("J2 H1,1", 2000), ("J1 H1", 100000))
    ):
        blocks = template_blocks(rng, template) + ([("jordan", big, 1)] if big else [])
        case = planted(rng, blocks)
        name = f"spectra_verify_{idx}_n{len(case.matrix)}" + (f"_eig{big}" if big else "")
        cases[name] = case
        cycle.append(Op(name, name, "verify", fmt="text", expect=(1, None) if big else (0, None)))
    # Alike ops as costly as the strata around the median (exp at n = 6) and
    # around the 75th percentile (pfd at n = 10), so that latency_p50_ms and
    # latency_tail_ms sit on plateaus rather than on a ramp of strata.
    for idx, (template, command) in enumerate(
        [("J2,1 J2 H1,1", "exp")] * 6 + [("J3,2 J2,1 H2", "pfd")] * 10
    ):
        name = f"spectra_plateau_{idx}_{command}"
        cases[name] = planted(rng, template_blocks(rng, template))
        cycle.append(Op(name, name, command))
    probe_cases, probe_ops = spectra_probes(rng)
    cases.update(probe_cases)
    cycle.extend(probe_ops)
    return Workload(cases, cycle)


SMALL_COMMANDS = ("charpoly", "pfd", "chains", "exp", "solve", "general", "verify")


def gen_small(rng: random.Random) -> Workload:
    """The goldens plus planted n = 2..4, every subcommand in every format."""
    cases = {}
    for name, rows in GOLDEN.items():
        spec = Spectrum()
        for lam, m in GOLDEN_SPECTRA[name]:
            spec.linear[lam] = m
        cases[name] = Case([[F(x) for x in row] for row in rows], spec)
    for name, template in (("small_jordan", "J2,1 H1"), ("small_qi", "P1 J1"), ("small_quad", "Q H1,1")):
        cases[name] = planted(rng, template_blocks(rng, template))
    cycle = []
    for name, case in cases.items():
        n = len(case.matrix)
        for command in SMALL_COMMANDS:
            y0 = random_y0(rng, n) if command == "solve" else None
            expect = (0, None)
            if command == "chains" and not case.spectrum.complex_ok():
                expect = (1, "IrrationalSpectrum")
            # JSON first: text and LaTeX are checked against the verified JSON
            for fmt in ("json", "text", "latex"):
                cycle.append(Op(f"{name}_{command}_{fmt}", name, command, fmt=fmt, y0=y0,
                                expect=expect))
    # a usage error: --y0 of the wrong length
    cycle.append(Op("small_bad_y0", "golden_chains", "solve", fmt="text", y0=[1, 2],
                    expect=(2, "usage")))
    return Workload(cases, cycle)


GENERATORS = {
    "jordan": gen_jordan,
    "verify": gen_verify,
    "spectra": gen_spectra,
    "small": gen_small,
}


# Distinct cycles per workload: more than a 20 s run gets through here, so
# every op of a run is a fresh draw and the run-to-run spread stays small.
POOL_CYCLES = {"jordan": 20, "verify": 5, "spectra": 3, "small": 16}
# Cycles every run executes, whatever the clock says: enough samples that the
# tail percentile of run.py has ten beyond it.  output_digest covers them.
MIN_CYCLES = {"jordan": 10, "verify": 4, "spectra": 2, "small": 7}


def generate(workload: str, seed: int) -> Pool:
    cases, cycles = {}, []
    for i in range(POOL_CYCLES[workload]):
        w = GENERATORS[workload](random.Random(f"{workload}:{seed}:{i}"))
        for name, case in w.cases.items():
            cases[f"c{i}_{name}"] = case
        cycle = []
        for op in w.cycle:
            op.case = f"c{i}_{op.case}"
            op.name = f"c{i}_{op.name}"
            cycle.append(op)
        cycles.append(cycle)
    return Pool(cases, cycles)
