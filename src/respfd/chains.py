"""Chains of generalized eigenvectors read off the decomposition columns.

For an eigenvalue lambda with coefficients B_1..B_r, the m-th columns of
B_1, B_2, ..., truncated at the last nonzero one, form a chain

    (A - lambda I) v_j = v_{j+1},   (A - lambda I) v_l = 0,

so the final vector is an eigenvector and the j-th vector has generalized
rank l - j + 1.  Chains are emitted unnormalized, exactly as column data.

select_chain_basis greedily assembles a full basis of the generalized
eigenspace from column chains (longest first, ties broken by lower column
index), verifying joint linear independence with exact rank tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import IncompleteBasis, InconsistentSystem, NotAGeneralizedEigenvector, SelfCheckFailed
from .linalg import Matrix, mat_vec, rank, solve, vec_is_zero
from .pfd import ResolventPFD
from .scalars import Scalar


@dataclass(frozen=True)
class Chain:
    """One chain v_1 -> v_2 -> ... -> v_l ending with an eigenvector."""

    eigenvalue: Scalar
    vectors: tuple  # tuples of exact scalars
    column: int  # 0-based source column in the B matrices

    @property
    def length(self) -> int:
        return len(self.vectors)

    def eigenvector(self) -> tuple:
        return self.vectors[-1]


@dataclass(frozen=True)
class ChainBasis:
    """Jointly independent chains spanning one generalized eigenspace."""

    eigenvalue: Scalar
    chains: tuple

    @property
    def total_vectors(self) -> int:
        return sum(chain.length for chain in self.chains)

    def all_vectors(self) -> list[tuple]:
        return [v for chain in self.chains for v in chain.vectors]


def extract_column_chains(pfd: ResolventPFD, eigenvalue_index: int) -> list[Chain]:
    """All nonempty column chains for one eigenvalue, in column order."""
    term = pfd.linear[eigenvalue_index]
    n = pfd.size
    chains = []
    for m in range(n):
        # the chain ends at the last B_j whose m-th column is nonzero, read off the integer planes
        length = 0
        for j, b in enumerate(term.coefficients, start=1):
            if any(b.re[m::n]) or (b.im is not None and any(b.im[m::n])):
                length = j
        if length:
            chains.append(Chain(term.eigenvalue, tuple(b.column(m) for b in term.coefficients[:length]), m))
    return chains


def generalized_rank(a: Matrix, eigenvalue: Scalar, v) -> int:
    """Smallest p >= 1 with (A - lambda I)^p v = 0.

    Raises NotAGeneralizedEigenvector when v is zero or does not belong to
    the generalized eigenspace of lambda.
    """
    if vec_is_zero(v):
        raise NotAGeneralizedEigenvector("the zero vector has no generalized rank")
    n = a.nrows
    shifted = a - Matrix.identity(n) * eigenvalue
    w = tuple(v)
    for p in range(1, n + 1):
        w = mat_vec(shifted, w)
        if vec_is_zero(w):
            return p
    raise NotAGeneralizedEigenvector(
        f"vector does not lie in the generalized eigenspace of {eigenvalue}"
    )


def _in_column_space(m: Matrix, v) -> bool:
    try:
        solve(m, v)
        return True
    except InconsistentSystem:
        return False


def membership_check(pfd: ResolventPFD, eigenvalue_index: int, v) -> tuple[bool, int]:
    """Column-space membership of v in the B_j family of one eigenvalue.

    Returns (is_member, j0): is_member says whether v lies in the column
    space of B_1 (the generalized eigenspace); for members,
    j0 = 1 + max{ m : v in Image((A - lambda I)^m) }, and v is verified to
    lie in the column space of every B_j with j <= j0.  Non-members get
    (False, 0).
    """
    if vec_is_zero(v):
        raise ValueError("membership_check requires a nonzero vector")
    term = pfd.linear[eigenvalue_index]
    if not _in_column_space(term.coefficient(1), v):
        return False, 0
    n = pfd.size
    shifted = pfd.matrix - Matrix.identity(n) * term.eigenvalue
    power = Matrix.identity(n)
    max_m = 0
    for m in range(1, term.multiplicity + 1):
        power = shifted @ power
        if _in_column_space(power, v):
            max_m = m
        else:
            break
    j0 = 1 + max_m
    for j in range(1, min(j0, term.multiplicity) + 1):
        if not _in_column_space(term.coefficient(j), v):
            raise SelfCheckFailed(
                "chains",
                f"column-space membership violated for B_{j} at eigenvalue "
                f"{term.eigenvalue}; decomposition is inconsistent",
            )
    return True, j0


def select_chain_basis(pfd: ResolventPFD, eigenvalue_index: int) -> ChainBasis:
    """Chain-basis assembly for one eigenvalue from whole column chains.

    Candidates are ordered longest first (ties: lower column index) and a
    chain is admitted only when all its vectors extend the current
    independent set.  The greedy admit-first pass is backed by exhaustive
    backtracking, so the result is deterministic, equals the plain greedy
    answer whenever that succeeds, and IncompleteBasis is raised only when
    no subset of whole column chains can carry r_i independent vectors.

    IncompleteBasis is a real outcome, not only a defensive guard: a
    nilpotent structure with blocks (2, 2, 1) and no zero column in the
    first coefficient matrix offers only length-2 column chains, whose
    subsets all have even total and so can never span the 5-dimensional
    generalized eigenspace.
    """
    term = pfd.linear[eigenvalue_index]
    target = term.multiplicity
    candidates = sorted(
        extract_column_chains(pfd, eigenvalue_index), key=lambda c: (-c.length, c.column)
    )
    selected = _search(candidates, target, 0, [], [])
    if selected is None:
        raise IncompleteBasis(
            f"no subset of column chains spans the {target}-dimensional "
            f"generalized eigenspace of eigenvalue {term.eigenvalue}"
        )
    return ChainBasis(term.eigenvalue, tuple(selected))


def _search(candidates: list[Chain], target: int, idx: int, chosen: list[Chain], stacked: list[tuple]):
    """First admit-first extension of `chosen` by candidates[idx:] to `target` vectors, or None.

    A module-level function: a nested one that calls itself forms a
    function <-> closure-cell cycle that keeps every candidate chain alive
    until the cyclic GC runs.
    """
    if len(stacked) == target:
        return chosen
    if idx == len(candidates):
        return None
    if len(stacked) + sum(c.length for c in candidates[idx:]) < target:
        return None
    chain = candidates[idx]
    if len(stacked) + chain.length <= target:
        trial = stacked + list(chain.vectors)
        if rank(Matrix.from_rows(trial)) == len(trial):
            found = _search(candidates, target, idx + 1, chosen + [chain], trial)
            if found is not None:
                return found
    return _search(candidates, target, idx + 1, chosen, stacked)


def geometric_multiplicity(a: Matrix, eigenvalue: Scalar) -> int:
    """Nullity n - rank(A - lambda I), counted independently by elimination (no basis is built)."""
    n = a.nrows
    return n - rank(a - Matrix.identity(n) * eigenvalue)
