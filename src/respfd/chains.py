"""Chains of generalized eigenvectors read off the decomposition columns.

For an eigenvalue lambda with coefficients B_1..B_r, the m-th columns of
B_1, B_2, ..., truncated at the last nonzero one, form a chain

    (A - lambda I) v_j = v_{j+1},   (A - lambda I) v_l = 0,

so the final vector is an eigenvector and the j-th vector has generalized
rank l - j + 1.  Chains are emitted unnormalized, exactly as column data.

select_chain_basis assembles a full basis of the generalized eigenspace
from column chains in one complete greedy pass (longest first, ties broken
by lower column index), verifying independence with exact rank tests.
"""

from __future__ import annotations


from .errors import IncompleteBasis, InconsistentSystem, NotAGeneralizedEigenvector, SelfCheckFailed
from .linalg import Matrix, mat_vec, rank, solve, vec_is_zero
from .pfd import ResolventPFD
from .record import Record
from .scalars import Scalar


class Chain(Record):
    """One chain v_1 -> v_2 -> ... -> v_l ending with an eigenvector."""

    eigenvalue: Scalar
    vectors: tuple  # tuples of exact scalars
    column: int  # 0-based source column in the B matrices

    @property
    def length(self) -> int:
        return len(self.vectors)

    def eigenvector(self) -> tuple:
        return self.vectors[-1]


class ChainBasis(Record):
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


def select_chain_basis(pfd: ResolventPFD, eigenvalue_index: int, chains=None) -> ChainBasis:
    """Chain-basis assembly for one eigenvalue from whole column chains.

    One pass, longest first (ties: lower column index), admits a chain when
    it fits in r_i vectors and all its vectors extend the independent set;
    `chains`, when given, is extract_column_chains(pfd, eigenvalue_index).
    It falls short, raising IncompleteBasis, only when no subset spans:
    - Lemma: with S = A - lambda I, chains x, Sx, .., S^(L-1)x with S^L x = 0
      are jointly independent exactly when their last vectors are (apply
      S^h to a dependency, h the largest L_k - 1 - i with a nonzero
      coefficient: only the last vectors survive).  Column chains are such
      chains: B_(j+1) = S B_j, S B_r = 0, each cut at its last nonzero column.
    - Spanning forces the partition: dim K_L, K_L = ker S cap im S^(L-1) on the
      generalized eigenspace, is the number of blocks of size >= L, and K_L
      holds the last vector of every chain of length >= L.  A spanning subset
      thus has dim K_L chains of length >= L whose last vectors span K_L, so
      W_L = K_L for all L, W_L spanned by the last vectors of all candidates
      of length >= L.
    - The pass is complete: by the lemma it holds a basis of W_L after the
      chains of length >= L, so when every W_L = K_L it reaches
      sum dim K_L = r_i; the fit test never rejects an independent chain.
      It is an exhaustive search's first descent, so it returns the chains
      that search returns.  All this holds whenever the column chains are
      Jordan chains, as verify_pfd's recurrence and annihilation checks ask.
    - Every vector of the trial is ranked, not only the last vectors, which
      by the lemma decide the same on Jordan chains: on column chains that
      are not Jordan chains the lemma fails, and only the full test keeps
      each returned ChainBasis independent whatever the decomposition.

    IncompleteBasis is a real outcome: nilpotent blocks (2, 2, 1) with no
    zero column in B_1 offer only length-2 chains, whose subsets carry an
    even number of vectors and can never span 5 dimensions.
    """
    term = pfd.linear[eigenvalue_index]
    target = term.multiplicity
    if chains is None:
        chains = extract_column_chains(pfd, eigenvalue_index)
    selected, stacked = [], []
    for chain in sorted(chains, key=lambda c: (-c.length, c.column)):
        trial = stacked + list(chain.vectors)
        if len(trial) <= target and rank(Matrix.from_rows(trial)) == len(trial):
            selected.append(chain)
            stacked = trial
    if len(stacked) < target:
        raise IncompleteBasis(
            f"no subset of column chains spans the {target}-dimensional "
            f"generalized eigenspace of eigenvalue {term.eigenvalue}"
        )
    return ChainBasis(term.eigenvalue, tuple(selected))


def geometric_multiplicity(a: Matrix, eigenvalue: Scalar) -> int:
    """Nullity n - rank(A - lambda I), counted independently by elimination (no basis is built)."""
    n = a.nrows
    return n - rank(a - Matrix.identity(n) * eigenvalue)
