"""Chain extraction, generalized ranks, membership, basis selection."""

from __future__ import annotations

import gc
import random
from fractions import Fraction

import pytest

from itertools import combinations

import respfd.chains
from respfd.chains import (
    extract_column_chains,
    generalized_rank,
    geometric_multiplicity,
    membership_check,
    select_chain_basis,
)
from respfd.errors import IncompleteBasis, NotAGeneralizedEigenvector
from respfd.exponential import decompose
from respfd.linalg import Matrix, mat_vec, rank, vec_is_zero
from respfd.pfd import EigenvalueTerm, ResolventPFD
from tests import reference
from tests.conftest import (
    GOLDEN_3X3_CHAINS,
    GOLDEN_3X3_IVP,
    GOLDEN_MATRICES,
    NILPOTENT_221,
    block_diagonal,
    deadline,
    disguised,
    random_jordan_matrix,
)

@pytest.fixture(scope="module")
def golden_pfd():
    return decompose(GOLDEN_3X3_CHAINS, "complex")


def F(*values):
    return tuple(Fraction(v) for v in values)


def test_golden_chains_verbatim(golden_pfd):
    chains = extract_column_chains(golden_pfd, 0)
    assert [(c.column, c.length) for c in chains] == [(0, 2), (1, 3), (2, 3)]
    assert chains[0].vectors == (F(1, 0, 0), F(-2, -2, -1))
    assert chains[1].vectors == (F(0, 1, 0), F(1, 2, 1), F(2, 2, 1))
    assert chains[2].vectors == (F(0, 0, 1), F(2, 0, 0), F(-4, -4, -2))


def test_chain_invariants(golden_pfd):
    shifted = GOLDEN_3X3_CHAINS - Matrix.identity(3) * Fraction(2)
    for chain in extract_column_chains(golden_pfd, 0):
        for v, w in zip(chain.vectors, chain.vectors[1:]):
            assert mat_vec(shifted, v) == w
        assert vec_is_zero(mat_vec(shifted, chain.eigenvector()))
        assert not vec_is_zero(chain.eigenvector())


def test_scalar_matrix_unit_chains():
    a = Matrix.identity(3) * Fraction(4)
    pfd = decompose(a, "complex")
    chains = extract_column_chains(pfd, 0)
    assert [(c.column, c.length) for c in chains] == [(0, 1), (1, 1), (2, 1)]
    assert chains[0].vectors == (F(1, 0, 0),)


def test_generalized_ranks_on_golden():
    assert generalized_rank(GOLDEN_3X3_CHAINS, Fraction(2), F(1, 0, 0)) == 2
    assert generalized_rank(GOLDEN_3X3_CHAINS, Fraction(2), F(2, 2, 1)) == 1
    assert generalized_rank(GOLDEN_3X3_CHAINS, Fraction(2), F(0, 1, 0)) == 3


def test_generalized_rank_rejects_outsiders():
    with pytest.raises(NotAGeneralizedEigenvector):
        generalized_rank(GOLDEN_3X3_CHAINS, Fraction(5), F(1, 0, 0))
    with pytest.raises(NotAGeneralizedEigenvector):
        generalized_rank(GOLDEN_3X3_CHAINS, Fraction(2), F(0, 0, 0))
    diag = Matrix.from_rows([[1, 0], [0, 2]])
    with pytest.raises(NotAGeneralizedEigenvector):
        generalized_rank(diag, Fraction(1), (Fraction(0), Fraction(1)))


def test_chain_rank_profile(golden_pfd):
    # the j-th vector of a length-l chain has generalized rank l - j + 1
    for chain in extract_column_chains(golden_pfd, 0):
        for j, v in enumerate(chain.vectors, start=1):
            assert generalized_rank(GOLDEN_3X3_CHAINS, Fraction(2), v) == chain.length - j + 1


def test_membership_eigenvector(golden_pfd):
    member, j0 = membership_check(golden_pfd, 0, F(2, 2, 1))
    assert member and j0 == 3


def test_membership_rank_two_vector(golden_pfd):
    # (1,0,0) = (A-2I) (0,0,1/2), so it sits in Image(A-2I) but not Image((A-2I)^2):
    # the exact solves give j0 = 2, confirmed by the column-space checks.
    member, j0 = membership_check(golden_pfd, 0, F(1, 0, 0))
    assert member and j0 == 2


def test_membership_rejects_other_eigenspace():
    diag = Matrix.from_rows([[1, 0], [0, 2]])
    pfd = decompose(diag, "complex")
    # eigenvalue order: 1 then 2; e2 belongs only to the second
    member, j0 = membership_check(pfd, 0, (Fraction(0), Fraction(1)))
    assert not member and j0 == 0
    member, j0 = membership_check(pfd, 1, (Fraction(0), Fraction(1)))
    assert member and j0 == 1


def test_membership_zero_vector_rejected(golden_pfd):
    with pytest.raises(ValueError):
        membership_check(golden_pfd, 0, F(0, 0, 0))


def test_select_basis_golden(golden_pfd):
    basis = select_chain_basis(golden_pfd, 0)
    assert [(c.column, c.length) for c in basis.chains] == [(1, 3)]
    assert basis.total_vectors == 3


def test_select_basis_diagonalizable_pair():
    pfd = decompose(GOLDEN_3X3_IVP, "complex")
    idx = next(i for i, t in enumerate(pfd.linear) if t.eigenvalue == 1)
    basis = select_chain_basis(pfd, idx)
    assert [c.length for c in basis.chains] == [1, 1]
    assert [c.column for c in basis.chains] == [0, 1]
    assert basis.total_vectors == 2


def test_select_basis_scalar_matrix():
    a = Matrix.identity(3) * Fraction(4)
    basis = select_chain_basis(decompose(a, "complex"), 0)
    assert [c.length for c in basis.chains] == [1, 1, 1]


def test_select_basis_prefers_longest_chains_then_lower_columns():
    # eigenvalue 2 with blocks (2, 1); the column chains are e0, (e1, e0 + e2) and e2
    pfd = decompose(Matrix.from_rows([[2, 1, 0], [0, 2, 0], [0, 1, 2]]), "complex")
    assert [(c.column, c.length) for c in extract_column_chains(pfd, 0)] == [(0, 1), (1, 2), (2, 1)]
    # shortest first would give [(0, 1), (1, 2)], and ties to the higher column [(1, 2), (2, 1)]
    basis = select_chain_basis(pfd, 0)
    assert [(c.column, c.length) for c in basis.chains] == [(1, 2), (0, 1)]


def no_chain_subset_spans(chains, target: int) -> bool:
    """Independent brute force: can any subset of whole chains span?"""
    for size in range(1, len(chains) + 1):
        for combo in combinations(chains, size):
            vectors = [v for c in combo for v in c.vectors]
            if len(vectors) == target and rank(Matrix.from_rows(vectors)) == target:
                return False
    return True


def test_basis_counts_match_structure(rng):
    impossible = 0
    for _ in range(20):
        a, spectrum = random_jordan_matrix(rng)
        pfd = decompose(a, "complex")
        spectrum_by_eig = {lam: (alg, geo) for lam, alg, geo in spectrum}
        all_vectors = []
        expected = 0
        for idx, term in enumerate(pfd.linear):
            alg, geo = spectrum_by_eig[term.eigenvalue]
            try:
                basis = select_chain_basis(pfd, idx)
            except IncompleteBasis:
                # must be a genuine impossibility, not a search failure
                assert no_chain_subset_spans(extract_column_chains(pfd, idx), alg)
                impossible += 1
                continue
            assert basis.total_vectors == alg
            assert len(basis.chains) == geo
            assert len(basis.chains) == geometric_multiplicity(a, term.eigenvalue)
            all_vectors.extend(basis.all_vectors())
            expected += alg
        if all_vectors:
            assert rank(Matrix.from_rows(all_vectors)) == expected


def test_incomplete_basis_is_genuine_when_raised():
    pfd = decompose(NILPOTENT_221, "complex")
    chains = extract_column_chains(pfd, 0)
    assert [c.length for c in chains] == [2, 2, 2, 2, 2]
    with pytest.raises(IncompleteBasis):
        select_chain_basis(pfd, 0)
    assert no_chain_subset_spans(chains, 5)


def _partitions(n: int, largest: int | None = None):
    """Every partition of n, parts in non-increasing order."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def _disguised_nilpotent(blocks, seed: int) -> Matrix:
    jordan = [[[1 if j == i + 1 else 0 for j in range(size)] for i in range(size)] for size in blocks]
    return disguised(block_diagonal(*jordan), seed)


@pytest.mark.parametrize("n", range(2, 9))
def test_greedy_pass_is_complete_on_every_nilpotent_partition(n):
    for blocks in _partitions(n):
        for seed in (1, 2):
            pfd = decompose(_disguised_nilpotent(blocks, seed), "complex")
            impossible = no_chain_subset_spans(extract_column_chains(pfd, 0), n)
            try:
                basis = select_chain_basis(pfd, 0)
            except IncompleteBasis:
                assert impossible, (blocks, seed)
                continue
            assert not impossible
            assert sorted((c.length for c in basis.chains), reverse=True) == list(blocks)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_refusal_takes_one_rank_test_per_candidate(seed, monkeypatch):
    # blocks (2, 2, 2, 2, 2, 1, 1): twelve candidate chains, and whole ones cannot span
    pfd = decompose(_disguised_nilpotent((2, 2, 2, 2, 2, 1, 1), seed), "complex")
    candidates = len(extract_column_chains(pfd, 0))
    assert candidates == 12
    calls = []

    def counted(m):
        calls.append(m)
        return rank(m)

    monkeypatch.setattr(respfd.chains, "rank", counted)
    with deadline(10), pytest.raises(IncompleteBasis):
        select_chain_basis(pfd, 0)
    assert len(calls) <= candidates


def test_select_basis_leaves_no_cyclic_garbage():
    pfds = [decompose(a, "complex") for a in (*GOLDEN_MATRICES, NILPOTENT_221)]
    gc.collect()
    gc.disable()
    try:
        for pfd in pfds:
            for idx in range(len(pfd.linear)):
                try:
                    select_chain_basis(pfd, idx)
                except IncompleteBasis:
                    pass
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_gaussian_eigenvalue_chains():
    a = Matrix.from_rows([[5, 17], [-2, -5]])
    pfd = decompose(a, "complex")
    for idx, term in enumerate(pfd.linear):
        chains = extract_column_chains(pfd, idx)
        assert chains, "complex eigenvalues still produce chains"
        basis = select_chain_basis(pfd, idx)
        assert basis.total_vectors == 1
        shifted = a - Matrix.identity(2) * term.eigenvalue
        for chain in chains:
            assert vec_is_zero(mat_vec(shifted, chain.eigenvector()))


def _selection(select, pfd, idx: int):
    """The ChainBasis select returns, or IncompleteBasis when it refuses."""
    try:
        return select(pfd, idx)
    except IncompleteBasis:
        return IncompleteBasis


@pytest.mark.parametrize("n", range(2, 13))
def test_selection_equals_the_full_vector_reference_on_jordan_matrices(n):
    rng = random.Random(n)
    for _ in range(4):
        pfd = decompose(random_jordan_matrix(rng, n)[0], "complex")
        for idx in range(len(pfd.linear)):
            assert _selection(select_chain_basis, pfd, idx) == _selection(reference.select_chain_basis, pfd, idx)


@pytest.mark.parametrize("n", range(2, 9))
def test_selection_equals_the_full_vector_reference_on_every_nilpotent_partition(n):
    for blocks in _partitions(n):
        pfd = decompose(_disguised_nilpotent(blocks, 1), "complex")
        assert _selection(select_chain_basis, pfd, 0) == _selection(reference.select_chain_basis, pfd, 0), blocks


def _hand_built(*coefficients) -> ResolventPFD:
    """One eigenvalue 0 of multiplicity len(coefficients) on a zero matrix: (A - 0 I) B_j = 0 for every j."""
    n = coefficients[0].nrows
    term = EigenvalueTerm(Fraction(0), len(coefficients), coefficients)
    return ResolventPFD(Matrix.zeros(n, n), "complex", (term,))


def test_selection_on_column_chains_that_are_not_jordan_chains():
    # the column chains (e1, e2) and (e1) are no Jordan chains of the zero matrix. Their last
    # vectors e2 and e1 are independent, but all three vectors are not: every vector of the trial
    # is ranked, so the second chain is refused and three dimensions are not spanned
    b1 = Matrix.from_rows([[1, 1, 0], [0, 0, 0], [0, 0, 0]])
    b2 = Matrix.from_rows([[0, 0, 0], [1, 0, 0], [0, 0, 0]])
    pfd = _hand_built(b1, b2, Matrix.zeros(3, 3))
    chains = extract_column_chains(pfd, 0)
    assert [(c.column, c.vectors) for c in chains] == [(0, (F(1, 0, 0), F(0, 1, 0))), (1, (F(1, 0, 0),))]
    with pytest.raises(IncompleteBasis):
        select_chain_basis(pfd, 0)
    # (e1, e2) and (e3), no Jordan chains either, are independent vectors: a basis is returned
    b1 = Matrix.from_rows([[1, 0, 0], [0, 0, 0], [0, 0, 1]])
    basis = select_chain_basis(_hand_built(b1, b2, Matrix.zeros(3, 3)), 0)
    assert [(c.column, c.length) for c in basis.chains] == [(0, 2), (2, 1)]
