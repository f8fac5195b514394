"""Chain extraction, generalized ranks, membership, basis selection."""

from __future__ import annotations

import gc
from fractions import Fraction

import pytest

from itertools import combinations

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
from tests.conftest import (
    GOLDEN_3X3_CHAINS,
    GOLDEN_3X3_IVP,
    GOLDEN_MATRICES,
    random_jordan_matrix,
)

# nilpotent with blocks (2, 2, 1): every column chain has length 2, so any
# subset of whole chains carries an even vector count and can never be 5
NILPOTENT_221 = Matrix.from_rows(
    [
        [1, 1, 1, 1, 1],
        [-1, -1, -1, -2, -1],
        [0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0],
    ]
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
