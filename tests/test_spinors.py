"""Graded spinor-model tests.

Wedge signs are pinned by an independent oracle that sorts the inserted
label into place and counts transpositions explicitly.  The square of the
coupled operator is compared against a diagonal built directly from the
basis enumeration.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockindex import sparse
from fockindex.errors import PairingFloorError
from fockindex.fock import FockSpaceConfig
from fockindex.spinors import (
    EVEN,
    ODD,
    GradedBasisIndex,
    basis_vector,
    contract_matrix,
    deformed_szego,
    dirac_plus,
    form_subsets,
    graded_basis,
    graded_dimension,
    graded_form_degrees,
    graded_guard_mask,
    graded_index,
    graded_osc_degrees,
    sector_indices,
    square_identity_residual,
    vacuum_index,
    wedge_matrix,
)


def _insertion_sign(j, subset):
    """Parity of sorting [j, *subset] by adjacent transpositions (oracle)."""
    seq = [j] + list(subset)
    swaps = 0
    for i in range(len(seq)):
        for k in range(len(seq) - 1 - i):
            if seq[k] > seq[k + 1]:
                seq[k], seq[k + 1] = seq[k + 1], seq[k]
                swaps += 1
    return (-1) ** swaps


def test_form_subsets_enumeration_frozen():
    assert form_subsets(3) == (
        (),
        (1,),
        (1, 2),
        (1, 2, 3),
        (1, 3),
        (2,),
        (2, 3),
        (3,),
    )


@settings(max_examples=30, deadline=None)
@given(nv=st.integers(1, 5), j=st.integers(1, 5))
def test_wedge_signs_match_insertion_oracle(nv, j):
    if j > nv:
        return
    subsets = form_subsets(nv)
    w = wedge_matrix(nv, j)
    for col, s in enumerate(subsets):
        if j in s:
            assert np.all(w[:, col] == 0.0)
            continue
        target = subsets.index(tuple(sorted(s + (j,))))
        assert w[target, col] == _insertion_sign(j, s)
        assert np.count_nonzero(w[:, col]) == 1


def test_wedge_contract_anticommutators():
    nv = 3
    eye = np.eye(2**nv)
    for j in range(1, nv + 1):
        for k in range(1, nv + 1):
            e, f = contract_matrix(nv, j), wedge_matrix(nv, k)
            anti = e @ f + f @ e
            expected = eye if j == k else 0.0 * eye
            assert np.array_equal(anti, expected)
    for j in range(1, nv + 1):
        for k in range(1, nv + 1):
            w1, w2 = wedge_matrix(nv, j), wedge_matrix(nv, k)
            assert np.array_equal(w1 @ w2, -w2 @ w1) or j == k
            assert np.array_equal(w1 @ w1, 0.0 * eye)


def test_graded_enumeration_is_oscillator_major():
    config = FockSpaceConfig(2, 4)
    basis = graded_basis(config)
    assert len(basis) == graded_dimension(config)
    assert basis[0] == GradedBasisIndex((0, 0), ())
    assert basis[1] == GradedBasisIndex((0, 0), (1,))
    # the whole form block of one oscillator state is contiguous
    nf = len(form_subsets(2))
    assert all(b.osc == basis[nf].osc for b in basis[nf : 2 * nf])
    for pos, idx in enumerate(basis):
        assert graded_index(config, idx) == pos
    with pytest.raises(ValueError):
        graded_index(config, GradedBasisIndex((9, 0), ()))


def test_sector_indices_partition():
    config = FockSpaceConfig(2, 4)
    even, odd = sector_indices(config, EVEN), sector_indices(config, ODD)
    assert len(even) + len(odd) == graded_dimension(config)
    assert len(even) == len(odd)  # half the form space has each parity
    assert not set(even) & set(odd)


def test_dirac_annihilates_vacuum_exactly():
    config = FockSpaceConfig(2, 5)
    vacuum = graded_index(config, vacuum_index(config))
    assert np.max(np.abs(dirac_plus(config)[:, [vacuum]].toarray())) == 0.0


def _slice(d, rows, cols):
    return d[rows, :][:, cols].toarray()


def test_vacuum_block_annihilation_is_exact():
    # the vacuum row of the odd-to-even half and the vacuum column of the
    # even-to-odd half vanish identically, even under truncation
    for nv, cutoff in ((1, 6), (2, 5)):
        config = FockSpaceConfig(nv, cutoff)
        d = dirac_plus(config)
        vac = [graded_index(config, vacuum_index(config))]
        odd = sector_indices(config, ODD)
        assert np.all(_slice(d, vac, odd) == 0.0)
        assert np.all(_slice(d, odd, vac) == 0.0)


def test_square_identity_on_guarded_states():
    for nv, cutoff in ((1, 8), (2, 6), (3, 5)):
        config = FockSpaceConfig(nv, cutoff)
        assert square_identity_residual(dirac_plus(config), config) <= 1e-12


def test_square_identity_oracle_diagonal():
    # same identity, rhs assembled in-test straight from the enumeration
    config = FockSpaceConfig(2, 5)
    d = dirac_plus(config)
    sq = (d @ d).toarray()
    expected = np.diag(
        [2.0 * sum(b.osc) + 2.0 * len(b.form) for b in graded_basis(config)]
    )
    mask = graded_guard_mask(config)
    assert np.max(np.abs(sq[:, mask] - expected[:, mask])) <= 1e-12


@pytest.mark.parametrize("nv, cutoff", [(1, 4), (1, 13), (2, 9), (3, 6), (4, 5)])
def test_square_residual_matches_scipy(nv, cutoff):
    # the residual read from scipy's d @ d - diag, to the bit, also for
    # values of d (same pattern) whose off-diagonal sums do not cancel
    sp = pytest.importorskip("scipy.sparse")
    config = FockSpaceConfig(nv, cutoff)
    d = dirac_plus(config)
    rng = np.random.default_rng(nv * 100 + cutoff)
    values = (rng.normal(size=d.nnz) + 1j * rng.normal(size=d.nnz)) * d.data
    scrambled = sparse.CSR(values, d.indices, d.indptr, d.shape)
    expected = 2.0 * graded_osc_degrees(config) + 2.0 * graded_form_degrees(config)
    guarded = np.flatnonzero(graded_guard_mask(config))
    for matrix in (d, scrambled):
        m = sp.csr_matrix((matrix.data, matrix.indices, matrix.indptr), shape=matrix.shape)
        square = (m @ m - sp.diags(expected.astype(np.complex128))).tocsr()
        oracle = float(np.abs(square[:, guarded].data).max())
        assert square_identity_residual(matrix, config) == oracle
    assert square_identity_residual(scrambled, config) > 1.0


@pytest.mark.parametrize("nv, cutoff", [(1, 6), (2, 5), (3, 4)])
def test_dirac_plus_matches_the_scipy_kron_assembly(nv, cutoff):
    sp = pytest.importorskip("scipy.sparse")
    from fockindex.fock import creation

    config = FockSpaceConfig(nv, cutoff)
    total = None
    for j in range(1, nv + 1):
        up = creation(config, j).toarray()
        term = sp.kron(sp.csr_matrix(up), sp.csr_matrix(contract_matrix(nv, j))) - sp.kron(
            sp.csr_matrix(up).conj().T, sp.csr_matrix(wedge_matrix(nv, j))
        )
        total = term if total is None else total + term
    oracle = (1j * total).tocsr()
    oracle.sum_duplicates()
    oracle.sort_indices()
    d = dirac_plus(config)
    assert np.array_equal(d.indptr, oracle.indptr)
    assert np.array_equal(d.indices, oracle.indices)
    assert np.array_equal(d.data.view(np.int64), oracle.data.view(np.int64))


def test_chiral_restrictions_are_exact_adjoints():
    config = FockSpaceConfig(2, 5)
    d = dirac_plus(config)
    even, odd = sector_indices(config, EVEN), sector_indices(config, ODD)
    assert np.array_equal(_slice(d, odd, even).conj().T, _slice(d, even, odd))
    # the two halves are all of it: no even-to-even or odd-to-odd entries
    assert np.all(_slice(d, even, even) == 0.0)
    assert np.all(_slice(d, odd, odd) == 0.0)


def test_even_restriction_kernel_is_vacuum_on_guard():
    for nv, cutoff in ((1, 7), (2, 6)):
        config = FockSpaceConfig(nv, cutoff)
        rows = sector_indices(config, ODD)
        cols = sector_indices(config, EVEN)
        guarded_cols = cols[graded_guard_mask(config)[cols]]
        block = _slice(dirac_plus(config), rows, guarded_cols)
        s = np.linalg.svd(block, compute_uv=False)
        null_dim = int(np.sum(s < 1e-10))
        assert null_dim == 1
        _, _, vh = np.linalg.svd(block)
        kernel = vh[-1].conj()
        z0_pos = np.nonzero(guarded_cols == graded_index(config, vacuum_index(config)))[0]
        assert abs(abs(kernel[z0_pos[0]]) - 1.0) < 1e-12


def test_deformed_szego_properties():
    config = FockSpaceConfig(2, 5)
    target = GradedBasisIndex((1, 0), ())
    p = deformed_szego(config, 0.3, target).toarray()
    assert np.max(np.abs(p @ p - p)) <= 1e-14
    assert np.max(np.abs(p.conj().T - p)) <= 1e-14
    assert np.linalg.matrix_rank(p) == 1
    # theta = 0 reduces exactly to the vacuum projector
    p0 = deformed_szego(config, 0.0, target).toarray()
    z0 = basis_vector(config, vacuum_index(config))
    assert np.array_equal(p0, np.outer(z0, z0.conj()))
    # even-degree non-oscillator target is admissible too
    deformed_szego(config, 0.2, GradedBasisIndex((0, 0), (1, 2)))


def test_deformed_szego_matches_dense_outer_product():
    config = FockSpaceConfig(2, 5)
    vacuum = basis_vector(config, vacuum_index(config))
    for target in (GradedBasisIndex((1, 0), ()), GradedBasisIndex((0, 1), (1, 2))):
        for theta in (0.0, 0.3, -1.2):
            vec = np.cos(theta) * vacuum + np.sin(theta) * basis_vector(config, target)
            p = deformed_szego(config, theta, target).toarray()
            assert np.array_equal(p, np.outer(vec, vec.conj()))


def test_deformed_szego_admissibility():
    config = FockSpaceConfig(2, 5)
    target = GradedBasisIndex((1, 0), ())
    with pytest.raises(PairingFloorError):
        deformed_szego(config, np.pi / 2 - 1e-5, target)
    with pytest.raises(ValueError):
        deformed_szego(config, 0.3, GradedBasisIndex((0, 0), (1,)))  # odd degree
    with pytest.raises(ValueError):
        deformed_szego(config, 0.3, vacuum_index(config))
