"""Graded spinor-model tests.

Wedge signs are pinned by an independent oracle that sorts the inserted
label into place and counts transpositions explicitly.  The square of the
coupled operator, formed through scipy, is compared against a diagonal
built directly from the basis enumeration.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from library_oracle import graded_basis, multi_indices
from scipy_oracle import dense, to_scipy

from fockindex import spinors
from fockindex.fock import FockSpaceConfig, _radix_codes
from fockindex.spinors import (
    EVEN,
    ODD,
    GradedBasisIndex,
    contract_matrix,
    dirac_plus,
    form_subsets,
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
    assert np.max(np.abs(_dense(dirac_plus(config), config)[:, [vacuum]])) == 0.0


def _dense(d, config):
    """The dense matrix of the entries ``d`` of an operator on the graded space."""
    return dense(d, graded_dimension(config))


def _slice(d, config, rows, cols):
    return _dense(d, config)[np.ix_(rows, cols)]


def test_vacuum_block_annihilation_is_exact():
    # the vacuum row of the odd-to-even half and the vacuum column of the
    # even-to-odd half vanish identically, even under truncation
    for nv, cutoff in ((1, 6), (2, 5)):
        config = FockSpaceConfig(nv, cutoff)
        d = dirac_plus(config)
        vac = [graded_index(config, vacuum_index(config))]
        odd = sector_indices(config, ODD)
        assert np.all(_slice(d, config, vac, odd) == 0.0)
        assert np.all(_slice(d, config, odd, vac) == 0.0)


def test_square_identity_on_guarded_states():
    for nv, cutoff in ((1, 8), (2, 6), (3, 5)):
        config = FockSpaceConfig(nv, cutoff)
        assert square_identity_residual(dirac_plus(config), config) <= 1e-12


def test_square_identity_oracle_diagonal():
    # same identity, rhs assembled in-test straight from the enumeration
    config = FockSpaceConfig(2, 5)
    d = to_scipy(dirac_plus(config), graded_dimension(config))
    sq = (d @ d).toarray()
    expected = np.diag(
        [2.0 * sum(b.osc) + 2.0 * len(b.form) for b in graded_basis(config)]
    )
    mask = graded_guard_mask(config)
    assert np.max(np.abs(sq[:, mask] - expected[:, mask])) <= 1e-12


def _sparse_square_residual(d, config):
    """The oracle: the guarded columns of scipy's sparse ``d @ d`` minus the diagonal."""
    sp = pytest.importorskip("scipy.sparse")
    m = to_scipy(d, graded_dimension(config))
    expected = 2.0 * graded_osc_degrees(config) + 2.0 * graded_form_degrees(config)
    square = (m @ m - sp.diags(expected.astype(np.complex128))).tocsc()
    return float(np.abs(square[:, np.flatnonzero(graded_guard_mask(config))].data).max())


def _rounding_gap(d):
    """A bound on how far two summation orders of an entry of ``d @ d`` can
    differ: each entry sums at most ``width`` products of at most ``top``."""
    rows, _, values = d
    width = int(np.bincount(rows).max())
    top = float(np.abs(values).max()) ** 2
    return 4 * width**2 * np.finfo(float).eps * top


def _scrambled(d, seed):
    """The values of ``d`` times complex Gaussians, drawn in row order: the
    same pattern, whose off-diagonal sums do not cancel."""
    rows, cols, values = d
    rng = np.random.default_rng(seed)
    noise = np.empty(len(values), dtype=complex)
    noise[np.lexsort((cols, rows))] = (rng.normal(size=len(values))
                                       + 1j * rng.normal(size=len(values)))
    return rows, cols, noise * values


@pytest.mark.parametrize("nv, cutoff", [(1, 4), (1, 13), (2, 9), (3, 6), (4, 5)])
def test_square_residual_matches_scipy(nv, cutoff):
    # scipy's d @ d - diag, also for values of d (same pattern) whose
    # off-diagonal sums do not cancel; the label blocks sum each entry in
    # another order, so they match it to rounding
    config = FockSpaceConfig(nv, cutoff)
    d = dirac_plus(config)
    scrambled = _scrambled(d, nv * 100 + cutoff)
    for matrix in (d, scrambled):
        gap = abs(square_identity_residual(matrix, config) - _sparse_square_residual(matrix, config))
        assert gap <= _rounding_gap(matrix)
    assert square_identity_residual(scrambled, config) > 1.0


@pytest.mark.parametrize("nv, cutoffs", [(1, (4, 9, 40, 700)), (2, (4, 7, 16, 31)),
                                         (3, (4, 6, 11, 20)), (4, (4, 5, 9, 12))])
def test_block_square_identity_matches_the_sparse_oracle(nv, cutoffs, monkeypatch):
    for cutoff in cutoffs:
        config = FockSpaceConfig(nv, cutoff)
        d = dirac_plus(config)
        for matrix in (d, _scrambled(d, cutoff)):
            blocks = square_identity_residual(matrix, config)
            assert abs(blocks - _sparse_square_residual(matrix, config)) <= _rounding_gap(matrix)
            # a block squares alone in a matmul, so the chunks change no bit
            with monkeypatch.context() as patch:
                patch.setattr(spinors, "_STACK_ENTRIES", 1)
                assert square_identity_residual(matrix, config) == blocks


def test_chunks_are_made_one_at_a_time():
    # a list of the slices of 10**18 items would not fit in memory
    size = spinors._STACK_ENTRIES // 4
    first = list(itertools.islice(spinors._chunks(10**18, 4), 2))
    assert first == [slice(0, size), slice(size, 2 * size)]
    # past the budget a chunk holds one item
    chunks = spinors._chunks(3, spinors._STACK_ENTRIES + 1)
    assert list(chunks) == [slice(0, 1), slice(1, 2), slice(2, 3)]


def _unique_label_ids(config):
    """The label ids as ``np.unique`` numbers the label rows."""
    nv = config.num_vars
    osc = np.array(multi_indices(nv, config.cutoff), dtype=int).reshape(-1, nv)
    member = np.array(
        [[j in s for j in range(1, nv + 1)] for s in form_subsets(nv)], dtype=int
    )
    labels = (osc[:, None, :] + member[None, :, :]).reshape(-1, nv)
    return np.unique(labels, axis=0, return_inverse=True)[1].reshape(-1)


@pytest.mark.parametrize("nv, cutoff", [(1, 4), (1, 50), (2, 9), (3, 20), (4, 6), (5, 8),
                                        (6, 4), (8, 4)])
def test_label_codes_number_the_labels_as_unique_does(nv, cutoff):
    config = FockSpaceConfig(nv, cutoff)
    assert np.array_equal(spinors._label_ids(config), _unique_label_ids(config))


@pytest.mark.parametrize("radix, dtype", [(2**21 - 1, np.int64), (2**21, object)])
def test_label_codes_at_the_overflow_guard(radix, dtype):
    # three digits: the largest radix whose codes fit int64, and the first
    # whose codes are Python integers
    rng = np.random.default_rng(radix)
    digits = rng.integers(radix - 3, radix, size=(400, 3))
    digits[::7] = radix - 1  # repeated rows holding the largest code
    codes = _radix_codes(digits, radix)
    assert codes.dtype == dtype
    assert max(codes) == radix**3 - 1
    # _label_ids numbers its codes so
    ids = np.unique(codes, return_inverse=True)[1]
    assert np.array_equal(ids, np.unique(digits, axis=0, return_inverse=True)[1].reshape(-1))


def _label_cases(nv, cutoff):
    """``dirac_plus`` with the label ids and guard of its rows and columns,
    then its lowering block (even rows, odd columns) with theirs."""
    config = FockSpaceConfig(nv, cutoff)
    d = to_scipy(dirac_plus(config), graded_dimension(config))
    ids = spinors._label_ids(config)
    guard = graded_guard_mask(config)
    even, odd = sector_indices(config, EVEN), sector_indices(config, ODD)
    yield d, ids, ids, guard, guard
    yield d[even, :][:, odd], ids[even], ids[odd], guard[even], guard[odd]


def _gather(matrix, row_ids, col_ids, row_keep, col_keep):
    coo = matrix.tocoo()
    entries = (coo.row, coo.col, coo.data)
    return list(spinors._label_stacks(entries, row_ids, col_ids, row_keep, col_keep))


def _dense_label_blocks(matrix, row_ids, col_ids):
    """Every label block with columns, read block by block from the dense
    matrix: ``(rows, cols, block)`` lists per shape, in increasing order of
    shape and, within a shape, of block id."""
    dense = matrix.toarray()
    shapes = {}
    for block in range(max(row_ids.max(), col_ids.max()) + 1):
        rows, cols = np.flatnonzero(row_ids == block), np.flatnonzero(col_ids == block)
        if len(cols):
            shapes.setdefault((len(rows), len(cols)), []).append(
                (rows, cols, dense[np.ix_(rows, cols)]))
    return [shapes[shape] for shape in sorted(shapes)]


@pytest.mark.parametrize("nv, cutoff", [(1, 6), (2, 5), (3, 4), (4, 4)])
def test_label_stacks_with_every_state_kept_gather_every_block(nv, cutoff):
    for matrix, row_ids, col_ids, _, _ in _label_cases(nv, cutoff):
        every_row = np.ones(len(row_ids), dtype=bool)
        every_col = np.ones(len(col_ids), dtype=bool)
        whole = _gather(matrix, row_ids, col_ids, every_row, every_col)
        oracle = _dense_label_blocks(matrix, row_ids, col_ids)
        assert len(whole) == len(oracle)
        for (rows, cols, stack), members in zip(whole, oracle):
            expected_rows, expected_cols, blocks = zip(*members)
            assert np.array_equal(rows, np.array(expected_rows).reshape(rows.shape))
            assert np.array_equal(cols, np.array(expected_cols))
            assert np.array_equal(stack, np.array(blocks).reshape(stack.shape))
        # no kept state, no block
        assert _gather(matrix, row_ids, col_ids, ~every_row, ~every_col) == []


@pytest.mark.parametrize("nv, cutoff", [(1, 6), (2, 5), (3, 4), (4, 4)])
def test_label_stacks_gather_only_the_blocks_with_a_kept_state(nv, cutoff):
    rng = np.random.default_rng(nv * 100 + cutoff)
    for matrix, row_ids, col_ids, guard_rows, guard_cols in _label_cases(nv, cutoff):
        every_row = np.ones(len(row_ids), dtype=bool)
        whole = _gather(matrix, row_ids, col_ids, every_row, np.ones(len(col_ids), dtype=bool))
        total = sum(len(stack) for *_, stack in whole)
        for row_keep, col_keep in ((guard_rows, guard_cols),
                                   (guard_rows, np.zeros(len(col_ids), dtype=bool)),
                                   (~every_row, guard_cols),
                                   (rng.random(len(row_ids)) < 0.1,
                                    rng.random(len(col_ids)) < 0.1)):
            # the whole gather's members that hold a kept row or column, in order
            expected = []
            for rows, cols, stack in whole:
                members = row_keep[rows].any(axis=1) | col_keep[cols].any(axis=1)
                if members.any():
                    expected.append((rows[members], cols[members], stack[members]))
            got = _gather(matrix, row_ids, col_ids, row_keep, col_keep)
            assert len(got) == len(expected)
            for parts, expected_parts in zip(got, expected):
                for part, expected_part in zip(parts, expected_parts):
                    assert np.array_equal(part, expected_part)
        # the guard keeps some blocks and drops others
        guarded = sum(len(stack) for *_, stack in _gather(matrix, row_ids, col_ids,
                                                           guard_rows, guard_cols))
        assert 0 < guarded < total


@pytest.mark.parametrize("nv, cutoff", [(1, 6), (2, 5), (3, 4)])
def test_dirac_plus_matches_the_scipy_kron_assembly(nv, cutoff):
    sp = pytest.importorskip("scipy.sparse")
    from fockindex.fock import creation

    config = FockSpaceConfig(nv, cutoff)
    total = None
    for j in range(1, nv + 1):
        up = dense(creation(config, j))
        term = sp.kron(sp.csr_matrix(up), sp.csr_matrix(contract_matrix(nv, j))) - sp.kron(
            sp.csr_matrix(up).conj().T, sp.csr_matrix(wedge_matrix(nv, j))
        )
        total = term if total is None else total + term
    oracle = (1j * total).tocsr()
    oracle.sum_duplicates()
    oracle.sort_indices()
    d = to_scipy(dirac_plus(config), graded_dimension(config))
    assert np.array_equal(d.indptr, oracle.indptr)
    assert np.array_equal(d.indices, oracle.indices)
    assert np.array_equal(d.data.view(np.int64), oracle.data.view(np.int64))


def test_chiral_restrictions_are_exact_adjoints():
    config = FockSpaceConfig(2, 5)
    d = dirac_plus(config)
    even, odd = sector_indices(config, EVEN), sector_indices(config, ODD)
    assert np.array_equal(_slice(d, config, odd, even).conj().T, _slice(d, config, even, odd))
    # the two halves are all of it: no even-to-even or odd-to-odd entries
    assert np.all(_slice(d, config, even, even) == 0.0)
    assert np.all(_slice(d, config, odd, odd) == 0.0)


def test_even_restriction_kernel_is_vacuum_on_guard():
    for nv, cutoff in ((1, 7), (2, 6)):
        config = FockSpaceConfig(nv, cutoff)
        rows = sector_indices(config, ODD)
        cols = sector_indices(config, EVEN)
        guarded_cols = cols[graded_guard_mask(config)[cols]]
        block = _slice(dirac_plus(config), config, rows, guarded_cols)
        s = np.linalg.svd(block, compute_uv=False)
        null_dim = int(np.sum(s < 1e-10))
        assert null_dim == 1
        _, _, vh = np.linalg.svd(block)
        kernel = vh[-1].conj()
        z0_pos = np.nonzero(guarded_cols == graded_index(config, vacuum_index(config)))[0]
        assert abs(abs(kernel[z0_pos[0]]) - 1.0) < 1e-12
