"""The numpy sparse layer against scipy.sparse as an oracle.

Every operation is compared with scipy's result bit for bit: the stored
pattern (``indptr`` and ``indices``, in storage order) and the values, with
``np.array_equal``.  The values are general complex numbers over six orders
of magnitude, so a product that rounds differently from scipy's (numpy's
complex multiply may fuse a multiply-add, scipy's does not) shows.
"""

import numpy as np
import pytest

from fockindex import sparse

sp = pytest.importorskip("scipy.sparse")

SHAPES = [(1, 1), (1, 7), (7, 1), (6, 6), (13, 9), (40, 40), (57, 31)]


def _random(rng, shape, density, kind="mixed"):
    """The same random matrix twice: as a ``sparse.CSR`` and as scipy's CSR."""
    m, n = shape
    count = int(round(density * m * n))
    rows, cols = np.divmod(rng.choice(m * n, size=count, replace=False), n)
    values = rng.normal(size=count) + 1j * rng.normal(size=count)
    values *= 10.0 ** rng.integers(-3, 4, size=count)
    if kind == "real":
        values = values.real.astype(complex)
    elif kind == "imaginary":
        values = 1j * values.imag
    ours = sparse.from_triples(rows, cols, values, shape)
    theirs = sp.csr_matrix((values, (rows, cols)), shape=shape)
    return ours, theirs


def _same(ours, theirs, sort=False):
    """Same shape, pattern in storage order, and values; ``sort`` sorts scipy's rows."""
    theirs = sp.csr_matrix(theirs)
    if sort:
        theirs = theirs.sorted_indices()
    return (
        ours.shape == theirs.shape
        and ours.nnz == theirs.nnz
        and np.array_equal(ours.indptr, theirs.indptr)
        and np.array_equal(ours.indices, theirs.indices)
        and np.array_equal(ours.data, theirs.data)
    )


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("density", [0.0, 0.15, 0.6])
def test_construction_and_dense_form(shape, density):
    rng = np.random.default_rng(hash((shape, density)) % 2**32)
    ours, theirs = _random(rng, shape, density)
    assert _same(ours, theirs)
    assert np.array_equal(ours.toarray(), theirs.toarray())


def test_repeated_positions_are_refused():
    with pytest.raises(ValueError, match="at most once"):
        sparse.from_triples([0, 1, 0], [2, 2, 2], [1.0, 2.0, 3.0], (2, 3))


def test_diagonal_and_zeros():
    values = np.array([1.5, 0.0, -2.0, 3j, 0.0])
    assert _same(sparse.diagonal(values), sp.diags(values).tocsr())
    assert _same(sparse.zeros((4, 3)), sp.csr_matrix((4, 3), dtype=complex))


@pytest.mark.parametrize("shape", SHAPES)
def test_adjoint(shape):
    ours, theirs = _random(np.random.default_rng(1), shape, 0.3)
    assert _same(ours.adjoint(), theirs.conj().T, sort=True)


@pytest.mark.parametrize("shape", SHAPES)
def test_row_and_column_selection(shape):
    rng = np.random.default_rng(2)
    ours, theirs = _random(rng, shape, 0.4)
    for count in {0, 1, shape[0] // 2, shape[0]}:
        rows = rng.choice(shape[0], size=count, replace=False)
        for pick in (rows, np.sort(rows)):
            assert _same(ours[pick, :], theirs[pick, :])
    for count in {0, 1, shape[1] // 2, shape[1]}:
        cols = rng.choice(shape[1], size=count, replace=False)
        for pick in (cols, np.sort(cols)):
            assert _same(ours[:, pick], theirs[:, pick], sort=True)
    with pytest.raises(IndexError):
        ours[[0], [0]]


@pytest.mark.parametrize("scalar", [2.5, -1.0, 0.0, 3, 1j, 0.3 - 1.7j])
@pytest.mark.parametrize("kind", ["mixed", "real", "imaginary"])
def test_scalar_multiples(scalar, kind):
    ours, theirs = _random(np.random.default_rng(3), (20, 17), 0.3, kind)
    assert _same(scalar * ours, scalar * theirs)
    assert _same(ours * scalar, theirs * scalar)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("overlap", [0.0, 0.5, 1.0])
def test_sums_and_differences(shape, overlap):
    rng = np.random.default_rng(4)
    a, a_sp = _random(rng, shape, 0.3)
    b, b_sp = _random(rng, shape, 0.3)
    # positions shared with a, some holding a's values so a - b cancels
    shared = a.toarray() != 0
    shared &= rng.random(shape) < overlap
    mixed = np.where(shared, np.where(rng.random(shape) < 0.5, a.toarray(), 2.0), 0)
    rows, cols = np.nonzero(mixed)
    c = sparse.from_triples(rows, cols, mixed[rows, cols], shape)
    c_sp = sp.csr_matrix((mixed[rows, cols], (rows, cols)), shape=shape)
    # a product operand lists its rows last-touched first, and scipy's sum
    # keeps that order of touch: the sum's rows are sorted, scipy's once sorted
    e, e_sp = _random(rng, (shape[1], shape[1]), 0.3)
    p, p_sp = a @ e, a_sp @ e_sp
    for left, left_sp in ((a, a_sp), (c, c_sp), (p, p_sp)):
        for right, right_sp in ((b, b_sp), (c, c_sp), (a, a_sp), (p, p_sp)):
            assert _same(left + right, left_sp + right_sp, sort=True)
            assert _same(left - right, left_sp - right_sp, sort=True)
    with pytest.raises(ValueError):
        a + sparse.zeros((shape[0] + 1, shape[1]))


@pytest.mark.parametrize("inner", [1, 5, 23])
@pytest.mark.parametrize("kind", ["mixed", "real", "imaginary"])
def test_products_keep_scipys_storage_order(inner, kind):
    rng = np.random.default_rng(5)
    a, a_sp = _random(rng, (19, inner), 0.5, kind)
    b, b_sp = _random(rng, (inner, 14), 0.5)
    c, c_sp = _random(rng, (14, 9), 0.4)
    ab, ab_sp = a @ b, a_sp @ b_sp
    assert _same(ab, ab_sp)
    # a left factor whose rows are not sorted is traversed in storage order
    assert _same(ab @ c, ab_sp @ c_sp)
    big, big_sp = _random(rng, (60, 50), 0.3, kind)
    d, d_sp = _random(rng, (50, 40), 0.3)
    assert _same(big @ d, big_sp @ d_sp)
    with pytest.raises(ValueError):
        a @ c


def test_products_drop_exact_cancellations():
    # C A - A C style sums cancel exactly: the zeros are not stored
    a = sparse.from_triples([0, 1], [1, 0], [2.0, 2.0], (2, 2))
    a_sp = sp.csr_matrix(([2.0, 2.0], ([0, 1], [1, 0])), shape=(2, 2))
    b = sparse.from_triples([0, 1], [0, 1], [1.0, -1.0], (2, 2))
    b_sp = sp.csr_matrix(([1.0, -1.0], ([0, 1], [0, 1])), shape=(2, 2))
    assert _same(a @ b + b @ a, a_sp @ b_sp + b_sp @ a_sp, sort=True)
    assert (a @ b + b @ a).nnz == 0


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("kind", ["mixed", "real", "imaginary"])
def test_dense_operands_are_refused(shape, kind):
    # ``@`` is a product of two sparse matrices; a dense vector or stack of
    # columns on either side is a TypeError, not a silent dense product
    rng = np.random.default_rng(7)
    m, _ = _random(rng, shape, 0.5, kind)
    rows, cols = shape
    for x in (np.ones(cols), np.ones((cols, 1)), np.ones((cols, 16)), np.zeros((cols, 0))):
        with pytest.raises(TypeError):
            m @ x
    for y in (np.ones(rows), np.ones((1, rows)), np.ones((16, rows))):
        with pytest.raises(TypeError):
            y @ m


def test_stored_arrays_are_read_only():
    # matrices share their arrays: a scalar multiple keeps the pattern's
    m, _ = _random(np.random.default_rng(12), (20, 20), 0.4)
    assert (2.0 * m).indices is m.indices
    for array in (m.data, m.indices, m.indptr):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
