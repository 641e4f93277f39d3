"""The numpy sparse layer against scipy.sparse as an oracle.

Every operation is compared with scipy's result bit for bit: the stored
pattern (``indptr`` and ``indices``, in storage order) and the values, with
``np.array_equal``.  The values are general complex numbers over six orders
of magnitude, so a product that rounds differently from scipy's (numpy's
complex multiply may fuse a multiply-add, scipy's does not) shows.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockindex import cli, fock, sparse, spinors

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


# --------------------------------------------------------------------------
# a product whose rows add at most one path each skips the gathering sums


def _gathered(a, b):
    """``a @ b`` through the route that sorts and sums the paths of each entry."""
    with mock.patch.object(sparse, "_one_path_per_row", lambda bounds: False):
        return a @ b


def _same_bits(ours, other):
    """Same shape, pattern and stored values, bit for bit (so -0.0 != 0.0)."""
    return (
        ours.shape == other.shape
        and np.array_equal(ours.indptr, other.indptr)
        and ours.indices.dtype == other.indices.dtype
        and np.array_equal(ours.indices, other.indices)
        and np.array_equal(ours.data.view(np.uint64), other.data.view(np.uint64))
    )


# values with both parts nonzero, a -0.0 component, and pairs whose
# products underflow to exact zero
_EDGE_VALUES = [1.0, -2.5, 3j, 0.75 - 1.25j, complex(-0.0, 1.5), complex(2.0, -0.0),
                complex(-0.0, -0.0), 1e-200, 1e-200j, complex(1e-170, -3e-180)]
_values = st.sampled_from(_EDGE_VALUES) | st.complex_numbers(
    max_magnitude=1e6, allow_nan=False, allow_infinity=False)


@st.composite
def _one_entry_per_row(draw, shape):
    """A matrix of ``shape`` with at most one entry in each row."""
    rows, cols = shape
    entries = [(row, draw(st.integers(0, cols - 1)), draw(_values))
               for row in range(rows) if cols and draw(st.booleans())]
    held = np.array([row for row, _, _ in entries], dtype=np.int64)
    columns = np.array([col for _, col, _ in entries], dtype=np.int64)
    values = np.array([value for _, _, value in entries], dtype=complex)
    return sparse.from_triples(held, columns, values, shape)


_one_path_operands = st.tuples(*[st.integers(0, 7)] * 3).flatmap(
    lambda sizes: st.tuples(_one_entry_per_row(sizes[:2]), _one_entry_per_row(sizes[1:])))


@settings(max_examples=200, deadline=None)
@given(operands=_one_path_operands)
def test_one_path_products_match_the_gathering_route(operands):
    a, b = operands
    assert _same_bits(a @ b, _gathered(a, b))


def test_one_path_product_edge_values():
    # rows: a -0.0 component, a product that underflows to zero, both parts
    # nonzero (multiplied as two parts), an empty row; five columns
    a = sparse.from_triples([0, 1, 2], [0, 1, 2], [1.0, 1e-200, 0.5 + 0.25j], (4, 3))
    b = sparse.from_triples([0, 1, 2], [2, 0, 1], [complex(-0.0, 2.0), 1e-200, 3.0 - 1.0j],
                            (3, 5))
    product = a @ b
    assert _same_bits(product, _gathered(a, b))
    assert product.indptr.tolist() == [0, 1, 1, 2, 2]
    assert product.indices.tolist() == [2, 1]
    assert product.data.tolist() == [2j, 1.75 + 0.25j]
    assert not np.signbit(product.data[0].real)  # the -0.0 comes out +0.0


def test_ladder_products_take_the_one_path_route():
    route = []
    one_path = sparse._one_path_per_row

    def spy(bounds):
        route.append(one_path(bounds))
        return route[-1]

    with mock.patch.object(sparse, "_one_path_per_row", spy):
        report = cli.run(cli.RunRequest("verify-algebra", {"n": 3, "cutoff": 8}))
        assert report.passed
        # the n^2 commutators take two products each, and the two
        # factorizations one per variable each: all are ladder products
        assert route == [True] * (2 * 3**2 + 2 * 3)
        route.clear()
        config = fock.FockSpaceConfig(3, 8)
        dirac = spinors.dirac_plus(config)
        dirac @ dirac
        assert route == [False]
