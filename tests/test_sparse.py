"""The numpy sparse layer against scipy.sparse as an oracle.

Every operation is compared with scipy's result bit for bit: the stored
pattern (``indptr`` and ``indices``, in storage order) and the values, with
``np.array_equal``.  The values are general complex numbers over six orders
of magnitude, so a product that rounds differently from scipy's (numpy's
complex multiply may fuse a multiply-add, scipy's does not) shows.  A
product's operands add at most one path per row, as the library's do; a
product with a row of more paths is refused.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy_oracle import to_scipy

from fockindex import cli, fock, sparse, spinors

sp = pytest.importorskip("scipy.sparse")

SHAPES = [(1, 1), (1, 7), (7, 1), (6, 6), (13, 9), (40, 40), (57, 31)]


def _random_values(rng, count, kind):
    """``count`` random values of ``kind``: mixed, real or imaginary."""
    values = rng.normal(size=count) + 1j * rng.normal(size=count)
    values *= 10.0 ** rng.integers(-3, 4, size=count)
    if kind == "real":
        values = values.real.astype(complex)
    elif kind == "imaginary":
        values = 1j * values.imag
    return values


def _both(rows, cols, values, shape):
    """The matrix of the triples as a ``sparse.CSR`` and as scipy's CSR."""
    ours = sparse.from_triples(rows, cols, values, shape)
    theirs = sp.csr_matrix((values, (rows, cols)), shape=shape)
    return ours, theirs


def _random(rng, shape, density, kind="mixed"):
    """The same random matrix twice: as a ``sparse.CSR`` and as scipy's CSR."""
    m, n = shape
    count = int(round(density * m * n))
    rows, cols = np.divmod(rng.choice(m * n, size=count, replace=False), n)
    return _both(rows, cols, _random_values(rng, count, kind), shape)


def _one_path_factors(rng, rows, inner, cols, kind="mixed"):
    """Random ``a`` (``rows x inner``) and ``b`` (``inner x cols``), each as
    ours and scipy's, whose product adds at most one path per row: ``b``
    holds at most one entry per row, and a row of ``a`` meets at most one
    row of ``b`` that holds one.  Rows of ``a`` hold up to ``inner`` entries."""
    held = rng.random(inner) < 0.6 if cols else np.zeros(inner, dtype=bool)
    b_rows = np.flatnonzero(held)
    b = _both(b_rows, rng.integers(0, cols, size=len(b_rows)),
              _random_values(rng, len(b_rows), kind), (inner, cols))
    pattern = (rng.random((rows, inner)) < 0.5) & ~held
    for row in range(rows):
        if held.any() and rng.random() < 0.7:
            pattern[row, rng.choice(b_rows)] = True
    a_rows, a_cols = np.nonzero(pattern)
    a = _both(a_rows, a_cols, _random_values(rng, len(a_rows), kind), (rows, inner))
    return a, b


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
    # a diagonal of zeros stores nothing
    assert _same(sparse.diagonal(np.zeros(4)), sp.csr_matrix((4, 4), dtype=complex))


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
    # products, one of each value kind
    operands = [(a, a_sp), (c, c_sp)]
    for kind in ("mixed", "real", "imaginary"):
        (f, f_sp), (g, g_sp) = _one_path_factors(rng, shape[0], 5, shape[1], kind)
        operands.append((f @ g, f_sp @ g_sp))
    for left, left_sp in operands:
        for right, right_sp in [(b, b_sp), *operands]:
            assert _same(left + right, left_sp + right_sp)
            assert _same(left - right, left_sp - right_sp)
    with pytest.raises(ValueError):
        a + sparse.diagonal(np.ones(shape[0] + 1))


@pytest.mark.parametrize("inner", [1, 5, 23])
@pytest.mark.parametrize("kind", ["mixed", "real", "imaginary"])
def test_products_keep_scipys_storage_order(inner, kind):
    rng = np.random.default_rng(5)
    (a, a_sp), (b, b_sp) = _one_path_factors(rng, 19, inner, 14, kind)
    ab, ab_sp = a @ b, a_sp @ b_sp
    assert _same(ab, ab_sp)
    # a product holds at most one entry per row, so it is again a left factor
    c, c_sp = _one_path_factors(rng, 0, 14, 9)[1]
    assert _same(ab @ c, ab_sp @ c_sp)
    (big, big_sp), (d, d_sp) = _one_path_factors(rng, 60, 50, 40, kind)
    assert big.nnz > 60  # rows of several entries, one of them on a path
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
# a product adds at most one path per row, and is refused otherwise


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


@st.composite
def _one_path_operands(draw):
    """``a`` and ``b`` whose product adds at most one path per row: ``b``
    holds at most one entry per row, and each row of ``a`` holds at most one
    entry in a column whose row of ``b`` holds one, and any number in the
    others."""
    rows, inner, cols = (draw(st.integers(0, 7)) for _ in range(3))
    b = draw(_one_entry_per_row((inner, cols)))
    held = np.diff(b.indptr) > 0
    empty = np.flatnonzero(~held).tolist()
    entries = []
    for row in range(rows):
        picked = draw(st.lists(st.sampled_from(empty), unique=True)) if empty else []
        if held.any() and draw(st.booleans()):
            picked.append(draw(st.sampled_from(np.flatnonzero(held).tolist())))
        entries += [(row, col, draw(_values)) for col in picked]
    a_rows, a_cols, values = zip(*entries) if entries else ((), (), ())
    a = sparse.from_triples(np.array(a_rows, dtype=np.int64), np.array(a_cols, dtype=np.int64),
                            np.array(values, dtype=complex), (rows, inner))
    return a, b


@settings(max_examples=200, deadline=None)
@given(operands=_one_path_operands())
def test_one_path_products_match_scipy(operands):
    a, b = operands
    assert _same_bits(a @ b, to_scipy(a) @ to_scipy(b))


def test_one_path_product_edge_values():
    # rows: a -0.0 component, a product that underflows to zero, both parts
    # nonzero (multiplied as two parts), an empty row; five columns
    a, a_sp = _both([0, 1, 2], [0, 1, 2], [1.0, 1e-200, 0.5 + 0.25j], (4, 3))
    b, b_sp = _both([0, 1, 2], [2, 0, 1], [complex(-0.0, 2.0), 1e-200, 3.0 - 1.0j], (3, 5))
    product = a @ b
    assert _same_bits(product, a_sp @ b_sp)
    assert product.indptr.tolist() == [0, 1, 1, 2, 2]
    assert product.indices.tolist() == [2, 1]
    assert product.data.tolist() == [2j, 1.75 + 0.25j]
    assert not np.signbit(product.data[0].real)  # the -0.0 comes out +0.0


def test_ladder_products_take_the_one_path_route():
    with mock.patch.object(sparse, "_product", wraps=sparse._product) as spy:
        report = cli.run(cli.RunRequest("verify-algebra", {"n": 3, "cutoff": 8}))
    assert report.passed
    # the n^2 commutators take two products each, and the two
    # factorizations one per variable each: all are ladder products
    assert spy.call_count == 2 * 3**2 + 2 * 3


def test_products_with_a_row_of_two_paths_are_refused():
    # row 1 of a holds two entries, each meeting an entry of b; then a row
    # of a meets a row of b holding two
    a = sparse.from_triples([1, 1], [0, 1], [1.0, 2.0], (2, 2))
    with pytest.raises(ValueError, match="row 1 of a sparse product adds 2 paths"):
        a @ sparse.diagonal(np.ones(2))
    with pytest.raises(ValueError, match="row 1 of a sparse product adds 2 paths"):
        sparse.diagonal(np.ones(2)) @ a
    # the square of the coupled operator sums over the form factor
    dirac = spinors.dirac_plus(fock.FockSpaceConfig(3, 8))
    with pytest.raises(ValueError, match="paths; a product adds at most one per row"):
        dirac @ dirac


@settings(max_examples=100, deadline=None)
@given(shape=st.tuples(st.integers(0, 9), st.integers(0, 9)), seed=st.integers(0, 2**32 - 1),
       scalar=st.sampled_from([2.5, -1.0, 0.0, 1j, 0.3 - 1.7j]))
def test_built_matrices_list_each_rows_columns_in_increasing_order(shape, seed, scalar):
    rng = np.random.default_rng(seed)
    a, _ = _random(rng, shape, rng.random())
    b, _ = _random(rng, shape, rng.random())
    (f, _), (g, _) = _one_path_factors(rng, shape[0], 4, shape[1])
    rows = rng.permutation(shape[0])[:rng.integers(0, shape[0] + 1)]
    cols = rng.permutation(shape[1])[:rng.integers(0, shape[1] + 1)]
    for m in (a, a + b, a - b, scalar * a, a * scalar, a.adjoint(), a[rows, :], a[:, cols],
              f @ g, f @ g - a):
        keys = m.rows() * m.shape[1] + m.indices
        assert np.all(keys[1:] > keys[:-1])
