"""scipy.sparse as the oracle of the library's operators.

The library holds a ladder map as a ``fock.IndexMap`` and the coupled
operator as the ``(rows, cols, values)`` of its entries.  These helpers
build scipy's complex CSR matrices from them, each row's columns in
increasing order, so the tests form products, sums and slices through
scipy, and ``same_bits`` compares a map with scipy's result bit for bit.
A test that calls ``to_scipy`` without scipy installed is skipped;
``dense`` needs numpy alone.
"""

import numpy as np
import pytest

from fockindex.fock import IndexMap


def entries(m: IndexMap) -> tuple:
    """The ``(rows, cols, values)`` of a map: one entry per state with an image."""
    sources = np.flatnonzero(m.target >= 0)
    return m.target[sources], sources, m.weight[sources]


def to_scipy(operator, size: int | None = None):
    """An index map, or the entries of a ``size x size`` operator, as scipy's
    complex CSR matrix, each row's columns in increasing order."""
    sp = pytest.importorskip("scipy.sparse")
    if isinstance(operator, IndexMap):
        operator, size = entries(operator), len(operator.target)
    rows, cols, values = operator
    order = np.lexsort((cols, rows))
    indptr = np.searchsorted(rows[order], np.arange(size + 1))
    return sp.csr_matrix((np.asarray(values, dtype=complex)[order], cols[order], indptr),
                         shape=(size, size))


def dense(operator, size: int | None = None) -> np.ndarray:
    """The dense matrix of an index map, or of the entries of a ``size x
    size`` operator, without scipy."""
    if isinstance(operator, IndexMap):
        operator, size = entries(operator), len(operator.target)
    rows, cols, values = operator
    out = np.zeros((size, size), dtype=complex)
    out[rows, cols] = values
    return out


def same_bits(m, oracle):
    """The map ``m`` holds scipy's matrix ``oracle`` bit for bit.

    scipy stores no zero, so the map's zero weights are compared as values.
    A map of real weights matches the real parts of scipy's complex values
    bit for bit, and scipy's imaginary parts are zero.
    """
    oracle = oracle.tocsr(copy=True)
    oracle.eliminate_zeros()
    oracle = oracle.tocoo()
    rows, cols, values = entries(m)
    kept = values != 0
    ours = np.lexsort((cols[kept], rows[kept]))
    theirs = np.lexsort((oracle.col, oracle.row))
    got, want = values[kept][ours], oracle.data[theirs]
    if not np.iscomplexobj(got):
        if want.imag.any():
            return False
        want = want.real.copy()
    return (
        np.array_equal(rows[kept][ours], oracle.row[theirs])
        and np.array_equal(cols[kept][ours], oracle.col[theirs])
        and got.dtype == want.dtype
        and np.array_equal(got.view(np.uint64), want.view(np.uint64))
    )
