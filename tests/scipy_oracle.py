"""scipy.sparse as the oracle of sparse products with rows of many paths.

``fockindex.sparse`` multiplies only operands whose product adds at most one
path per row, as the library's ladder products do.  The test oracles that
form other products, such as the square of the coupled operator or the
assembled comparison model, form them here through scipy.  A test that
calls these helpers without scipy installed is skipped.
"""

import numpy as np
import pytest

from fockindex import sparse


def to_scipy(m: sparse.CSR):
    """``m`` as scipy's CSR matrix, over the same arrays."""
    sp = pytest.importorskip("scipy.sparse")
    return sp.csr_matrix((m.data, m.indices, m.indptr), shape=m.shape)


def product(a: sparse.CSR, b: sparse.CSR) -> sparse.CSR:
    """``a @ b`` as scipy forms it, in scipy's storage order (each row's
    columns last-touched first)."""
    out = to_scipy(a) @ to_scipy(b)
    return sparse.CSR(out.data, out.indices, out.indptr.astype(np.int64), out.shape)
