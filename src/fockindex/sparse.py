"""Complex sparse matrices in compressed-row form, on numpy alone.

A ``CSR`` holds the three arrays of the compressed-row layout: ``indptr``
(where each row starts), ``indices`` (the column of each stored entry) and
``data`` (its complex128 value).  A row holds each column at most once,
and the arrays are read-only: operations build new matrices.  Every matrix
the operations build lists each row's columns in increasing order.

The module holds only what the other layers use.  The products they form
are of ladder maps, weighted index maps that store at most one entry per
row, of their adjoints and of products of them, so each row of a product
adds at most one (row, middle, column) path.  ``a @ b`` multiplies only
such operands: a product with a row of two or more paths is a
``ValueError``.  The tests form general products, such as the square of
the coupled operator, through scipy.

Every operation does the floating-point operations scipy.sparse does, in
the same order, so for finite values the results agree with scipy's bit for
bit:

- ``a @ b``, of two sparse matrices (a dense operand is a ``TypeError``),
  stores each row's one path, added to zero as scipy's sums start from it,
  and drops exact zeros;
- ``a + b`` and ``a - b`` apply the operation once per position, with zero
  standing in for a missing entry, and drop exact zeros;
- ``s * m`` multiplies the stored values by the scalar;
- a product of two complex numbers is formed as ``_times`` forms it,
  without the fused multiply-add numpy's complex multiply may use.

Each sum and each product is one pass over the whole matrices: a sum holds
the entries of both operands at once, and a product one path per row.  The
state cap of the command line bounds both.
"""

from __future__ import annotations

import numpy as np

__all__ = ["CSR", "from_triples", "diagonal"]


class CSR:
    """A complex matrix in compressed-row form."""

    __slots__ = ("data", "indices", "indptr", "shape")
    __array_ufunc__ = None  # numpy defers to the operators below

    def __init__(self, data, indices, indptr, shape):
        self.shape = (int(shape[0]), int(shape[1]))
        narrow = self.shape[1] < 2**31  # int32 indices, as scipy stores them
        self.data, self.indptr = data, indptr
        self.indices = np.asarray(indices, dtype=np.int32 if narrow else np.int64)
        for array in (self.data, self.indices, self.indptr):
            array.flags.writeable = False  # matrices share their arrays

    @property
    def nnz(self) -> int:
        return len(self.data)

    def rows(self) -> np.ndarray:
        """The row of every stored entry."""
        return np.arange(self.shape[0]).repeat(np.diff(self.indptr))

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=np.complex128)
        out[self.rows(), self.indices] = self.data
        return out

    def adjoint(self) -> CSR:
        """The conjugate transpose."""
        order = np.argsort(self.indices, kind="stable")
        counts = np.bincount(self.indices, minlength=self.shape[1])
        return CSR(self.data[order].conj(), self.rows()[order],
                   np.concatenate(([0], np.cumsum(counts))), self.shape[::-1])

    def __getitem__(self, key) -> CSR:
        """``m[rows, :]`` or ``m[:, cols]``, for an array of distinct indices."""
        rows, cols = key
        if isinstance(rows, slice) and rows == slice(None):
            position = np.full(self.shape[1], -1)
            position[cols] = np.arange(len(cols))
            new = position[self.indices]
            keep = new >= 0
            return from_triples(self.rows()[keep], new[keep], self.data[keep],
                                (self.shape[0], len(cols)))
        if isinstance(cols, slice) and cols == slice(None):
            counts = (self.indptr[1:] - self.indptr[:-1])[rows]
            take = _segments(self.indptr[rows], counts)
            return CSR(self.data[take], self.indices[take],
                       np.concatenate(([0], np.cumsum(counts))),
                       (len(counts), self.shape[1]))
        raise IndexError("select rows or columns, one at a time")

    def __mul__(self, scalar) -> CSR:
        if not np.isscalar(scalar):
            return NotImplemented
        return CSR(self.data * scalar, self.indices, self.indptr, self.shape)

    __rmul__ = __mul__

    def __add__(self, other: CSR) -> CSR:
        return _combine(self, other, np.add)

    def __sub__(self, other: CSR) -> CSR:
        return _combine(self, other, np.subtract)

    def __matmul__(self, other):
        if isinstance(other, CSR):
            return _product(self, other)
        return NotImplemented


def _segments(starts, lengths) -> np.ndarray:
    """The concatenated ranges ``starts[i] : starts[i] + lengths[i]``."""
    ends = np.cumsum(lengths)
    return np.repeat(starts - (ends - lengths), lengths) + np.arange(lengths.sum())


def from_triples(rows, cols, values, shape) -> CSR:
    """The matrix holding ``values`` at the distinct positions ``(rows, cols)``."""
    keys = np.asarray(rows, dtype=np.int64) * shape[1] + np.asarray(cols)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    if np.any(keys[1:] == keys[:-1]):
        raise ValueError("a sparse matrix holds each position at most once")
    indptr = np.searchsorted(keys, np.arange(shape[0] + 1) * shape[1])
    values = np.asarray(values)[order].astype(np.complex128, copy=False)
    return CSR(values, keys % shape[1], indptr, shape)


def diagonal(values) -> CSR:
    """The diagonal matrix with the nonzero ``values`` stored."""
    values = np.asarray(values, dtype=np.complex128)
    where = np.flatnonzero(values)
    return from_triples(where, where, values[where], (len(values), len(values)))


def _combine(a: CSR, b: CSR, op) -> CSR:
    """``op`` at every position stored in ``a`` or ``b``, each row's columns in
    increasing order; exact zeros dropped."""
    if a.shape != b.shape:
        raise ValueError(f"shapes {a.shape} and {b.shape} differ")
    width = a.shape[1]
    keys = np.concatenate((a.rows() * width + a.indices, b.rows() * width + b.indices))
    first, entry = _distinct(keys)
    left = np.zeros(len(first), dtype=np.complex128)
    right = np.zeros(len(first), dtype=np.complex128)
    left[entry[:a.nnz]] = a.data
    right[entry[a.nnz:]] = b.data
    values = op(left, right)
    keep = values != 0
    rows, cols = np.divmod(keys[first[keep]], width)
    counts = np.bincount(rows, minlength=a.shape[0])
    return CSR(values[keep], cols, np.concatenate(([0], np.cumsum(counts))), a.shape)


def _distinct(keys):
    """The distinct ``keys``: the element holding each first, in key order,
    and the number of the distinct key of every element."""
    order = keys.argsort(kind="stable")
    ordered = keys[order]
    opens = np.ones(len(keys), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=opens[1:])
    entry = np.empty_like(order)
    entry[order] = opens.cumsum() - 1
    return order[opens], entry


def _parts(values) -> tuple:
    """``values`` as a sum of arrays of one exactly zero component each: the
    values themselves when each has one, else their real and imaginary parts.

    numpy's complex multiply may fuse a multiply-add (its AVX-512 loops do)
    and scipy's does not.  A product by a value with an exactly zero
    component rounds the same either way, so ``_times`` of the parts rounds
    as scipy's product does.
    """
    if np.logical_and(values.real, values.imag).any():
        return values.real.astype(np.complex128), 1j * values.imag
    return (values,)


def _times(parts, b) -> np.ndarray:
    """The products by ``b`` of the values split into ``parts``, as scipy forms them."""
    products = parts[0] * b
    for part in parts[1:]:
        products += part * b
    return products


def _product(a: CSR, b: CSR) -> CSR:
    """``a @ b``, for operands whose product adds at most one path per row."""
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"cannot multiply shapes {a.shape} and {b.shape}")
    lengths = np.diff(b.indptr)[a.indices]
    widths = np.diff(np.concatenate(([0], np.cumsum(lengths)))[a.indptr])
    if widths.max(initial=0) > 1:
        raise ValueError(f"row {int(widths.argmax())} of a sparse product adds "
                         f"{int(widths.max())} paths; a product adds at most one per row")
    paths = _segments(b.indptr[a.indices], lengths)
    rows = np.repeat(a.rows(), lengths)
    # each path is its row's one entry; + 0.0 turns a -0.0 component to
    # +0.0, as scipy's sums start from it
    values = _times(_parts(np.repeat(a.data, lengths)), b.data[paths]) + 0.0
    keep = values != 0
    counts = np.bincount(rows[keep], minlength=a.shape[0])
    return CSR(values[keep], b.indices[paths[keep]], np.concatenate(([0], np.cumsum(counts))),
               (a.shape[0], b.shape[1]))
