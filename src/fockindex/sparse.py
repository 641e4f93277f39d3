"""Complex sparse matrices in compressed-row form, on numpy alone.

A ``CSR`` holds the three arrays of the compressed-row layout: ``indptr``
(where each row starts), ``indices`` (the column of each stored entry) and
``data`` (its complex128 value).  A row holds each column at most once,
and the arrays are read-only: operations build new matrices.  Matrices
built from triples, and all sums, differences, adjoints and slices, list
each row's columns in increasing order.

Every operation does the floating-point operations scipy.sparse does, in
the same order, so for finite values the results agree with scipy's bit for
bit:

- ``a @ b``, of two sparse matrices (a dense operand is a ``TypeError``),
  sums the products of each output entry in traversal order (a row of
  ``a`` in storage order, and for each of its entries the matching row of
  ``b`` in storage order), drops exact zeros, and lists each row's
  columns last-touched first, the order in which scipy's SMMP routine emits
  them, so a later ``@`` by the product also sums in scipy's order;
- ``a + b`` and ``a - b`` apply the operation once per position, with zero
  standing in for a missing entry, and drop exact zeros;
- ``s * m`` multiplies the stored values by the scalar;
- a product of two complex numbers is formed as ``_times`` forms it,
  without the fused multiply-add numpy's complex multiply may use.

One storage order differs: a sum lists each row's columns in increasing
order, while scipy keeps its first-touch order when an operand's rows are
not sorted, as a product's are not.  The values agree; a later ``@`` by
such a sum may add its rows in another order than scipy.
"""

from __future__ import annotations

import numpy as np

__all__ = ["CSR", "from_triples", "diagonal", "zeros"]

# A product expands at most this many (row, middle, column) paths at once;
# a sum works on blocks of rows holding at most this many entries.
_PRODUCT_PATHS = 1 << 19
_BLOCK_ENTRIES = 1 << 18


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

    def rows(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """The row of every entry stored in rows ``start:stop``."""
        stop = self.shape[0] if stop is None else stop
        counts = self.indptr[start + 1:stop + 1] - self.indptr[start:stop]
        return np.arange(start, stop).repeat(counts)

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


def _row_blocks(before, limit: int) -> list[tuple[int, int]]:
    """Row ranges that cover every row, in order, each costing at most ``limit``.

    ``before[r]`` is the cost of the rows before row ``r``; a single row
    that costs more than ``limit`` makes a block of its own.
    """
    blocks, start, rows = [], 0, len(before) - 1
    while start < rows:
        stop = int(np.searchsorted(before, before[start] + limit, "right")) - 1
        stop = min(max(stop, start + 1), rows)
        blocks.append((start, stop))
        start = stop
    return blocks


def _stacked(pieces, shape) -> CSR:
    """The matrix of consecutive row blocks, each ``(row lengths, columns, values)``."""
    if len(pieces) != 1:
        if not pieces:
            return zeros(shape)
        pieces = [[np.concatenate(part) for part in zip(*pieces)]]
    counts, cols, values = pieces[0]
    return CSR(values, cols, np.concatenate(([0], counts.cumsum())), shape)


def _keys(m: CSR, start: int, stop: int) -> np.ndarray:
    """``row * width + column`` of the entries in rows ``start:stop``, rows
    counted from ``start``."""
    cols = m.indices[m.indptr[start]:m.indptr[stop]]
    return (m.rows(start, stop) - start) * m.shape[1] + cols


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


def zeros(shape) -> CSR:
    return CSR(np.zeros(0, np.complex128), np.zeros(0, np.int64),
               np.zeros(shape[0] + 1, np.int64), shape)


def _combine(a: CSR, b: CSR, op) -> CSR:
    """``op`` at every position stored in ``a`` or ``b``; exact zeros dropped."""
    if a.shape != b.shape:
        raise ValueError(f"shapes {a.shape} and {b.shape} differ")
    blocks = _row_blocks(a.indptr + b.indptr, _BLOCK_ENTRIES)
    return _stacked([_combine_rows(a, b, op, *block) for block in blocks], a.shape)


def _combine_rows(a: CSR, b: CSR, op, start: int, stop: int):
    """Rows ``start:stop`` of ``op(a, b)``, each row's columns in increasing order."""
    keys = np.concatenate((_keys(a, start, stop), _keys(b, start, stop)))
    first, entry = _distinct(keys)
    split = a.indptr[stop] - a.indptr[start]
    left = np.zeros(len(first), dtype=np.complex128)
    right = np.zeros(len(first), dtype=np.complex128)
    left[entry[:split]] = a.data[a.indptr[start]:a.indptr[stop]]
    right[entry[split:]] = b.data[b.indptr[start]:b.indptr[stop]]
    values = op(left, right)
    keep = values != 0
    rows, cols = np.divmod(keys[first[keep]], a.shape[1])
    return np.bincount(rows, minlength=stop - start), cols, values[keep]


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
    """``a @ b``, expanded a bounded number of paths at a time."""
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"cannot multiply shapes {a.shape} and {b.shape}")
    lengths = (b.indptr[1:] - b.indptr[:-1])[a.indices]
    before_row = np.concatenate(([0], np.cumsum(lengths)))[a.indptr]
    blocks = _row_blocks(before_row, _PRODUCT_PATHS)
    pieces = [_product_rows(a, b, lengths, before_row, *block) for block in blocks]
    return _stacked(pieces, (a.shape[0], b.shape[1]))


def _product_rows(a: CSR, b: CSR, lengths, before_row, start: int, stop: int):
    """Rows ``start:stop`` of ``a @ b`` in scipy's storage order."""
    first, last = a.indptr[start], a.indptr[stop]
    lengths = lengths[first:last]
    paths = _segments(b.indptr[a.indices[first:last]], lengths)
    rows = np.repeat(a.rows(start, stop) - start, lengths)
    cols = b.indices[paths]
    values = _times(_parts(np.repeat(a.data[first:last], lengths)), b.data[paths])
    touched, entry = _distinct(rows * b.shape[1] + cols)
    sums = np.empty(len(touched), dtype=np.complex128)  # added in path order
    sums.real = np.bincount(entry, values.real, minlength=len(touched))
    sums.imag = np.bincount(entry, values.imag, minlength=len(touched))
    # scipy lists a row's entries last-touched first: reflect each entry's
    # first path within its row's paths, and list the entries by that
    bounds = before_row[start:stop + 1] - before_row[start]
    row = rows[touched]
    place = np.full(len(paths), -1)
    place[bounds[row] + bounds[row + 1] - 1 - touched] = np.arange(len(touched))
    emit = place[place >= 0]
    emit = emit[sums[emit] != 0]
    return np.bincount(row[emit], minlength=stop - start), cols[touched[emit]], sums[emit]
