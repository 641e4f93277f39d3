"""Graded spinor model: oscillator states tensored with an exterior algebra.

The form factor is the exterior algebra of :mod:`fockindex._forms`.  The
coupled first-order operator ``dirac_plus`` exchanges the even and odd
form-degree sectors while preserving total degree; its square is diagonal in
both the oscillator degree and the form degree.

``dirac_plus`` also conserves the label ``m_j = k_j + [j in s]`` of a graded
state ``(k, s)``, so it is block-diagonal over the label blocks, each of at
most ``2^num_vars`` states.  The label map lives here: ``_label_ids`` numbers
the blocks and ``_label_stacks`` gathers the dense blocks of a
label-conserving matrix, stacked by shape: only those that hold a row or a
column its masks keep.  The square identity and the comparison model of
:mod:`fockindex.models` pass their guard masks, so both read only the blocks
that hold a guarded state, and ``_chunks`` splits every stack they work on.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from ._forms import EVEN, ODD, _check_parity, contract_matrix, form_subsets, wedge_matrix
from .errors import PairingFloorError
from .fock import (
    GUARD,
    FockSpaceConfig,
    _basis,
    _basis_array,
    _radix_codes,
    basis_index,
    creation,
    degrees,
)
from .sparse import CSR, _distinct, from_triples

__all__ = [
    "EVEN",
    "ODD",
    "PAIRING_FLOOR",
    "GradedBasisIndex",
    "form_subsets",
    "wedge_matrix",
    "contract_matrix",
    "graded_basis",
    "graded_dimension",
    "graded_index",
    "graded_osc_degrees",
    "graded_form_degrees",
    "graded_guard_mask",
    "sector_indices",
    "dirac_plus",
    "vacuum_index",
    "basis_vector",
    "square_identity_residual",
]

# Deformed vacua must keep at least this much overlap with the reference one.
PAIRING_FLOOR = 1e-3

# A stack of label blocks or of sector vectors is worked on in chunks of at
# most this many entries (``_chunks``, here and in the models), so its memory
# stays that of the operator.
_STACK_ENTRIES = 2**18


class GradedBasisIndex(NamedTuple):
    """One basis element: an oscillator multi-index and a form label subset."""

    osc: tuple[int, ...]
    form: tuple[int, ...]


@lru_cache(maxsize=None)
def _graded_basis(num_vars: int, cutoff: int) -> tuple[GradedBasisIndex, ...]:
    osc = _basis(num_vars, cutoff)
    forms = form_subsets(num_vars)
    return tuple(GradedBasisIndex(k, s) for k in osc for s in forms)


def graded_basis(config: FockSpaceConfig) -> tuple[GradedBasisIndex, ...]:
    """Tensor-product enumeration, oscillator-major / form-minor."""
    return _graded_basis(config.num_vars, config.cutoff)


def graded_dimension(config: FockSpaceConfig) -> int:
    return config.dimension * 2**config.num_vars


def graded_index(config: FockSpaceConfig, index: GradedBasisIndex) -> int:
    """Position of a graded basis element in the enumeration.

    Found from the oscillator-major layout, without building the graded
    basis (at the state cap, half a million tuples).
    """
    try:
        osc_pos = basis_index(config, tuple(index.osc))
        forms = form_subsets(config.num_vars)
        form_pos = forms.index(tuple(index.form))
    except ValueError as exc:
        raise ValueError(f"invalid graded index {index}: {exc}") from None
    return osc_pos * len(forms) + form_pos


def graded_osc_degrees(config: FockSpaceConfig) -> np.ndarray:
    nf = 2**config.num_vars
    return np.repeat(degrees(config), nf)


def graded_form_degrees(config: FockSpaceConfig) -> np.ndarray:
    form_deg = np.array([len(s) for s in form_subsets(config.num_vars)], dtype=int)
    return np.tile(form_deg, config.dimension)


def graded_guard_mask(config: FockSpaceConfig) -> np.ndarray:
    """Mask of graded states whose oscillator degree is guarded."""
    return graded_osc_degrees(config) <= config.cutoff - GUARD


def sector_indices(config: FockSpaceConfig, parity: str) -> np.ndarray:
    """Positions of the even (resp. odd) form-degree sector."""
    _check_parity(parity)
    rem = 0 if parity == EVEN else 1
    return np.nonzero(graded_form_degrees(config) % 2 == rem)[0]


def dirac_plus(config: FockSpaceConfig, raising=None) -> CSR:
    """The coupled operator i * sum_j (C_j contract_j - C_j^* wedge_j).

    Exchanges the even/odd form sectors while preserving total degree; its
    matrix is exactly self-adjoint under the hard truncation.  Its chiral
    halves are slices by ``sector_indices``: odd rows by even columns, and
    even rows by odd columns.  ``raising`` may pass the maps
    ``creation(config, j)`` for j = 1..num_vars when the caller has built
    them already.

    Each term ``C_j contract_j`` sends a graded state to at most one state,
    and ``C_j^* wedge_j`` is its adjoint, so the terms are assembled as index
    maps on the oscillator-major, form-minor layout.
    """
    nv = config.num_vars
    nf = 2**nv
    if raising is None:
        raising = [creation(config, j) for j in range(1, nv + 1)]
    rows, cols, vals = [], [], []
    for j, up in enumerate(raising, start=1):
        form = contract_matrix(nv, j)
        form_rows, form_cols = np.nonzero(form)
        term_rows = (up.rows()[:, None] * nf + form_rows).ravel()
        term_cols = (up.indices[:, None].astype(np.int64) * nf + form_cols).ravel()
        term_vals = (up.data.real[:, None] * form[form_rows, form_cols]).ravel()
        rows += [term_rows, term_cols]
        cols += [term_cols, term_rows]
        vals += [term_vals, -term_vals]
    rows, cols, vals = np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)
    dim = graded_dimension(config)
    total = from_triples(rows, cols, vals, (dim, dim))
    return CSR(1j * total.data, total.indices, total.indptr, total.shape)


def vacuum_index(config: FockSpaceConfig) -> GradedBasisIndex:
    return GradedBasisIndex((0,) * config.num_vars, ())


def basis_vector(config: FockSpaceConfig, index: GradedBasisIndex) -> np.ndarray:
    vec = np.zeros(graded_dimension(config), dtype=np.complex128)
    vec[graded_index(config, index)] = 1.0
    return vec


def _check_target(config: FockSpaceConfig, target: GradedBasisIndex):
    """Refuse a deformation target of odd form degree, or the vacuum itself."""
    if len(target.form) % 2 != 0:
        raise ValueError(f"deformation target must have even form degree, got {target}")
    if tuple(target.osc) == (0,) * config.num_vars and tuple(target.form) == ():
        raise ValueError("deformation target must differ from the vacuum")


def _deformed_amplitudes(theta: float) -> tuple:
    """``(cos(theta), sin(theta))``, refusing a pairing below ``PAIRING_FLOOR``."""
    cos = math.cos(theta)
    if abs(cos) < PAIRING_FLOOR:
        raise PairingFloorError(f"vacuum pairing |cos(theta)| = {abs(cos):.3e} below "
                                f"floor {PAIRING_FLOOR}")
    return cos, math.sin(theta)


def _label_ids(config: FockSpaceConfig) -> np.ndarray:
    """Label block id of every graded state, in enumeration order.

    The label of ``(k, s)`` is ``m_j = k_j + [j in s]``; ``dirac_plus``
    conserves it.  Every digit ``m_j`` is at most ``cutoff + 1``, so the
    base-``cutoff + 2`` codes of the labels sort as the labels do, and the
    ids number the distinct codes in increasing order.
    """
    nv, radix = config.num_vars, config.cutoff + 2
    member = np.array([[j in s for j in range(1, nv + 1)] for s in form_subsets(nv)])
    osc = _radix_codes(_basis_array(nv, config.cutoff), radix)
    # the form digits add to the oscillator ones without a carry
    codes = osc[:, None] + _radix_codes(member, radix)
    return _distinct(codes.reshape(-1))[1]


def _group(ids: np.ndarray, num: int):
    """Positions sorted by block, block starts and sizes, and local offsets."""
    order = np.argsort(ids, kind="stable")
    count = np.bincount(ids, minlength=num)
    start = np.cumsum(count) - count
    local = np.empty(len(ids), dtype=int)
    local[order] = np.arange(len(ids)) - start[ids[order]]
    return order, start, count, local


def _label_stacks(entries, row_ids: np.ndarray, col_ids: np.ndarray,
                  row_keep: np.ndarray, col_keep: np.ndarray):
    """The label blocks of a block-diagonal sparse matrix that hold a kept row
    or column, stacked by shape.

    ``entries`` holds the rows, columns and values of the matrix's entries,
    ``row_ids`` and ``col_ids`` give the block of every row and column, and
    the masks ``row_keep`` and ``col_keep`` mark the kept rows and columns.
    Yields ``(rows, cols, stack)`` for each shape with columns of the blocks
    that hold a kept row or column, in increasing order of ``(rows,
    columns)``: ``stack[g]`` is the dense block at rows ``rows[g]`` and
    columns ``cols[g]`` of the matrix, and its members are in increasing
    order of block id.  No other block is gathered.
    """
    entry_rows, entry_cols, values = entries
    blocks = row_ids[entry_rows]
    assert np.array_equal(blocks, col_ids[entry_cols]), "entry crosses a label block"
    num = int(max(row_ids.max(initial=-1), col_ids.max(initial=-1))) + 1
    kept = np.zeros(num, dtype=bool)
    kept[row_ids[row_keep]] = kept[col_ids[col_keep]] = True
    row_group = _group(row_ids, num)
    # a square matrix's rows and columns share one grouping
    col_group = row_group if col_ids is row_ids else _group(col_ids, num)
    row_order, row_start, row_count, row_local = row_group
    col_order, col_start, col_count, col_local = col_group
    # the kept blocks grouped by shape, and each one's place in its shape's stack
    shape_key = row_count * (col_count.max(initial=0) + 1) + col_count
    by_shape = np.flatnonzero(kept)[np.argsort(shape_key[kept], kind="stable")]
    del kept  # a generator holds its locals while it yields
    bounds = np.flatnonzero(np.diff(shape_key[by_shape], prepend=-1, append=-1))
    # every other block takes the shape past the last, whose entries are never read
    shape = np.full(num, len(bounds) - 1,
                    dtype=np.int16 if len(bounds) <= 2**15 else np.intp)
    shape[by_shape] = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
    slot = np.empty(num, dtype=np.intp)
    slot[by_shape] = np.arange(len(by_shape)) - bounds[shape[by_shape]]
    # the entries grouped by their block's shape (a radix sort of small ints)
    entry_shape = shape[blocks]
    entry_order = np.argsort(entry_shape, kind="stable")
    entry_bounds = np.searchsorted(entry_shape[entry_order], np.arange(len(bounds)))
    for k in range(len(bounds) - 1):
        members = by_shape[bounds[k]:bounds[k + 1]]
        r, c = int(row_count[members[0]]), int(col_count[members[0]])
        if not c:
            continue
        pick = entry_order[entry_bounds[k]:entry_bounds[k + 1]]
        where = (slot[blocks[pick]] * r + row_local[entry_rows[pick]]) * c
        stack = np.zeros(len(members) * r * c, dtype=values.dtype)
        stack[where + col_local[entry_cols[pick]]] = values[pick]
        rows = row_order[row_start[members, None] + np.arange(r)]
        cols = col_order[col_start[members, None] + np.arange(c)]
        yield rows, cols, stack.reshape(len(members), r, c)


def square_identity_residual(d: CSR, config: FockSpaceConfig) -> float:
    """Max guarded-column error of the square of ``d = dirac_plus(config)``.

    The square must act diagonally as twice the oscillator degree plus twice
    the form degree.  ``d`` conserves the labels, so its square is the
    square of each label block: only the blocks that hold a guarded state
    are gathered, and they are squared by one batched ``np.matmul`` per
    shape, in chunks of at most ``_STACK_ENTRIES`` block entries.  scipy's
    sparse ``d @ d`` is the test oracle.
    """
    expected = 2.0 * graded_osc_degrees(config) + 2.0 * graded_form_degrees(config)
    guard = graded_guard_mask(config)
    ids = _label_ids(config)
    worst = 0.0
    for _, cols, stack in _label_stacks((d.rows(), d.indices, d.data), ids, ids, guard, guard):
        # a block's rows are its columns, in the same order
        size = stack.shape[1]
        for part in _chunks(len(stack), size**2):
            square = _squares(stack[part])
            # the diagonal of each square, as a strided view
            square.reshape(len(square), size * size)[:, ::size + 1] -= expected[cols[part]]
            guarded = np.where(guard[cols[part]][:, None, :], np.abs(square), 0.0)
            worst = max(worst, float(guarded.max(initial=0.0)))
    return worst


def _chunks(count: int, entries: int):
    """Slices of ``count`` items of ``entries`` entries: ``_STACK_ENTRIES`` or
    one item each, made one at a time."""
    size = max(1, _STACK_ENTRIES // entries)
    return (slice(start, min(start + size, count)) for start in range(0, count, size))


def _squares(blocks: np.ndarray) -> np.ndarray:
    """The square of each block of a stack: one batched ``np.matmul``, or,
    for blocks of one or two columns, where a BLAS call per block costs more
    than its product, the sum over the middle index."""
    if blocks.shape[-1] > 2:
        return np.matmul(blocks, blocks)
    square = blocks[:, :, :1] * blocks[:, :1, :]
    for k in range(1, blocks.shape[-1]):
        square += blocks[:, :, k:k + 1] * blocks[:, k:k + 1, :]
    return square
