"""Block model operators on the truncated oscillator-form space.

The comparison operator couples a rank-one (possibly deformed) projector
block on the even-form sector with the chiral halves of the coupled
raising/lowering operator and the oscillator Hamiltonian.  It is assembled
directly; the tests check it against the graded combination
``R P + (Id - R)(Id - P)`` of the projector models, in which each block keeps
only the summand of highest declared order.

All model matrices act on the two form-parity sectors stacked even-first.
Right-hand sides for the inverse formulas must be supported on oscillator
degree ``cutoff - 2`` or lower so the formulas never touch the truncation
edge; there the explicit solution is exact and pseudo-inverses recover the
unique preimages orthogonal to the kernels.

The sector data is split by conserved labels.  ``dirac_plus`` keeps each
label ``m_j = k_j + [j in s]`` of a graded state ``(k, s)``, and the
(deformed) rank-one vacuum projector couples only the vacuum with the
deformation target, so once the vacuum's and the target's label blocks are
merged every model operator is block-diagonal, with blocks of at most
``2^(n-1)`` states per sector.  The lowering block and the pseudo-inverses
of both chiral halves are held as label-block stacks (the dense blocks of
one shape in one array, with their positions), applied by one batched
``np.matmul``.  They depend only on ``(n, cutoff, target)`` and are cached
apart from the two-entry deformed vacuum.  The angle touches only the
merged vacuum/target block, so what a certificate reads outside it is
cached once per chirality and theta-free configuration.  A certificate
then reads the merged block of its model, takes one SVD of it, and solves
and applies its seeded right-hand sides as stacks of columns; no dense
sector-sized matrix is formed.  The dense route (``pinv`` and SVD of whole
sectors) survives only as the test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import sparse
from .errors import GuardViolationError, PairingFloorError
from .fock import GUARD, FockSpaceConfig, multi_indices
from .spinors import (
    EVEN,
    ODD,
    GradedBasisIndex,
    _check_parity,
    _check_target,
    deformed_szego,
    dirac_plus,
    form_subsets,
    graded_index,
    graded_osc_degrees,
    sector_indices,
    vacuum_index,
)

__all__ = [
    "ModelConfig",
    "BlockOperator",
    "build_comparison_model",
    "invert_comparison_model",
    "certify_invertibility",
    "deformation_block_ranks",
    "random_guarded_rhs",
]

_RANK_CUTOFF = 1e-8
_PINV_CUTOFF = 1e-10
_DEFORMATION_RANK_BOUND = 4
# A stack of seeded right-hand sides holds at most this many sector entries,
# so the memory of a certificate does not grow with num_rhs.
_STACK_ENTRIES = 2**18
# The model's label blocks outside the merged one are cached if they hold at
# most this many entries (64 MB); at the largest admitted sizes each
# certificate takes them anew, so a run holds one chirality's blocks at a time.
_CACHED_ENTRIES = 2**22


@dataclass(frozen=True)
class ModelConfig:
    """Parameters of the block model on ``n - 1`` oscillator variables."""

    n: int
    alpha: float = 1.0
    beta: float | None = None
    cutoff: int = 12
    theta: float = 0.0
    target: GradedBasisIndex | None = None
    tol: float = 1e-9

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need n >= 2, got n = {self.n}")
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.tol <= 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.beta is None:
            object.__setattr__(self, "beta", float(self.n - 1))
        if self.target is None:
            excited = (1,) + (0,) * (self.n - 2)
            object.__setattr__(self, "target", GradedBasisIndex(excited, ()))

    @property
    def fock_config(self) -> FockSpaceConfig:
        return FockSpaceConfig(self.n - 1, self.cutoff)

    @property
    def deformed(self) -> bool:
        return self.theta != 0.0


@dataclass(frozen=True)
class BlockOperator:
    """2x2 block matrix over the form-parity sectors.

    ``blocks[i][j]`` is a sparse matrix or ``None`` (an exactly-zero block).
    The first slot is always the even-form sector.
    """

    blocks: tuple
    row_dims: tuple
    col_dims: tuple

    def block(self, i: int, j: int) -> sparse.CSR:
        entry = self.blocks[i][j]
        if entry is None:
            return sparse.zeros((self.row_dims[i], self.col_dims[j]))
        return entry

    def entries(self):
        """Rows, columns and values of each block's entries in the assembled matrix."""
        for i in range(2):
            for j in range(2):
                block = self.block(i, j)
                yield (block.rows() + (0, self.row_dims[0])[i],
                       block.indices + (0, self.col_dims[0])[j], block.data)

    def matrix(self) -> sparse.CSR:
        """The assembled two-sector matrix."""
        rows, cols, values = (np.concatenate(part) for part in zip(*self.entries()))
        return sparse.from_triples(rows, cols, values,
                                   (sum(self.row_dims), sum(self.col_dims)))


class _SectorData:
    """Theta-independent sector data for one (n, cutoff, target), by label.

    Every graded state carries a merged label block id (``even_ids`` and
    ``odd_ids`` per sector position); ``merged`` is the block holding both
    the vacuum and the deformation target, and ``merged_even`` and
    ``merged_odd`` mark its positions.  ``lower_stacks`` holds the lowering
    block, and ``lower_pinv`` and ``raise_pinv`` the pseudo-inverses of the
    chiral halves, as label-block stacks.  ``rank_probes`` are the
    deformation-rank probes, read-only.
    """

    def __init__(self, n: int, cutoff: int, target: GradedBasisIndex):
        config = FockSpaceConfig(n - 1, cutoff)
        # an inadmissible target is refused before anything is built or cached
        _check_target(config, target)
        self.even_idx = sector_indices(config, EVEN)
        self.odd_idx = sector_indices(config, ODD)
        self.dim_even = len(self.even_idx)
        self.dim_odd = len(self.odd_idx)
        dirac = dirac_plus(config)
        self.raise_block = dirac[self.odd_idx, :][:, self.even_idx]
        self.lower_block = dirac[self.even_idx, :][:, self.odd_idx]
        nv = config.num_vars
        osc = graded_osc_degrees(config)
        self.h0_even = 2.0 * osc[self.even_idx] + nv
        self.h0_odd = 2.0 * osc[self.odd_idx] + nv
        self.guard_even = osc[self.even_idx] <= cutoff - GUARD
        self.guard_odd = osc[self.odd_idx] <= cutoff - GUARD
        vac_graded = graded_index(config, vacuum_index(config))
        self.vacuum_pos = int(np.searchsorted(self.even_idx, vac_graded))
        ids = _label_ids(config)
        ids[ids == ids[graded_index(config, target)]] = ids[vac_graded]
        self.merged = ids[vac_graded]
        self.even_ids = ids[self.even_idx]
        self.odd_ids = ids[self.odd_idx]
        self.merged_even = self.even_ids == self.merged
        self.merged_odd = self.odd_ids == self.merged
        lower = self.lower_block
        self.lower_stacks = list(_label_stacks((lower.rows(), lower.indices, lower.data),
                                               self.even_ids, self.odd_ids))
        self.lower_pinv = _block_pinv(self.lower_stacks)
        # dirac_plus is exactly self-adjoint: raise_block = lower_block^H
        self.raise_pinv = [(cols, rows, np.ascontiguousarray(stack.conj().transpose(0, 2, 1)))
                           for rows, cols, stack in self.lower_pinv]
        self.rank_probes = _rank_probes(self)

    def eye(self, parity: str) -> sparse.CSR:
        return sparse.diagonal(np.ones(self.dim_even if parity == EVEN else self.dim_odd))


class _DeformedVacuum:
    """The theta-dependent data: the deformed vacuum ``cos * vacuum + sin * target``."""

    def __init__(self, cfg: ModelConfig):
        config = cfg.fock_config
        sec = _sectors(cfg)
        # deformed_szego validates the target and angle
        szego = deformed_szego(config, cfg.theta, cfg.target)
        self.szego_even = szego[sec.even_idx, :][:, sec.even_idx]
        target = graded_index(config, cfg.target)
        self.target_pos = int(np.searchsorted(sec.even_idx, target))
        self.cos, self.sin = math.cos(cfg.theta), math.sin(cfg.theta)


@lru_cache(maxsize=8)
def _sector_data(n: int, cutoff: int, target: GradedBasisIndex) -> _SectorData:
    return _SectorData(n, cutoff, target)


def _sectors(cfg: ModelConfig) -> _SectorData:
    return _sector_data(cfg.n, cfg.cutoff, cfg.target)


@lru_cache(maxsize=16)
def _vacuum(cfg: ModelConfig) -> _DeformedVacuum:
    return _DeformedVacuum(cfg)


def _label_ids(config: FockSpaceConfig) -> np.ndarray:
    """Label block id of every graded state, in enumeration order.

    The label of ``(k, s)`` is ``m_j = k_j + [j in s]``; ``dirac_plus``
    conserves it.
    """
    nv = config.num_vars
    osc = np.array(multi_indices(config), dtype=int).reshape(-1, nv)
    member = np.array(
        [[j in s for j in range(1, nv + 1)] for s in form_subsets(nv)], dtype=int
    )
    labels = (osc[:, None, :] + member[None, :, :]).reshape(-1, nv)
    return np.unique(labels, axis=0, return_inverse=True)[1].reshape(-1)


def _group(ids: np.ndarray, num: int):
    """Positions sorted by block, block starts and sizes, and local offsets."""
    order = np.argsort(ids, kind="stable")
    count = np.bincount(ids, minlength=num)
    start = np.cumsum(count) - count
    local = np.empty(len(ids), dtype=int)
    local[order] = np.arange(len(ids)) - start[ids[order]]
    return order, start, count, local


def _label_stacks(entries, row_ids: np.ndarray, col_ids: np.ndarray):
    """The label blocks of a block-diagonal sparse matrix, stacked by shape.

    ``entries`` holds the rows, columns and values of the matrix's entries,
    and ``row_ids`` and ``col_ids`` give the block of every row and column.
    Yields ``(rows, cols, stack)`` for each block shape with columns:
    ``stack[g]`` is the dense block at rows ``rows[g]`` and columns
    ``cols[g]`` of the matrix.
    """
    entry_rows, entry_cols, values = entries
    blocks = row_ids[entry_rows]
    assert np.array_equal(blocks, col_ids[entry_cols]), "entry crosses a label block"
    num = int(max(row_ids.max(initial=-1), col_ids.max(initial=-1))) + 1
    row_order, row_start, row_count, row_local = _group(row_ids, num)
    col_order, col_start, col_count, col_local = _group(col_ids, num)
    shape_key = row_count * (col_count.max() + 1) + col_count
    keys = np.sort(shape_key[col_count > 0])  # np.unique(keys) would load numpy.ma
    for key in keys[np.diff(keys, prepend=-1) != 0]:
        members = np.flatnonzero(shape_key == key)
        r, c = int(row_count[members[0]]), int(col_count[members[0]])
        slot = np.full(num, -1)
        slot[members] = np.arange(len(members))
        pick = slot[blocks] >= 0
        stack = np.zeros((len(members), r, c), dtype=values.dtype)
        stack[
            slot[blocks[pick]], row_local[entry_rows[pick]], col_local[entry_cols[pick]]
        ] = values[pick]
        rows = row_order[row_start[members, None] + np.arange(r)]
        cols = col_order[col_start[members, None] + np.arange(c)]
        yield rows, cols, stack


def _block_pinv(stacks) -> list:
    """The pseudo-inverse of a matrix held as label-block stacks, as stacks.

    The cutoff is relative to each block's largest singular value.
    """
    return [(cols, rows, np.linalg.pinv(stack, rcond=_PINV_CUTOFF))
            for rows, cols, stack in stacks if stack.size]


def _block_product(stacks, x: np.ndarray, size: int) -> np.ndarray:
    """The product of a ``size``-row matrix held as label-block stacks with
    the columns of ``x``; rows outside every block are zero.

    Each column's entries are gathered into a contiguous slab of their own,
    so its product is a batch of its own ``(r, c) @ (c, 1)`` matmuls and
    does not depend on the stack it comes in.
    """
    columns = np.ascontiguousarray(x.T)
    out = np.zeros((x.shape[1], size), dtype=complex)
    for rows, cols, stack in stacks:
        out[:, rows] = np.matmul(stack, np.take(columns, cols, axis=1)[..., None])[..., 0]
    return out.T


def build_comparison_model(chirality: str, cfg: ModelConfig) -> BlockOperator:
    """The comparison-operator model, assembled directly.

    Equals the graded combination ``R P + (Id - R)(Id - P)`` of the boundary
    and one-sided projector models, blockwise and exactly.
    """
    _check_parity(chirality, "chirality")
    sec, vac = _sectors(cfg), _vacuum(cfg)
    alpha, beta = cfg.alpha, cfg.beta
    mixed = (sec.eye(EVEN) - 2.0 * vac.szego_even) @ (alpha * sec.lower_block)
    if chirality == EVEN:
        top_right = -1.0 * mixed
        bottom_left = alpha * sec.raise_block
        heavy = alpha**2 * sparse.diagonal(sec.h0_odd - beta)
    else:
        top_right = mixed
        bottom_left = -alpha * sec.raise_block
        heavy = alpha**2 * sparse.diagonal(sec.h0_odd + beta)
    blocks = ((vac.szego_even, top_right), (bottom_left, heavy))
    dims = (sec.dim_even, sec.dim_odd)
    return BlockOperator(blocks, dims, dims)


def _check_guarded(sec: _SectorData, a: np.ndarray, b: np.ndarray):
    if a.shape[0] != sec.dim_even or b.shape[0] != sec.dim_odd:
        raise ValueError(
            f"rhs sectors must have lengths {sec.dim_even} and {sec.dim_odd}, "
            f"got {a.shape[0]} and {b.shape[0]}"
        )
    loose = 0.0
    if (~sec.guard_even).any():
        loose = max(loose, np.abs(a[~sec.guard_even]).max())
    if (~sec.guard_odd).any():
        loose = max(loose, np.abs(b[~sec.guard_odd]).max())
    if loose != 0.0:
        raise GuardViolationError(
            "rhs has support above oscillator degree cutoff-2; the inverse "
            "formulas are only exact away from the truncation edge"
        )


def _solve_columns(chirality: str, cfg: ModelConfig, a: np.ndarray, b: np.ndarray):
    """The explicit solution formulas, applied to stacked rhs columns.

    Every step acts on each column alone, so a column's solution does not
    depend on the stack it comes in.
    """
    # building the vacuum refuses a pairing below the floor
    sec, vac = _sectors(cfg), _vacuum(cfg)
    alpha, beta = cfg.alpha, cfg.beta
    sign = -1.0 if chirality == EVEN else 1.0
    vacuum, target = sec.vacuum_pos, vac.target_pos

    # strip the vacuum component of a, re-aimed along the deformed vacuum,
    # so what remains lies in the range of the lowering block
    w = a.copy()
    w[vacuum] = 0.0
    w[target] -= (vac.sin / vac.cos) * a[vacuum]
    v = sign * _block_product(sec.lower_pinv, w, sec.dim_odd) / alpha

    heavy = alpha**2 * (sec.h0_odd + sign * beta)
    u = -sign * _block_product(sec.raise_pinv, b - heavy[:, None] * v, sec.dim_even) / alpha

    # the raising block's kernel is the vacuum line; its coefficient pairs the
    # remainder with the deformed vacuum, whatever the target's form degree
    lowered = _block_product(sec.lower_stacks, v, sec.dim_even)
    remainder = a + sign * alpha * lowered - u
    u[vacuum] += (vac.cos * remainder[vacuum] + vac.sin * remainder[target]) / vac.cos
    return u, v


def invert_comparison_model(chirality: str, cfg: ModelConfig, rhs) -> tuple:
    """Solve the comparison model by the explicit solution formulas.

    ``rhs`` is the pair ``(a, b)`` of even/odd sector vectors, supported on
    oscillator degree ``cutoff - 2`` or lower.  Returns ``(u, v)``.  The
    ``v``-component is read off from ``a`` alone, so the (2,2) block of the
    inverse vanishes identically.
    """
    _check_parity(chirality, "chirality")
    sec = _sectors(cfg)
    a = np.asarray(rhs[0], dtype=complex)
    b = np.asarray(rhs[1], dtype=complex)
    if a.ndim != 1 or b.ndim != 1:
        raise ValueError("rhs must be a pair of one-dimensional sector vectors")
    _check_guarded(sec, a, b)
    u, v = _solve_columns(chirality, cfg, a[:, None], b[:, None])
    return u[:, 0], v[:, 0]


def _guarded_draws(rng, sec: _SectorData, count: int) -> tuple:
    """``count`` seeded unit rhs pairs on the guarded degrees, as column stacks.

    One ``normal`` call draws the numbers of ``count`` single draws in their
    order: each draw takes the real and imaginary parts of ``a``, then of ``b``.
    """
    even, odd = sec.dim_even, sec.dim_odd
    draws = rng.normal(size=(count, 2 * (even + odd)))
    real_a, imag_a, real_b, imag_b = np.split(draws, np.cumsum([even, even, odd]), axis=1)
    a = real_a + 1j * imag_a
    b = real_b + 1j * imag_b
    a[:, ~sec.guard_even] = 0.0
    b[:, ~sec.guard_odd] = 0.0
    for k in range(count):
        scale = math.sqrt(np.vdot(a[k], a[k]).real + np.vdot(b[k], b[k]).real)
        a[k] /= scale
        b[k] /= scale
    return a.T, b.T


def random_guarded_rhs(rng, cfg: ModelConfig) -> tuple:
    """Seeded complex unit rhs pair supported on the guarded oscillator degrees."""
    a, b = _guarded_draws(rng, _sectors(cfg), 1)
    return a[:, 0], b[:, 0]


def _block_rank(matrix: np.ndarray) -> int:
    if matrix.size == 0 or np.abs(matrix).max() == 0.0:
        return 0
    svals = np.linalg.svd(matrix, compute_uv=False)
    return int(np.sum(svals > _RANK_CUTOFF * svals[0]))


def _rank_probes(sec: _SectorData) -> tuple:
    """The deformation-rank probes: a unit column on each guarded state of the
    merged block, then one seeded draw with the merged block's rows zeroed."""
    cols_even = np.flatnonzero(sec.guard_even & sec.merged_even)
    cols_odd = np.flatnonzero(sec.guard_odd & sec.merged_odd)
    num_even, num_cols = len(cols_even), len(cols_even) + len(cols_odd)
    a = np.zeros((sec.dim_even, num_cols + 1), dtype=complex)
    b = np.zeros((sec.dim_odd, num_cols + 1), dtype=complex)
    a[cols_even, np.arange(num_even)] = 1.0
    b[cols_odd, np.arange(num_even, num_cols)] = 1.0
    a[:, -1:], b[:, -1:] = _guarded_draws(np.random.default_rng(0), sec, 1)
    a[sec.merged_even, -1] = 0.0
    b[sec.merged_odd, -1] = 0.0
    a.flags.writeable = b.flags.writeable = False  # every certificate shares them
    return a, b


def _model_stacks(model: BlockOperator, sec: _SectorData, rows: np.ndarray,
                  columns: np.ndarray):
    """The label blocks of the model's ``rows`` by ``columns``, as stacks.

    ``rows`` and ``columns`` mark model positions (even sector, then odd),
    and the stacks give their blocks' rows and columns as model positions.
    """
    ids = np.concatenate([sec.even_ids, sec.odd_ids])
    row_local, col_local = np.cumsum(rows) - 1, np.cumsum(columns) - 1
    entries = []
    for entry_rows, entry_cols, values in model.entries():
        keep = rows[entry_rows] & columns[entry_cols]
        if keep.any():
            entries.append((row_local[entry_rows[keep]], col_local[entry_cols[keep]],
                            values[keep]))
    entries = [np.concatenate(part) for part in zip(*entries)]
    row_at, col_at = np.flatnonzero(rows), np.flatnonzero(columns)
    for block_rows, block_cols, stack in _label_stacks(entries, ids[rows], ids[columns]):
        yield row_at[block_rows], col_at[block_cols], stack


def _merged_block(model: BlockOperator, sec: _SectorData) -> tuple:
    """The model positions of the merged vacuum/target block, and the model's
    dense block on them, read from the merged rows of each sector block."""
    picks = np.flatnonzero(sec.merged_even), np.flatnonzero(sec.merged_odd)
    merged = np.concatenate([picks[0], sec.dim_even + picks[1]])
    local = np.full(sec.dim_even + sec.dim_odd, -1)
    local[merged] = np.arange(len(merged))
    block = np.zeros((len(merged), len(merged)), dtype=complex)
    for i, j in np.ndindex(2, 2):
        part = model.block(i, j)[picks[i], :]
        cols = local[(0, sec.dim_even)[j] + part.indices]
        assert (cols >= 0).all(), "entry crosses a label block"
        block[local[(0, sec.dim_even)[i] + picks[i][part.rows()]], cols] = part.data
    return merged, block


class _ThetaFree:
    """What a certificate reads that the deformation angle does not change.

    ``plain`` is the zero-angle solve of the deformation-rank probes,
    read-only.  ``outside`` gives the model outside the merged block.
    """

    def __init__(self, chirality: str, plain: ModelConfig):
        self.plain = _solve_columns(chirality, plain, *_sectors(plain).rank_probes)
        for part in self.plain:
            part.flags.writeable = False  # every caller shares the cached arrays
        self._floor = self._stacks = None

    def outside(self, model: BlockOperator, sec: _SectorData) -> tuple:
        """The smallest singular value of the model's guarded columns outside
        the merged block, and the model's label-block stacks there, taken from
        the first model asked about (the stacks only if they hold at most
        ``_CACHED_ENTRIES`` entries).

        Outside the merged rows the rows of ``Id - 2 S`` are exact identity
        rows, so there a model's entries are the same at every angle, bit for
        bit.  The even rows keep only their odd columns: the even-even corner
        is the vacuum projector, which vanishes there.
        """
        if self._stacks is not None:
            return self._floor, self._stacks
        rest = ~np.concatenate([sec.merged_even, sec.merged_odd])
        if self._floor is None:
            guard = np.concatenate([sec.guard_even, sec.guard_odd])
            stacks = _model_stacks(model, sec, np.ones_like(rest), guard & rest)
            self._floor = float(min((np.linalg.svd(stack, compute_uv=False).min()
                                     for _, _, stack in stacks), default=np.inf))
        even = np.arange(len(rest)) < sec.dim_even
        stacks = [*_model_stacks(model, sec, rest & even, rest & ~even),
                  *_model_stacks(model, sec, rest & ~even, rest)]
        if sum(stack.size for _, _, stack in stacks) <= _CACHED_ENTRIES:
            self._stacks = stacks
        return self._floor, stacks


@lru_cache(maxsize=16)
def _theta_free_data(chirality: str, plain: ModelConfig) -> _ThetaFree:
    return _ThetaFree(chirality, plain)


def _theta_free(chirality: str, cfg: ModelConfig) -> _ThetaFree:
    return _theta_free_data(chirality, replace(cfg, theta=0.0))


def deformation_block_ranks(chirality: str, cfg: ModelConfig) -> list:
    """Numerical ranks of the deformed-minus-undeformed inverse blocks.

    The deformation perturbs the inverse by a handful of rank-one couplings
    between the two vacua, so every block has small finite rank and the
    (2,2) block is untouched (exactly zero difference).  The difference
    lives on the merged vacuum/target block, so the inverse is only formed
    on that block's guarded columns; one seeded probe over all the other
    blocks confirms that their difference vanishes exactly.  The zero-angle
    solve is cached per chirality and theta-free configuration.
    """
    _check_parity(chirality, "chirality")
    sec = _sectors(cfg)
    deformed = _solve_columns(chirality, cfg, *sec.rank_probes)
    plain = _theta_free(chirality, cfg).plain
    du, dv = deformed[0] - plain[0], deformed[1] - plain[1]
    assert not (
        du[~sec.merged_even].any() or dv[~sec.merged_odd].any()
        or du[:, -1].any() or dv[:, -1].any()
    ), "the deformation reaches outside the merged vacuum/target block"
    du, dv = du[sec.merged_even, :-1], dv[sec.merged_odd, :-1]
    num_even = np.count_nonzero(sec.guard_even & sec.merged_even)
    return [
        [_block_rank(du[:, :num_even]), _block_rank(du[:, num_even:])],
        [_block_rank(dv[:, :num_even]), _block_rank(dv[:, num_even:])],
    ]


def certify_invertibility(chirality: str, cfg: ModelConfig, *, num_rhs: int = 16,
                          seed: int = 0) -> dict:
    """Numerical certificate that the model operator is invertible.

    Reports ``smallest_singular_value``, the smallest singular value of the
    model restricted to the guarded columns (an injectivity bound);
    ``residual_max``, the largest formula-inverse residual over ``num_rhs``
    seeded right-hand sides; and ``deformation_block_ranks``, the ranks of
    the deformed-minus-undeformed inverse blocks.  ``passed`` judges them
    against ``cfg.tol`` and the rank bound.  Admissibility failures,
    including parameters that drive an intermediate value to overflow or
    NaN, are surfaced as ``error`` instead of raised, in a report holding
    only ``passed`` and ``error``; ``num_rhs`` below one is a
    ``ValueError``, since a certificate over no right-hand sides checks
    nothing.  The right-hand sides are drawn and solved in stacks of
    columns; a column's residual does not depend on its stack.
    """
    _check_parity(chirality, "chirality")
    if num_rhs < 1:
        raise ValueError(f"num_rhs must be at least 1, got {num_rhs}")
    try:
        # an overflow or a NaN anywhere means the parameters are out of range
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            sec = _sectors(cfg)
            # the ranks first, so their solves do not share memory with the model
            ranks = deformation_block_ranks(chirality, cfg)
            model = build_comparison_model(chirality, cfg)
            # injectivity bound: guarded columns, all rows.  (Chopping the rows
            # as well can be exactly singular for n >= 3 because the image of a
            # guarded vector reaches one oscillator degree past the guard.)
            floor, outside = _theta_free(chirality, cfg).outside(model, sec)
            merged, block = _merged_block(model, sec)
            guard = np.concatenate([sec.guard_even, sec.guard_odd])
            smallest = min(floor, float(
                np.linalg.svd(block[:, guard[merged]], compute_uv=False).min()))
            # the residual applies the model's own label blocks
            stacks = outside + [(merged[None], merged[None], block[None])]
            rng = np.random.default_rng(seed)
            worst = 0.0
            size = max(1, _STACK_ENTRIES // (sec.dim_even + sec.dim_odd))
            for start in range(0, num_rhs, size):
                # the draws are guarded and sized by construction
                a, b = _guarded_draws(rng, sec, min(size, num_rhs - start))
                u, v = _solve_columns(chirality, cfg, a, b)
                image = _block_product(stacks, np.concatenate([u, v]), len(guard))
                ta, tb = image[:sec.dim_even], image[sec.dim_even:]
                for k in range(a.shape[1]):
                    da, db = ta[:, k] - a[:, k], tb[:, k] - b[:, k]
                    err = math.sqrt(np.vdot(da, da).real + np.vdot(db, db).real)
                    worst = max(worst, err)
                    # the SVD and np.vdot run in LAPACK and BLAS, out of
                    # np.errstate's reach, and max() drops a NaN
                    if not (math.isfinite(err) and math.isfinite(smallest)):
                        raise FloatingPointError
    except (PairingFloorError, GuardViolationError) as exc:
        return {"passed": False, "error": str(exc)}
    except (FloatingPointError, OverflowError):
        return {
            "passed": False,
            "error": f"alpha = {cfg.alpha!r} and beta = {cfg.beta!r} drive an "
                     "intermediate value to overflow or NaN; use moderate values",
        }
    return {
        "passed": bool(
            smallest > cfg.tol
            and worst <= cfg.tol
            and max(ranks[0][0], ranks[0][1], ranks[1][0]) <= _DEFORMATION_RANK_BOUND
            and ranks[1][1] == 0
        ),
        "error": None,
        "num_rhs": num_rhs,
        "smallest_singular_value": smallest,
        "residual_max": worst,
        "deformation_block_ranks": ranks,
    }
