"""Block model operators on the truncated oscillator-form space.

The comparison operator couples a rank-one (possibly deformed) projector
block on the even-form sector with the chiral halves of the coupled
raising/lowering operator and the oscillator Hamiltonian.  It is never
assembled here, only applied through label-block stacks; the tests assemble
it as a sparse 2x2 block operator and check that against the graded
combination ``R P + (Id - R)(Id - P)`` of the projector models, in which
each block keeps only the summand of highest declared order.

All model matrices act on the two form-parity sectors stacked even-first.
Right-hand sides for the inverse formulas must be supported on oscillator
degree ``cutoff - 2`` or lower so the formulas never touch the truncation
edge; there the explicit solution is exact and pseudo-inverses recover the
unique preimages orthogonal to the kernels.

The sector data is split by conserved labels, read from the label map of
:mod:`fockindex.spinors`.  ``dirac_plus`` keeps each label
``m_j = k_j + [j in s]`` of a graded state ``(k, s)``, and the
(deformed) rank-one vacuum projector couples only the vacuum with the
deformation target, so once the vacuum's and the target's label blocks are
merged every model operator is block-diagonal, with blocks of at most
``2^(n-1)`` states per sector.  The lowering block ``L`` and its
pseudo-inverse are held as label-block stacks (the dense blocks of one shape
in one array, with their positions), applied by one batched ``np.matmul``
and cached per ``(n, cutoff, target)``; adjoints are applied through
transposed views.  A guarded rhs and its solution vanish on every block
that holds no guarded state, so only the held blocks, those with a guarded
state, are gathered.
Outside the merged block the model is ``L`` and ``L^H`` times factors beside
a diagonal, so a certificate never assembles it: it applies the model
through the stacks of ``L``, builds the merged block from a cached dense
block of ``L`` and the deformed vacuum's amplitudes ``cos(theta)`` and
``sin(theta)``, takes the smallest singular value outside it from the
stacks once per chirality and theta-free configuration, and builds no
sparse matrix and no dense sector-sized one.  The one operator read is
``dirac_plus``, whose entries with even rows and odd columns are the
lowering block; the assembled model and the dense route (``pinv`` and SVD
of whole sectors) are the test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import spinors
from .errors import PairingFloorError
from .fock import GUARD, FockSpaceConfig
from .spinors import (
    EVEN,
    ODD,
    GradedBasisIndex,
    _check_parity,
    _check_target,
    _deformed_amplitudes,
    _label_ids,
    _label_stacks,
    dirac_plus,
    graded_dimension,
    graded_index,
    graded_osc_degrees,
    sector_indices,
    vacuum_index,
)

__all__ = [
    "ModelConfig",
    "certify_invertibility",
    "deformation_block_ranks",
]

_RANK_CUTOFF = 1e-8
_PINV_CUTOFF = 1e-10
_DEFORMATION_RANK_BOUND = 4
_OUTSIDE = "a probe's solve reaches outside the merged vacuum/target block"


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
        if self.beta is None:
            object.__setattr__(self, "beta", float(self.n - 1))
        for name in ("alpha", "beta", "theta", "tol"):
            try:
                finite = math.isfinite(getattr(self, name))
            except OverflowError:
                raise ValueError(f"{name} must be finite, got an integer too large "
                                 "for a float") from None
            if not finite:
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.tol <= 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.target is None:
            excited = (1,) + (0,) * (self.n - 2)
            object.__setattr__(self, "target", GradedBasisIndex(excited, ()))

    @property
    def fock_config(self) -> FockSpaceConfig:
        return FockSpaceConfig(self.n - 1, self.cutoff)

    @property
    def deformed(self) -> bool:
        return self.theta != 0.0


class _SectorData:
    """Theta-independent sector data for one (n, cutoff, target), by label.

    Every graded state carries a merged label block id (``even_ids`` and
    ``odd_ids`` per sector position); ``merged`` is the block holding both
    the vacuum and the deformation target, and ``merged_even`` and
    ``merged_odd`` mark its positions.  ``lower_stacks`` holds the lowering
    block (even rows, odd columns of ``dirac_plus``) and ``lower_pinv`` its
    pseudo-inverse as label-block stacks; ``raise_pinv`` holds the transposed
    views of ``lower_pinv``, the conjugate of the raising block's
    pseudo-inverse.  ``merged_lower`` is the member of ``lower_stacks`` on
    the merged positions, ``merged_stack`` the same block as a one-member
    stack on local rows, and ``merged_pair`` the local rows of the vacuum and
    the target.  ``guard_even`` and ``guard_odd`` mark the guarded
    states, and ``guarded_even`` and ``guarded_odd`` list their positions.
    The deformation-rank probes are a unit column on each guarded state of
    the merged block, whose positions in the stacked sectors (even first)
    are ``units``, and ``draw``, one seeded guarded draw with the merged
    block's rows zeroed, a read-only stacked column.  No entries of
    ``dirac_plus`` are kept.

    The stacks hold the held blocks alone, those with a guarded state:
    ``_label_stacks`` gathers them by the guard masks.  A guarded rhs, its
    solution and its residual vanish on every other block.
    """

    def __init__(self, n: int, cutoff: int, target: GradedBasisIndex):
        config = FockSpaceConfig(n - 1, cutoff)
        # an inadmissible target is refused before anything is built or cached
        _check_target(config, target)
        even_idx, odd_idx = sector_indices(config, EVEN), sector_indices(config, ODD)
        self.dim_even, self.dim_odd = len(even_idx), len(odd_idx)
        osc = graded_osc_degrees(config)
        self.h0_odd = 2.0 * osc[odd_idx] + config.num_vars
        self.guard_even = osc[even_idx] <= cutoff - GUARD
        self.guard_odd = osc[odd_idx] <= cutoff - GUARD
        self.guarded_even = np.flatnonzero(self.guard_even)
        self.guarded_odd = np.flatnonzero(self.guard_odd)
        vac_graded = graded_index(config, vacuum_index(config))
        self.vacuum_pos = int(np.searchsorted(even_idx, vac_graded))
        target = graded_index(config, target)
        self.target_pos = int(np.searchsorted(even_idx, target))
        ids = _label_ids(config)
        ids[ids == ids[target]] = ids[vac_graded]
        self.merged = ids[vac_graded]
        self.even_ids = ids[even_idx]
        self.odd_ids = ids[odd_idx]
        self.merged_even = self.even_ids == self.merged
        self.merged_odd = self.odd_ids == self.merged
        self.lower_stacks = list(_label_stacks(_lowering_entries(config, even_idx, odd_idx),
                                               self.even_ids, self.odd_ids,
                                               self.guard_even, self.guard_odd))
        # the merged block holds the (guarded) vacuum, so a stack holds it
        ((rows, cols, self.merged_lower),) = (
            (rows[k], cols[k], stack[k]) for rows, cols, stack in self.lower_stacks
            for k in np.flatnonzero(self.odd_ids[cols[:, 0]] == self.merged))
        # the same block as a one-member stack on its rows, numbered locally
        self.merged_stack = [(np.arange(len(rows))[None], cols[None], self.merged_lower[None])]
        self.merged_pair = np.searchsorted(rows, [self.vacuum_pos, self.target_pos])
        self.lower_pinv = _block_pinv(self.lower_stacks)
        # dirac_plus is exactly self-adjoint, so the raising block's
        # pseudo-inverse is lower_pinv^H, held as the views lower_pinv^T
        self.raise_pinv = _transposed(self.lower_pinv)
        merged = np.concatenate([self.merged_even, self.merged_odd])
        self.units = np.flatnonzero(np.concatenate([self.guard_even, self.guard_odd]) & merged)
        self.draw = np.concatenate(_guarded_draws(np.random.default_rng(0), self, 1))
        self.draw[merged] = 0.0
        self.draw.flags.writeable = False  # every certificate shares it


def _lowering_entries(config: FockSpaceConfig, even_idx: np.ndarray,
                      odd_idx: np.ndarray) -> tuple:
    """The entries of ``dirac_plus`` with even rows and odd columns, numbered
    by their positions in the sectors ``even_idx`` and ``odd_idx``."""
    rows, cols, values = dirac_plus(config)
    even_pos = np.full(graded_dimension(config), -1)
    odd_pos = even_pos.copy()
    even_pos[even_idx] = np.arange(len(even_idx))
    odd_pos[odd_idx] = np.arange(len(odd_idx))
    rows, cols = even_pos[rows], odd_pos[cols]
    keep = (rows >= 0) & (cols >= 0)
    return rows[keep], cols[keep], values[keep]


@lru_cache(maxsize=8)
def _sector_data(n: int, cutoff: int, target: GradedBasisIndex) -> _SectorData:
    return _SectorData(n, cutoff, target)


def _sectors(cfg: ModelConfig) -> _SectorData:
    return _sector_data(cfg.n, cfg.cutoff, cfg.target)


def _block_pinv(stacks) -> list:
    """The pseudo-inverse of a matrix held as label-block stacks, as stacks.

    The cutoff is relative to each block's largest singular value.
    """
    return [(cols, rows, np.linalg.pinv(stack, rcond=_PINV_CUTOFF))
            for rows, cols, stack in stacks if stack.size]


def _transposed(stacks) -> list:
    """Label-block stacks of the transposed matrix, as views."""
    return [(cols, rows, stack.transpose(0, 2, 1)) for rows, cols, stack in stacks]


def _block_product(stacks, x: np.ndarray, size: int, *, adjoint: bool = False) -> np.ndarray:
    """The product of a ``size``-row matrix held as label-block stacks with
    the columns of ``x``; rows outside every block are zero.  With
    ``adjoint``, ``stacks`` hold the transpose of a matrix ``A`` and the
    product is by its adjoint, ``A^H x = conj(A^T conj(x))``.

    Each column's entries are gathered into a contiguous slab of their own,
    so its product is a batch of its own ``(r, c) @ (c, 1)`` matmuls and
    does not depend on the stack it comes in.
    """
    columns = np.conjugate(x.T, order="C") if adjoint else np.ascontiguousarray(x.T)
    out = np.zeros((x.shape[1], size), dtype=complex)
    for rows, cols, stack in stacks:
        out[:, rows] = np.matmul(stack, np.take(columns, cols, axis=1)[..., None])[..., 0]
    if adjoint:
        np.conjugate(out, out=out)
    return out.T


def _factors(chirality: str, cfg: ModelConfig) -> tuple:
    """The factors ``lower = sign * alpha`` and ``raising = -sign * alpha`` of
    the model's blocks ``lower * (Id - 2 S) L`` and ``raising * L^H``, and its
    heavy diagonal ``alpha**2 * (h0 + sign * beta)``; sign is -1 for ``even``.
    """
    sign = -1.0 if chirality == EVEN else 1.0
    heavy = cfg.alpha**2 * (_sectors(cfg).h0_odd + sign * cfg.beta)
    return sign * cfg.alpha, -sign * cfg.alpha, heavy


def _solve_columns(chirality: str, cfg: ModelConfig, a: np.ndarray, b: np.ndarray):
    """The explicit solution formulas, applied to stacked guarded rhs columns.

    Only the held label blocks are solved, the only ones the sector data
    keeps: a column with support above the guard would be solved wrongly, so
    callers pass guarded columns only.
    Every step acts on each column alone, so a column's solution does not
    depend on the stack it comes in.
    """
    sec = _sectors(cfg)
    cos, sin = _deformed_amplitudes(cfg.theta)
    lower, raising, heavy = _factors(chirality, cfg)
    vacuum, target = sec.vacuum_pos, sec.target_pos

    # strip the vacuum component of a, re-aimed along the deformed vacuum,
    # so what remains lies in the range of the lowering block
    w = a.copy()
    w[vacuum] = 0.0
    w[target] -= (sin / cos) * a[vacuum]
    v = _block_product(sec.lower_pinv, w, sec.dim_odd) / lower
    rest = heavy[:, None] * v
    np.subtract(b, rest, out=rest)
    u = _block_product(sec.raise_pinv, rest, sec.dim_even, adjoint=True) / raising

    # the raising block's kernel is the vacuum line; its coefficient pairs the
    # remainder with the deformed vacuum, whatever the target's form degree.
    # Both lie in the merged block, so only its rows of L v are formed
    lowered = _block_product(sec.merged_stack, v, len(sec.merged_lower))[sec.merged_pair]
    pair = [vacuum, target]
    remainder = a[pair] + lower * lowered - u[pair]
    u[vacuum] += (cos * remainder[0] + sin * remainder[1]) / cos
    return u, v


def _guarded_draws(rng, sec: _SectorData, count: int) -> tuple:
    """``count`` seeded unit rhs pairs on the guarded degrees, as column stacks.

    Only the guarded entries are drawn; every other entry is zero.  One
    ``standard_normal`` call draws the numbers of ``count`` single draws in
    their order: each draw takes the real and imaginary parts of ``a`` on its
    guarded positions, then those of ``b``.  Each draw is normalised by
    numpy's own pairwise sum of its squares, as ``_squared_norms`` sums.
    """
    even, odd = sec.guarded_even, sec.guarded_odd
    draws = rng.standard_normal((count, 2 * (len(even) + len(odd))))
    draws /= np.sqrt(np.square(draws).sum(axis=1))[:, None]
    real_a, imag_a, real_b, imag_b = np.split(
        draws, np.cumsum([len(even), len(even), len(odd)]), axis=1)
    a = np.zeros((count, sec.dim_even), dtype=complex)
    b = np.zeros((count, sec.dim_odd), dtype=complex)
    a.real[:, even], a.imag[:, even] = real_a, imag_a
    b.real[:, odd], b.imag[:, odd] = real_b, imag_b
    return a.T, b.T


def _squared_norms(rows: np.ndarray) -> np.ndarray:
    """The squared norm of each row of a C-contiguous complex array.

    numpy's own pairwise sum of each row, which does not depend on the other
    rows or on the BLAS thread count, as a threaded ``np.vdot`` does.
    """
    return (rows.real**2 + rows.imag**2).sum(axis=1)


def _block_rank(matrix: np.ndarray) -> int:
    if matrix.size == 0 or np.abs(matrix).max() == 0.0:
        return 0
    svals = np.linalg.svd(matrix, compute_uv=False)
    return int(np.sum(svals > _RANK_CUTOFF * svals[0]))


def _probe_stacks(sec: _SectorData):
    """The deformation-rank probes, a unit column on each of ``sec.units`` and
    then ``sec.draw``, built one stack of at most ``spinors._STACK_ENTRIES``
    sector entries at a time: ``(columns, (a, b))`` pairs."""
    for part in spinors._chunks(len(sec.units) + 1, sec.dim_even + sec.dim_odd):
        probes = np.zeros((sec.dim_even + sec.dim_odd, part.stop - part.start), dtype=complex)
        probes[sec.units[part], np.arange(len(sec.units[part]))] = 1.0
        if part.stop > len(sec.units):
            probes[:, -1:] = sec.draw
        yield part, np.split(probes, [sec.dim_even])


def _probe_solves(chirality: str, cfg: ModelConfig) -> tuple:
    """The merged rows of the probes' solves, as ``(u, v)``, and the draw's
    solve with its merged rows zeroed, as a stacked column.  A unit probe
    lies in the merged block, so its solve must vanish outside it."""
    sec = _sectors(cfg)
    merged = []
    for part, (a, b) in _probe_stacks(sec):
        u, v = _solve_columns(chirality, cfg, a, b)
        merged.append((u[sec.merged_even], v[sec.merged_odd]))
        u[sec.merged_even] = v[sec.merged_odd] = 0.0
        unit = slice(len(sec.units) - part.start)  # the stack's columns but the draw
        assert not (u[:, unit].any() or v[:, unit].any()), _OUTSIDE
    draw = np.concatenate([u[:, -1], v[:, -1]])
    return [np.concatenate(rows, axis=1) for rows in zip(*merged)], draw


def _apply_model(chirality: str, cfg: ModelConfig, u: np.ndarray, v: np.ndarray):
    """The model applied to the stacked columns ``(u, v)`` from the sector data:
    ``S u + lower (Id - 2 S) L v`` and ``raising L^H u + heavy v``, where ``S``
    projects on the deformed vacuum ``cos * vacuum + sin * target``.  Only the
    held label blocks are applied, so columns must vanish on every other
    block, as a guarded rhs and its solution do."""
    sec = _sectors(cfg)
    cos, sin = _deformed_amplitudes(cfg.theta)
    lower, raising, heavy = _factors(chirality, cfg)
    vacuum, target = sec.vacuum_pos, sec.target_pos
    top = lower * _block_product(sec.lower_stacks, v, sec.dim_even)
    # S u + (Id - 2 S) x = x + S (u - 2 x) differs from x on two rows only
    pairing = (cos * (u[vacuum] - 2.0 * top[vacuum])
               + sin * (u[target] - 2.0 * top[target]))
    top[vacuum] += cos * pairing
    top[target] += sin * pairing
    adjoint = _block_product(_transposed(sec.lower_stacks), u, sec.dim_odd, adjoint=True)
    return top, raising * adjoint + heavy[:, None] * v


def _model_blocks(factors: tuple, lower_blocks: np.ndarray, cols: np.ndarray):
    """The model's label blocks ``[[0, lower L], [raising L^H, diag(heavy)]]``
    on their even, then odd, positions, for a stack of lowering blocks ``L``
    on the odd positions ``cols``; outside the merged block they are the model's.
    """
    lower, raising, heavy = factors
    count, r, c = lower_blocks.shape
    block = np.zeros((count, r + c, r + c), dtype=complex)
    block[:, :r, r:] = lower * lower_blocks
    block[:, r:, :r] = raising * lower_blocks.conj().transpose(0, 2, 1)
    block[:, r + np.arange(c), r + np.arange(c)] = heavy[cols]
    return block


def _merged_block(chirality: str, cfg: ModelConfig) -> tuple:
    """The model positions of the merged vacuum/target block, and the model's
    dense block on them, built from ``merged_lower`` and the deformed vacuum's
    two amplitudes."""
    sec = _sectors(cfg)
    amplitudes = _deformed_amplitudes(cfg.theta)
    even, odd = np.flatnonzero(sec.merged_even), np.flatnonzero(sec.merged_odd)
    block = _model_blocks(_factors(chirality, cfg), sec.merged_lower[None], odd[None])[0]
    pair = sec.merged_pair
    szego = np.outer(amplitudes, amplitudes)
    # the pair's rows of Id - 2 S, summed vacuum first (it is the first even
    # state), as scipy's product (Id - 2 S) @ (lower L) in the tests'
    # assembled model sums them
    reflect, top = np.eye(2) - 2.0 * szego, block[pair, len(even):]
    block[pair, len(even):] = reflect[:, :1] * top[0] + reflect[:, 1:] * top[1]
    block[np.ix_(pair, pair)] = szego
    return np.concatenate([even, sec.dim_even + odd]), block


def _outside_floor(chirality: str, cfg: ModelConfig) -> float:
    """The smallest singular value of the model's guarded columns outside the
    merged block, read from the lowering stacks; the angle does not enter.

    The members of a lowering stack that share their guarded columns take
    one SVD per chunk of at most ``spinors._STACK_ENTRIES`` block entries.
    """
    sec, factors = _sectors(cfg), _factors(chirality, cfg)
    missed = np.concatenate([sec.guard_even & ~sec.merged_even, sec.guard_odd & ~sec.merged_odd])
    smallest = math.inf
    for rows, cols, stack in sec.lower_stacks:
        members = np.flatnonzero(sec.odd_ids[cols[:, 0]] != sec.merged)
        missed[rows[members]] = missed[sec.dim_even + cols[members]] = False
        guard = np.concatenate([sec.guard_even[rows], sec.guard_odd[cols]], axis=1)
        members = members[np.lexsort(guard[members].T)]
        runs = np.flatnonzero(np.diff(guard[members], axis=0).any(axis=1)) + 1
        for run in np.split(members, runs):
            # the run's guarded columns; an empty run (no members) takes no chunk
            picked = np.flatnonzero(guard[run[:1]].any(axis=0))
            for part in spinors._chunks(len(run), sum(stack.shape[1:]) ** 2):
                block = _model_blocks(factors, stack[run[part]], cols[run[part]])[:, :, picked]
                smallest = min(smallest, float(np.linalg.svd(block, compute_uv=False).min()))
    assert not missed.any(), "a guarded state lies outside every lowering block"
    return smallest


class _ThetaFree:
    """What a certificate reads that the deformation angle does not change.

    ``merged`` and ``draw`` are the zero-angle ``_probe_solves``, read-only,
    and ``floor`` the smallest singular value of the model's guarded columns
    outside the merged block.
    """

    def __init__(self, chirality: str, plain: ModelConfig):
        self.merged, self.draw = _probe_solves(chirality, plain)
        for part in (*self.merged, self.draw):
            part.flags.writeable = False  # every caller shares them
        self.floor = _outside_floor(chirality, plain)


@lru_cache(maxsize=16)
def _theta_free_data(chirality: str, plain: ModelConfig) -> _ThetaFree:
    return _ThetaFree(chirality, plain)


def _theta_free(chirality: str, cfg: ModelConfig) -> _ThetaFree:
    # neither the zero-angle solve nor the floor reads the angle or tol
    return _theta_free_data(chirality, replace(cfg, theta=0.0, tol=ModelConfig.tol))


def deformation_block_ranks(chirality: str, cfg: ModelConfig) -> list:
    """Numerical ranks of the deformed-minus-undeformed inverse blocks.

    The deformation perturbs the inverse by a handful of rank-one couplings
    between the two vacua, so every block has small finite rank and the
    (2,2) block is untouched (exactly zero difference).  The difference
    lives on the merged vacuum/target block, so the inverse is only formed
    on that block's guarded columns, whose solves must vanish outside it;
    one seeded probe over all the other blocks must solve exactly as at
    zero angle.  Per chirality and theta-free configuration, the merged
    rows of the zero-angle solves and the probe's zero-angle solve are
    cached.  The probes are solved in stacks of at most
    ``spinors._STACK_ENTRIES`` sector entries.
    """
    _check_parity(chirality, "chirality")
    sec = _sectors(cfg)
    held = _theta_free(chirality, cfg)
    (du, dv), draw = _probe_solves(chirality, cfg)
    du, dv = du - held.merged[0], dv - held.merged[1]
    assert not (du[:, -1].any() or dv[:, -1].any() or (draw - held.draw).any()), _OUTSIDE
    num_even = np.count_nonzero(sec.units < sec.dim_even)
    return [
        [_block_rank(du[:, :num_even]), _block_rank(du[:, num_even:-1])],
        [_block_rank(dv[:, :num_even]), _block_rank(dv[:, num_even:-1])],
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
            ranks = deformation_block_ranks(chirality, cfg)
            # injectivity bound: guarded columns, all rows.  (Chopping the rows
            # as well can be exactly singular for n >= 3 because the image of a
            # guarded vector reaches one oscillator degree past the guard.)
            merged, block = _merged_block(chirality, cfg)
            guard = np.concatenate([sec.guard_even, sec.guard_odd])
            smallest = min(_theta_free(chirality, cfg).floor, float(
                np.linalg.svd(block[:, guard[merged]], compute_uv=False).min()))
            rng = np.random.default_rng(seed)
            worst = 0.0
            for part in spinors._chunks(num_rhs, sec.dim_even + sec.dim_odd):
                # the draws are guarded and sized by construction
                a, b = _guarded_draws(rng, sec, part.stop - part.start)
                ta, tb = _apply_model(chirality, cfg, *_solve_columns(chirality, cfg, a, b))
                # one contiguous row per column, so its sum does not depend on the stack
                err = np.sqrt(_squared_norms(np.ascontiguousarray((ta - a).T))
                              + _squared_norms(np.ascontiguousarray((tb - b).T)))
                # the SVD runs in LAPACK, out of np.errstate's reach, and
                # max() drops a NaN
                if not (np.isfinite(err).all() and math.isfinite(smallest)):
                    raise FloatingPointError
                worst = max(worst, float(err.max()))
    except PairingFloorError as exc:
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
