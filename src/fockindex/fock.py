"""Truncated ladder algebra on a graded multi-index oscillator basis.

The basis consists of all multi-indices in ``num_vars`` variables with total
degree at most ``cutoff``, enumerated in graded lexicographic order.
Operators are hard projections: matrix entries that would leave the
truncated basis are dropped, and algebraic identities are therefore only
asserted on states whose degree stays ``GUARD`` levels below the cutoff.
Every operator here sends each basis state to at most one basis state, so
it is an ``IndexMap``: a target state and a weight per state.  Compose with
``a @ b``, take adjoints with ``a.adjoint()``, and add maps that agree on
their targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "GUARD",
    "FockSpaceConfig",
    "IndexMap",
    "basis_index",
    "degrees",
    "guard_mask",
    "creation",
    "annihilation",
    "harmonic_oscillator",
    "identity",
    "oscillator_identity_residuals",
    "max_abs_on_guard",
]


# Identities are asserted on states of degree <= cutoff - GUARD.
GUARD = 2


@dataclass(frozen=True)
class FockSpaceConfig:
    """Truncation parameters: number of variables and degree cutoff.

    The cutoff must leave room for the guard band and two guarded levels.
    """

    num_vars: int
    cutoff: int

    def __post_init__(self):
        if self.num_vars < 1:
            raise ValueError(f"num_vars must be >= 1, got {self.num_vars}")
        if self.cutoff < GUARD + 2:
            raise ValueError(
                f"cutoff {self.cutoff} too small for the guard band {GUARD}: "
                f"need cutoff >= {GUARD + 2}"
            )

    @property
    def dimension(self) -> int:
        return math.comb(self.cutoff + self.num_vars, self.num_vars)


class IndexMap:
    """An operator that sends each basis state to at most one basis state.

    State ``s`` goes to ``target[s]`` with the finite coefficient
    ``weight[s]``; a state with no image has target -1 and weight zero.  As
    a matrix, column ``s`` holds ``weight[s]`` in row ``target[s]``.  The
    arrays are read-only: operations build new maps.

    ``a @ b`` composes (``b`` first), ``s * a`` scales, and ``a + b`` and
    ``a - b`` add weights state by state, with zero for a state that one
    operand sends nowhere.  A sum whose operands send one state to two
    different states is not an index map: it is a ``ValueError``.  Each
    weight of a composite is the product of the two weights plus 0.0, the
    operations a sparse product summing from zero does.
    """

    __slots__ = ("target", "weight")
    __array_ufunc__ = None  # numpy defers to the operators below

    def __init__(self, target: np.ndarray, weight: np.ndarray):
        if target.shape != weight.shape or target.ndim != 1:
            raise ValueError("an index map holds one target and one weight per state")
        self.target, self.weight = target, weight
        for array in (target, weight):
            array.flags.writeable = False  # maps share their arrays

    def _check_size(self, other: IndexMap):
        if len(self.target) != len(other.target):
            raise ValueError(f"index maps on {len(self.target)} and {len(other.target)} "
                             "states")

    def adjoint(self) -> IndexMap:
        """The conjugate transpose; no two states may share a target."""
        sources = np.flatnonzero(self.target >= 0)
        targets = self.target[sources]
        target = np.full(len(self.target), -1, dtype=self.target.dtype)
        target[targets] = sources
        if not np.array_equal(target[targets], sources):
            raise ValueError("the adjoint of a map that joins two states is not an index map")
        weight = np.zeros_like(self.weight)
        weight[targets] = self.weight[sources].conj()
        return IndexMap(target, weight)

    def __matmul__(self, other: IndexMap) -> IndexMap:
        if not isinstance(other, IndexMap):
            return NotImplemented
        self._check_size(other)
        # a state other sends nowhere reads the last entry of self, times
        # its weight 0.0; + 0.0 turns a -0.0 product to +0.0, as a sum from
        # zero does
        target = np.where(other.target >= 0, self.target[other.target], -1)
        return IndexMap(target, self.weight[other.target] * other.weight + 0.0)

    def __mul__(self, scalar) -> IndexMap:
        if not np.isscalar(scalar):
            return NotImplemented
        return IndexMap(self.target, self.weight * scalar)

    __rmul__ = __mul__

    def __add__(self, other: IndexMap) -> IndexMap:
        return self._combine(other, np.add)

    def __sub__(self, other: IndexMap) -> IndexMap:
        return self._combine(other, np.subtract)

    def _combine(self, other, op) -> IndexMap:
        if not isinstance(other, IndexMap):
            return NotImplemented
        self._check_size(other)
        apart = (self.target != other.target) & (self.target >= 0) & (other.target >= 0)
        if apart.any():
            state = int(np.flatnonzero(apart)[0])
            raise ValueError(f"state {state} goes to {self.target[state]} and to "
                             f"{other.target[state]}: a sum of index maps sends each "
                             "state to one state")
        # the weight of a state with no image is zero
        return IndexMap(np.maximum(self.target, other.target), op(self.weight, other.weight))


@lru_cache(maxsize=None)
def _basis_array(num_vars: int, cutoff: int) -> np.ndarray:
    """All multi-indices with |k| <= cutoff in graded lexicographic order,
    as a read-only ``(dimension, num_vars)`` integer array.

    The rows are built in lexicographic order, one variable at a time: each
    row of degree ``d`` is repeated once for every value ``0..cutoff - d``
    of the next variable.  A stable sort by degree then keeps that order
    within each degree.
    """
    rows = np.arange(cutoff + 1, dtype=np.int64)[:, None]
    degree = rows[:, 0]
    for _ in range(num_vars - 1):
        count = cutoff - degree + 1
        first = np.repeat(np.cumsum(count) - count, count)
        value = np.arange(len(first)) - first
        rows = np.column_stack([np.repeat(rows, count, axis=0), value])
        degree = np.repeat(degree, count) + value
    out = rows[np.argsort(degree, kind="stable")]
    out.setflags(write=False)
    return out


def _radix_codes(digits: np.ndarray, radix: int) -> np.ndarray:
    """The base-``radix`` numbers whose digits, most significant first, are
    the rows of ``digits``; every digit must lie below ``radix``.

    Numeric order of the codes is lexicographic order of the rows.  Codes
    that would overflow int64 are kept as Python integers.
    """
    width = digits.shape[1]
    dtype = np.int64 if radix**width <= np.iinfo(np.int64).max else object
    weights = np.array([radix**p for p in range(width - 1, -1, -1)], dtype=dtype)
    return digits.astype(dtype) @ weights


@lru_cache(maxsize=None)
def _basis_codes(num_vars: int, cutoff: int) -> np.ndarray:
    """Strictly increasing integer codes of the graded-lex basis (read-only).

    The state ``k`` of degree ``d`` gets the base-``cutoff + 1`` number with
    digits ``(d, k_1, ..., k_num_vars)``.  Every digit is at most the cutoff,
    so numeric order is graded-lex order.
    """
    basis = _basis_array(num_vars, cutoff)
    codes = _radix_codes(np.column_stack([basis.sum(axis=1), basis]), cutoff + 1)
    assert np.all(codes[1:] > codes[:-1]), "basis codes must increase"
    codes.setflags(write=False)
    return codes


def basis_index(config: FockSpaceConfig, index: tuple[int, ...]) -> int:
    """Position of a multi-index in the enumeration; rejects invalid indices."""
    key = [int(m) for m in index]
    if len(key) != config.num_vars or any(m < 0 for m in key):
        raise ValueError(f"invalid multi-index {index} for {config.num_vars} variables")
    degree = sum(key)
    if degree > config.cutoff:
        raise ValueError(f"multi-index {index} exceeds cutoff {config.cutoff}")
    # every digit of a state within the cutoff is at most the cutoff
    code = _radix_codes(np.array([[degree] + key]), config.cutoff + 1)[0]
    return int(np.searchsorted(_basis_codes(config.num_vars, config.cutoff), code))


def degrees(config: FockSpaceConfig) -> np.ndarray:
    """Total degree |k| of each basis element, in enumeration order."""
    return _basis_array(config.num_vars, config.cutoff).sum(axis=1)


def guard_mask(config: FockSpaceConfig) -> np.ndarray:
    """Boolean mask of basis states with degree <= cutoff - GUARD."""
    return degrees(config) <= config.cutoff - GUARD


def _ladder(config: FockSpaceConfig, j: int, step: int) -> IndexMap:
    """The ladder map in variable ``j``: ``step`` +1 raises, -1 lowers.

    It sends the basis state ``k`` to the state with ``k_j`` moved by
    ``step``, with weight ``sqrt(2 m)`` for ``m`` the larger of the two
    occupations.  States it would send past the cutoff, or below zero,
    have no image.
    """
    if not 1 <= j <= config.num_vars:
        raise ValueError(f"variable index {j} out of range 1..{config.num_vars}")
    nv, cutoff = config.num_vars, config.cutoff
    basis = _basis_array(nv, cutoff)
    codes = _basis_codes(nv, cutoff)
    occupation = basis[:, j - 1]
    sources = np.nonzero(degrees(config) < cutoff if step > 0 else occupation > 0)[0]
    # one more (or one less) in the degree digit and in the digit of variable j
    radix = cutoff + 1
    moved = codes[sources] + step * (radix**nv + radix ** (nv - j))
    target = np.full(config.dimension, -1, dtype=np.intp)
    target[sources] = np.searchsorted(codes, moved)
    weight = np.zeros(config.dimension)
    weight[sources] = np.sqrt(2.0 * (occupation[sources] + (step > 0)))
    return IndexMap(target, weight)


def creation(config: FockSpaceConfig, j: int) -> IndexMap:
    """Raising operator in variable ``j`` (1-based).

    Maps the basis state ``k`` to ``sqrt(2 (k_j + 1))`` times the state with
    ``k_j`` incremented; transitions beyond the cutoff are dropped.
    """
    return _ladder(config, j, +1)


def annihilation(config: FockSpaceConfig, j: int) -> IndexMap:
    """Lowering operator in variable ``j``: exactly the adjoint of creation.

    Built as its own index map, so comparing it with the adjoint of
    ``creation`` checks two constructions against each other.
    """
    return _ladder(config, j, -1)


def harmonic_oscillator(config: FockSpaceConfig) -> IndexMap:
    """Diagonal operator with entry 2|k| + num_vars on each basis state."""
    return IndexMap(np.arange(config.dimension), 2.0 * degrees(config) + config.num_vars)


def identity(config: FockSpaceConfig) -> IndexMap:
    return IndexMap(np.arange(config.dimension), np.ones(config.dimension))


def oscillator_identity_residuals(config: FockSpaceConfig,
                                  raising=None) -> tuple[float, float]:
    """Guarded-column errors of the two ladder factorizations of the oscillator.

    Returns the residuals of ``sum_j C_j^* C_j - num_vars`` and
    ``sum_j C_j C_j^* + num_vars`` against the oscillator Hamiltonian.
    ``raising`` may pass the maps ``creation(config, j)`` for j = 1..num_vars
    when the caller has built them already.
    """
    if raising is None:
        raising = [creation(config, j) for j in range(1, config.num_vars + 1)]
    h = harmonic_oscillator(config)
    lower = upper = None  # each sum starts from its first product
    for c in raising:
        a = c.adjoint()
        lower = a @ c if lower is None else lower + a @ c
        upper = c @ a if upper is None else upper + c @ a
    eye = identity(config)
    nv = config.num_vars
    res1 = max_abs_on_guard(lower - nv * eye - h, config)
    res2 = max_abs_on_guard(upper + nv * eye - h, config)
    return res1, res2


def max_abs_on_guard(matrix: IndexMap, config: FockSpaceConfig) -> float:
    """Largest |entry| over columns indexed by guarded basis states."""
    return float(np.abs(matrix.weight[guard_mask(config)]).max(initial=0.0))
