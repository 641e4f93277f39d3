"""Truncated ladder algebra on a graded multi-index oscillator basis.

The basis consists of all multi-indices in ``num_vars`` variables with total
degree at most ``cutoff``, enumerated in graded lexicographic order.
Operators are hard projections: matrix entries that would leave the
truncated basis are dropped, and algebraic identities are therefore only
asserted on states whose degree stays ``GUARD`` levels below the cutoff.
Every operator is a ``sparse.CSR`` matrix over the truncated basis; compose
with ``a @ b`` and take adjoints with ``a.adjoint()``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .sparse import CSR, diagonal, from_triples

__all__ = [
    "GUARD",
    "FockSpaceConfig",
    "multi_indices",
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


@lru_cache(maxsize=None)
def _basis(num_vars: int, cutoff: int) -> tuple[tuple[int, ...], ...]:
    """All multi-indices with |k| <= cutoff in graded lexicographic order."""

    def _compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in _compositions(total - first, parts - 1):
                yield (first,) + rest

    out = []
    for degree in range(cutoff + 1):
        out.extend(sorted(_compositions(degree, num_vars)))
    return tuple(out)


@lru_cache(maxsize=None)
def _basis_array(num_vars: int, cutoff: int) -> np.ndarray:
    """The basis as a read-only ``(dimension, num_vars)`` integer array."""
    out = np.array(_basis(num_vars, cutoff), dtype=np.int64).reshape(-1, num_vars)
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


def multi_indices(config: FockSpaceConfig) -> tuple[tuple[int, ...], ...]:
    """Basis enumeration (graded lexicographic) for the given truncation."""
    return _basis(config.num_vars, config.cutoff)


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


def _ladder(config: FockSpaceConfig, j: int, step: int) -> CSR:
    """The ladder map in variable ``j``: ``step`` +1 raises, -1 lowers.

    A weighted index map: it sends the basis state ``k`` to the state with
    ``k_j`` moved by ``step``, with weight ``sqrt(2 m)`` for ``m`` the
    larger of the two occupations.  States it would send past the cutoff,
    or below zero, have no image.
    """
    if not 1 <= j <= config.num_vars:
        raise ValueError(f"variable index {j} out of range 1..{config.num_vars}")
    nv, cutoff = config.num_vars, config.cutoff
    basis = _basis_array(nv, cutoff)
    codes = _basis_codes(nv, cutoff)
    occupation = basis[:, j - 1]
    cols = np.nonzero(degrees(config) < cutoff if step > 0 else occupation > 0)[0]
    # one more (or one less) in the degree digit and in the digit of variable j
    radix = cutoff + 1
    rows = np.searchsorted(codes, codes[cols] + step * (radix**nv + radix ** (nv - j)))
    vals = np.sqrt(2.0 * (occupation[cols] + (step > 0)))
    dim = config.dimension
    return from_triples(rows, cols, vals, (dim, dim))


def creation(config: FockSpaceConfig, j: int) -> CSR:
    """Raising operator in variable ``j`` (1-based).

    Maps the basis state ``k`` to ``sqrt(2 (k_j + 1))`` times the state with
    ``k_j`` incremented; transitions beyond the cutoff are dropped.
    """
    return _ladder(config, j, +1)


def annihilation(config: FockSpaceConfig, j: int) -> CSR:
    """Lowering operator in variable ``j``: exactly the adjoint of creation.

    Built as its own index map, so comparing it with the adjoint of
    ``creation`` checks two constructions against each other.
    """
    return _ladder(config, j, -1)


def harmonic_oscillator(config: FockSpaceConfig) -> CSR:
    """Diagonal operator with entry 2|k| + num_vars on each basis state."""
    return diagonal(2.0 * degrees(config) + config.num_vars)


def identity(config: FockSpaceConfig) -> CSR:
    return diagonal(np.ones(config.dimension))


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


def max_abs_on_guard(matrix, config: FockSpaceConfig,
                     mask: np.ndarray | None = None) -> float:
    """Largest |entry| over columns indexed by guarded basis states.

    ``mask`` overrides the default oscillator-degree mask (used by graded
    spaces whose column layout differs from the plain oscillator basis).
    """
    if mask is None:
        mask = guard_mask(config)
    values = matrix.data[mask[matrix.indices]]
    return float(np.abs(values).max()) if values.size else 0.0
