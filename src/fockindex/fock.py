"""Truncated ladder algebra on a graded multi-index oscillator basis.

The basis consists of all multi-indices in ``num_vars`` variables with total
degree at most ``cutoff``, enumerated in graded lexicographic order.
Operators are hard projections: matrix entries that would leave the
truncated basis are dropped, and algebraic identities are therefore only
asserted on states whose degree stays ``GUARD`` levels below the cutoff.
Every operator is a complex CSR matrix over the truncated basis, with its
duplicates summed and its indices sorted; compose with ``a @ b`` and take
adjoints with ``a.conj().T``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

# scipy.sparse is imported inside the functions that build sparse matrices,
# so importing this module (as spinors and symbols do) loads numpy only.
if TYPE_CHECKING:
    import scipy.sparse as sp

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
def _index_map(num_vars: int, cutoff: int) -> dict:
    return {k: i for i, k in enumerate(_basis(num_vars, cutoff))}


@lru_cache(maxsize=None)
def _basis_array(num_vars: int, cutoff: int) -> np.ndarray:
    """The basis as a read-only ``(dimension, num_vars)`` integer array."""
    out = np.array(_basis(num_vars, cutoff), dtype=np.int64).reshape(-1, num_vars)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _basis_codes(num_vars: int, cutoff: int) -> np.ndarray:
    """Strictly increasing integer codes of the graded-lex basis (read-only).

    The state ``k`` of degree ``d`` gets the base-``cutoff + 1`` number with
    digits ``(d, k_1, ..., k_num_vars)``.  Every digit is at most the cutoff,
    so numeric order is graded-lex order.  Codes that would overflow int64
    are kept as Python integers.
    """
    radix = cutoff + 1
    fits = radix ** (num_vars + 1) <= np.iinfo(np.int64).max
    dtype = np.int64 if fits else object
    basis = _basis_array(num_vars, cutoff)
    digits = np.column_stack([basis.sum(axis=1), basis]).astype(dtype)
    weights = np.array([radix**p for p in range(num_vars, -1, -1)], dtype=dtype)
    codes = digits @ weights
    assert np.all(codes[1:] > codes[:-1]), "basis codes must increase"
    codes.setflags(write=False)
    return codes


def multi_indices(config: FockSpaceConfig) -> tuple[tuple[int, ...], ...]:
    """Basis enumeration (graded lexicographic) for the given truncation."""
    return _basis(config.num_vars, config.cutoff)


def basis_index(config: FockSpaceConfig, index: tuple[int, ...]) -> int:
    """Position of a multi-index in the enumeration; rejects invalid indices."""
    key = tuple(int(m) for m in index)
    if len(key) != config.num_vars or any(m < 0 for m in key):
        raise ValueError(f"invalid multi-index {index} for {config.num_vars} variables")
    try:
        return _index_map(config.num_vars, config.cutoff)[key]
    except KeyError:
        raise ValueError(
            f"multi-index {index} exceeds cutoff {config.cutoff}"
        ) from None


def degrees(config: FockSpaceConfig) -> np.ndarray:
    """Total degree |k| of each basis element, in enumeration order."""
    return _basis_array(config.num_vars, config.cutoff).sum(axis=1)


def guard_mask(config: FockSpaceConfig) -> np.ndarray:
    """Boolean mask of basis states with degree <= cutoff - GUARD."""
    return degrees(config) <= config.cutoff - GUARD


def _operator(matrix) -> sp.csr_matrix:
    """The canonical form of an operator: complex CSR, duplicates summed."""
    import scipy.sparse as sp

    m = sp.csr_matrix(matrix, dtype=np.complex128)
    m.sum_duplicates()
    m.sort_indices()
    return m


def creation(config: FockSpaceConfig, j: int) -> sp.csr_matrix:
    """Raising operator in variable ``j`` (1-based).

    Maps the basis state ``k`` to ``sqrt(2 (k_j + 1))`` times the state with
    ``k_j`` incremented; transitions beyond the cutoff are dropped.
    """
    import scipy.sparse as sp

    if not 1 <= j <= config.num_vars:
        raise ValueError(f"variable index {j} out of range 1..{config.num_vars}")
    nv, cutoff = config.num_vars, config.cutoff
    basis = _basis_array(nv, cutoff)
    codes = _basis_codes(nv, cutoff)
    cols = np.nonzero(degrees(config) < cutoff)[0]
    # one more in the degree digit and in the digit of variable j
    radix = cutoff + 1
    targets = codes[cols] + (radix**nv + radix ** (nv - j))
    rows = np.searchsorted(codes, targets)
    vals = np.sqrt(2.0 * (basis[cols, j - 1] + 1))
    dim = config.dimension
    m = sp.coo_matrix((vals, (rows, cols)), shape=(dim, dim))
    return _operator(m)


def annihilation(config: FockSpaceConfig, j: int) -> sp.csr_matrix:
    """Lowering operator in variable ``j``: exactly the adjoint of creation."""
    return _operator(creation(config, j).conj().T)


def harmonic_oscillator(config: FockSpaceConfig) -> sp.csr_matrix:
    """Diagonal operator with entry 2|k| + num_vars on each basis state."""
    import scipy.sparse as sp

    diag = 2.0 * degrees(config) + config.num_vars
    return _operator(sp.diags(diag.astype(np.complex128)))


def identity(config: FockSpaceConfig) -> sp.csr_matrix:
    import scipy.sparse as sp

    return _operator(sp.identity(config.dimension, dtype=np.complex128))


def oscillator_identity_residuals(config: FockSpaceConfig) -> tuple[float, float]:
    """Guarded-column errors of the two ladder factorizations of the oscillator.

    Returns the residuals of ``sum_j C_j^* C_j - num_vars`` and
    ``sum_j C_j C_j^* + num_vars`` against the oscillator Hamiltonian.
    """
    import scipy.sparse as sp

    h = harmonic_oscillator(config)
    dim = config.dimension
    lower = sp.csr_matrix((dim, dim), dtype=np.complex128)
    upper = sp.csr_matrix((dim, dim), dtype=np.complex128)
    for j in range(1, config.num_vars + 1):
        c = creation(config, j)
        a = c.conj().T
        lower = lower + a @ c
        upper = upper + c @ a
    eye = sp.identity(dim, dtype=np.complex128)
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
    import scipy.sparse as sp

    if mask is None:
        mask = guard_mask(config)
    cols = np.nonzero(mask)[0]
    if cols.size == 0:
        return 0.0
    sub = sp.csr_matrix(matrix)[:, cols]
    if sub.nnz == 0:
        return 0.0
    return float(np.abs(sub.data).max())
