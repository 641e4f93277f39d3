"""Graded spinor model: oscillator states tensored with an exterior algebra.

The form factor is the exterior algebra of :mod:`fockindex._forms`.  The
coupled first-order operator ``dirac_plus`` exchanges the even and odd
form-degree sectors while preserving total degree; its square is diagonal in
both the oscillator degree and the form degree.
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
    basis_index,
    creation,
    degrees,
    max_abs_on_guard,
)
from .sparse import CSR, diagonal, from_triples

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
    "deformed_szego",
    "square_identity_residual",
]

# Deformed vacua must keep at least this much overlap with the reference one.
PAIRING_FLOOR = 1e-3


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


def deformed_szego(config: FockSpaceConfig, theta: float,
                   target: GradedBasisIndex) -> CSR:
    """Rank-one projection onto cos(theta) * vacuum + sin(theta) * target.

    The target must be a basis state of even form degree distinct from the
    vacuum; the deformation is admissible only while the overlap with the
    vacuum stays above ``PAIRING_FLOOR``.  Only the assembled comparison
    model reads this matrix; the solver and certificate read the amplitudes.
    """
    _check_target(config, target)
    amps = np.array(_deformed_amplitudes(theta))
    # the projector's only nonzeros sit on the vacuum and target coordinates
    coords = [graded_index(config, vacuum_index(config)), graded_index(config, target)]
    dim = graded_dimension(config)
    values = np.outer(amps, amps).ravel()
    keep = values != 0
    return from_triples(np.repeat(coords, 2)[keep], np.tile(coords, 2)[keep],
                        values[keep], (dim, dim))


def square_identity_residual(d: CSR, config: FockSpaceConfig) -> float:
    """Max guarded-column error of the square of ``d = dirac_plus(config)``.

    The square must act diagonally as twice the oscillator degree plus twice
    the form degree; computed sparsely so large truncations stay cheap.
    """
    expected = 2.0 * graded_osc_degrees(config) + 2.0 * graded_form_degrees(config)
    diff = d @ d - diagonal(expected)
    return max_abs_on_guard(diff, config, mask=graded_guard_mask(config))
