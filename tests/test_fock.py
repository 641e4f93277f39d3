"""Ladder-algebra tests.

The raising/lowering coefficients are pinned by an independent oracle: the
overlaps <h_{m+1}, (w - d/dw) h_m> of normalized Hermite functions, computed
with numpy's Hermite polynomial arithmetic and Gauss-Hermite quadrature, and
frozen below as literals.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import hermite as herm

from fockindex.fock import (
    GUARD,
    FockSpaceConfig,
    _basis,
    annihilation,
    basis_index,
    creation,
    degrees,
    guard_mask,
    harmonic_oscillator,
    identity,
    max_abs_on_guard,
    multi_indices,
    oscillator_identity_residuals,
)
from fockindex.sparse import from_triples

# Frozen from the quadrature oracle below: sqrt(2 (m + 1)) for m = 0..4.
RAISING_COEFFS = {
    0: 1.4142135623730951,
    1: 2.0,
    2: 2.449489742783178,
    3: 2.8284271247461903,
    4: 3.1622776601683795,
}


def _norm_const(m):
    return 1.0 / math.sqrt(2.0**m * math.factorial(m) * math.sqrt(math.pi))


def _ladder_overlap(m, direction, nodes=64):
    """<h_{m+direction}, (w -+ d/dw) h_m> via Gauss-Hermite quadrature.

    Everything is done in the Hermite coefficient basis, so the computation
    shares no code with the package implementation.
    """
    e_m = np.zeros(m + 1)
    e_m[m] = 1.0
    if direction == +1:
        # (w - d/dw) h_m = c_m (2 w H_m - H_m') exp(-w^2/2)
        poly = herm.hermsub(2.0 * herm.hermmulx(e_m), herm.hermder(e_m))
    else:
        # (w + d/dw) h_m = c_m H_m' exp(-w^2/2)
        poly = herm.hermder(e_m)
    p = m + direction
    if p < 0:
        return 0.0
    e_p = np.zeros(p + 1)
    e_p[p] = 1.0
    x, w = herm.hermgauss(nodes)
    value = np.sum(w * herm.hermval(x, e_p) * herm.hermval(x, poly))
    return _norm_const(p) * _norm_const(m) * value


def test_raising_coefficients_match_hermite_oracle():
    config = FockSpaceConfig(1, 10)
    c = creation(config, 1).toarray()
    for m, frozen in RAISING_COEFFS.items():
        quad = _ladder_overlap(m, +1)
        assert abs(quad - frozen) < 1e-12
        assert abs(quad - math.sqrt(2.0 * (m + 1))) < 1e-12
        assert abs(c[m + 1, m] - frozen) < 1e-12


def test_lowering_coefficients_match_hermite_oracle():
    config = FockSpaceConfig(1, 10)
    a = annihilation(config, 1).toarray()
    for m in range(1, 6):
        quad = _ladder_overlap(m, -1)
        assert abs(quad - math.sqrt(2.0 * m)) < 1e-12
        assert abs(a[m - 1, m] - quad) < 1e-12


def test_multivariate_entry_matches_oracle():
    config = FockSpaceConfig(2, 6)
    c2 = creation(config, 2)
    row = basis_index(config, (1, 3))
    col = basis_index(config, (1, 2))
    # raising the second variable from occupation 2 uses the m = 2 overlap
    assert abs(c2.toarray()[row, col] - _ladder_overlap(2, +1)) < 1e-12


def test_enumeration_is_graded_lexicographic():
    assert _basis(2, 2) == (
        (0, 0),
        (0, 1),
        (1, 0),
        (0, 2),
        (1, 1),
        (2, 0),
    )


@settings(max_examples=40, deadline=None)
@given(nv=st.integers(1, 4), cutoff=st.integers(2, 9))
def test_dimension_formula(nv, cutoff):
    assert len(_basis(nv, cutoff)) == math.comb(cutoff + nv, nv)
    if cutoff >= GUARD + 2:
        config = FockSpaceConfig(nv, cutoff)
        assert len(multi_indices(config)) == math.comb(cutoff + nv, nv)
        assert config.dimension == math.comb(cutoff + nv, nv)


def test_basis_index_rejects_invalid_indices():
    config = FockSpaceConfig(2, 4)
    assert basis_index(config, (0, 0)) == 0
    with pytest.raises(ValueError):
        basis_index(config, (1, 2, 3))
    with pytest.raises(ValueError):
        basis_index(config, (-1, 0))
    with pytest.raises(ValueError):
        basis_index(config, (3, 2))  # degree 5 > cutoff


@settings(max_examples=25, deadline=None)
@given(nv=st.integers(1, 3), cutoff=st.integers(4, 7))
def test_canonical_commutation_relations(nv, cutoff):
    config = FockSpaceConfig(nv, cutoff)
    eye = identity(config)
    for j in range(1, nv + 1):
        for k in range(1, nv + 1):
            c, a = creation(config, j), annihilation(config, k)
            comm = c @ a - a @ c
            expected = -2.0 if j == k else 0.0
            diff = comm - expected * eye
            assert max_abs_on_guard(diff, config) <= 1e-12


def _creation_by_dict(config, j):
    """Reference raising matrix: one dict lookup per basis state."""
    basis = multi_indices(config)
    index = {k: i for i, k in enumerate(basis)}
    rows, cols, vals = [], [], []
    for col, k in enumerate(basis):
        if sum(k) < config.cutoff:
            rows.append(index[k[: j - 1] + (k[j - 1] + 1,) + k[j:]])
            cols.append(col)
            vals.append(math.sqrt(2.0 * (k[j - 1] + 1)))
    dim = config.dimension
    return from_triples(rows, cols, vals, (dim, dim))


@pytest.mark.parametrize(
    "nv, cutoff",
    [(1, 4), (1, 11), (2, 4), (2, 9), (3, 7), (3, 20), (4, 9), (5, 6), (30, 4)],
)
def test_creation_matches_dict_construction(nv, cutoff):
    # (30, 4): codes in base 5 with 31 digits exceed int64
    config = FockSpaceConfig(nv, cutoff)
    for j in sorted({1, (nv + 1) // 2, nv}):
        fast = creation(config, j)
        slow = _creation_by_dict(config, j)
        assert np.array_equal(fast.data, slow.data)
        assert np.array_equal(fast.indices, slow.indices)
        assert np.array_equal(fast.indptr, slow.indptr)


def test_oscillator_ladder_factorizations():
    for nv in (1, 2, 3):
        res_lower, res_upper = oscillator_identity_residuals(FockSpaceConfig(nv, 8))
        assert res_lower <= 1e-12
        assert res_upper <= 1e-12


def test_spectrum_multiplicities():
    for nv in (1, 2, 3):
        config = FockSpaceConfig(nv, 7)
        eigs = np.real(harmonic_oscillator(config).toarray().diagonal())
        for m in range(config.cutoff + 1):
            count = int(np.sum(np.abs(eigs - (2 * m + nv)) < 1e-14))
            assert count == math.comb(m + nv - 1, nv - 1)


def test_annihilation_is_exact_adjoint_of_creation():
    config = FockSpaceConfig(2, 6)
    for j in (1, 2):
        diff = creation(config, j).adjoint() - annihilation(config, j)
        assert diff.nnz == 0 or np.abs(diff.data).max() == 0.0


def test_truncation_drops_top_shell():
    config = FockSpaceConfig(2, 4)
    c = creation(config, 1).toarray()
    top = basis_index(config, (0, 4))
    assert np.all(c[:, top] == 0.0)


def test_config_validation():
    with pytest.raises(ValueError):
        FockSpaceConfig(0, 6)
    with pytest.raises(ValueError, match="guard band"):
        FockSpaceConfig(2, GUARD + 1)


def test_guard_mask_margins():
    config = FockSpaceConfig(1, 5)
    assert guard_mask(config).tolist() == [True, True, True, True, False, False]
    assert degrees(config).tolist() == [0, 1, 2, 3, 4, 5]
