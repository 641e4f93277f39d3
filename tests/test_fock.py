"""Ladder-algebra tests.

The raising/lowering coefficients are pinned by an independent oracle: the
overlaps <h_{m+1}, (w - d/dw) h_m> of normalized Hermite functions, computed
with numpy's Hermite polynomial arithmetic and Gauss-Hermite quadrature, and
frozen below as literals.  The index maps are checked against scipy's
sparse matrices bit for bit: random maps, and every product and sum that
``verify-algebra`` forms.
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
    IndexMap,
    _basis_array,
    annihilation,
    basis_index,
    creation,
    degrees,
    guard_mask,
    harmonic_oscillator,
    identity,
    max_abs_on_guard,
    oscillator_identity_residuals,
)
from library_oracle import multi_indices
from scipy_oracle import dense, entries, same_bits, to_scipy

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
    c = dense(creation(config, 1))
    for m, frozen in RAISING_COEFFS.items():
        quad = _ladder_overlap(m, +1)
        assert abs(quad - frozen) < 1e-12
        assert abs(quad - math.sqrt(2.0 * (m + 1))) < 1e-12
        assert abs(c[m + 1, m] - frozen) < 1e-12


def test_lowering_coefficients_match_hermite_oracle():
    config = FockSpaceConfig(1, 10)
    a = dense(annihilation(config, 1))
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
    assert abs(dense(c2)[row, col] - _ladder_overlap(2, +1)) < 1e-12


def test_enumeration_is_graded_lexicographic():
    graded_lex = ((0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0))
    assert multi_indices(2, 2) == graded_lex
    assert _basis_array(2, 2).tolist() == [list(k) for k in graded_lex]


@settings(max_examples=40, deadline=None)
@given(nv=st.integers(1, 4), cutoff=st.integers(2, 9))
def test_dimension_formula(nv, cutoff):
    assert len(_basis_array(nv, cutoff)) == math.comb(cutoff + nv, nv)
    if cutoff >= GUARD + 2:
        config = FockSpaceConfig(nv, cutoff)
        assert config.dimension == math.comb(cutoff + nv, nv)


def _same_basis(nv, cutoff):
    basis = _basis_array(nv, cutoff)
    oracle = np.array(multi_indices(nv, cutoff), dtype=np.int64).reshape(-1, nv)
    return basis.dtype == oracle.dtype and np.array_equal(basis, oracle)


@pytest.mark.parametrize("nv, cutoff", [(1, 4), (2, 2), (2, 16), (3, 7), (4, 4), (3, 20),
                                        (5, 12), (6, 15), (2, 498), (1, 249_999)])
def test_basis_array_is_the_enumeration_of_compositions(nv, cutoff):
    # (2, 498) and (1, 249 999) are the state caps of model-invert --n 3 and 2
    assert _same_basis(nv, cutoff)


@settings(max_examples=60, deadline=None)
@given(nv=st.integers(1, 6), cutoff=st.integers(0, 9))
def test_basis_array_is_the_enumeration_of_compositions_at_small_sizes(nv, cutoff):
    assert _same_basis(nv, cutoff)


def test_basis_array_is_read_only_and_cached():
    basis = _basis_array(3, 7)
    assert basis is _basis_array(3, 7)
    assert not basis.flags.writeable
    with pytest.raises(ValueError):
        basis[0, 0] = 1


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
            diff = comm + 2.0 * eye if j == k else comm
            assert max_abs_on_guard(diff, config) <= 1e-12


def _creation_by_dict(config, j):
    """Reference raising map: one dict lookup per basis state."""
    basis = multi_indices(config.num_vars, config.cutoff)
    index = {k: i for i, k in enumerate(basis)}
    target = np.full(len(basis), -1)
    weight = np.zeros(len(basis))
    for col, k in enumerate(basis):
        if sum(k) < config.cutoff:
            target[col] = index[k[: j - 1] + (k[j - 1] + 1,) + k[j:]]
            weight[col] = math.sqrt(2.0 * (k[j - 1] + 1))
    return target, weight


@pytest.mark.parametrize(
    "nv, cutoff",
    [(1, 4), (1, 11), (2, 4), (2, 9), (3, 7), (3, 20), (4, 9), (5, 6), (30, 4)],
)
def test_creation_matches_dict_construction(nv, cutoff):
    # (30, 4): codes in base 5 with 31 digits exceed int64
    config = FockSpaceConfig(nv, cutoff)
    for j in sorted({1, (nv + 1) // 2, nv}):
        fast = creation(config, j)
        target, weight = _creation_by_dict(config, j)
        assert np.array_equal(fast.target, target)
        assert np.array_equal(fast.weight.view(np.uint64), weight.view(np.uint64))


def test_oscillator_ladder_factorizations():
    for nv in (1, 2, 3):
        res_lower, res_upper = oscillator_identity_residuals(FockSpaceConfig(nv, 8))
        assert res_lower <= 1e-12
        assert res_upper <= 1e-12


def test_spectrum_multiplicities():
    for nv in (1, 2, 3):
        config = FockSpaceConfig(nv, 7)
        eigs = np.real(dense(harmonic_oscillator(config)).diagonal())
        for m in range(config.cutoff + 1):
            count = int(np.sum(np.abs(eigs - (2 * m + nv)) < 1e-14))
            assert count == math.comb(m + nv - 1, nv - 1)


def test_annihilation_is_exact_adjoint_of_creation():
    config = FockSpaceConfig(2, 6)
    for j in (1, 2):
        diff = creation(config, j).adjoint() - annihilation(config, j)
        assert np.abs(diff.weight).max() == 0.0


def test_truncation_drops_top_shell():
    config = FockSpaceConfig(2, 4)
    c = dense(creation(config, 1))
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


# --------------------------------------------------------------------------
# index maps against scipy.sparse, bit for bit


# products that underflow to zero, a -0.0 and zero weights among ordinary ones
_EDGE_WEIGHTS = [1.0, -2.5, 0.0, -0.0, 1e-200, -1e-170, 3.0 ** 0.5]
_weights = st.sampled_from(_EDGE_WEIGHTS) | st.floats(-1e6, 1e6, allow_nan=False)


@st.composite
def _maps(draw, size, like=None):
    """A map on ``size`` states; with ``like``, one that sends no state
    anywhere else than ``like`` does."""
    target, weight = [], []
    for state in range(size):
        if like is not None and like.target[state] >= 0:
            choices = [-1, int(like.target[state])]
        else:
            choices = [-1] + list(range(size))
        target.append(draw(st.sampled_from(choices)))
        weight.append(draw(_weights) if target[-1] >= 0 else 0.0)
    return IndexMap(np.array(target, dtype=np.intp), np.array(weight))


@st.composite
def _operands(draw):
    size = draw(st.integers(0, 8))
    a = draw(_maps(size))
    return a, draw(_maps(size)), draw(_maps(size, like=a))


@settings(max_examples=200, deadline=None)
@given(operands=_operands(), scalar=st.sampled_from([2.5, -1.0, 0.0, 3, 1j, 0.3 - 1.7j]))
def test_index_maps_match_scipy(operands, scalar):
    a, b, c = operands
    a_sp, b_sp, c_sp = (to_scipy(m) for m in operands)
    assert same_bits(a, a_sp)
    assert same_bits(a @ b, a_sp @ b_sp)
    assert same_bits(b @ a, b_sp @ a_sp)
    assert same_bits(a + c, a_sp + c_sp)
    assert same_bits(a - c, a_sp - c_sp)
    assert same_bits(c - a, c_sp - a_sp)
    assert same_bits(scalar * a, scalar * a_sp)
    assert same_bits(a * scalar, a_sp * scalar)
    if len(np.unique(entries(a)[0])) == len(entries(a)[0]):  # no two states share a target
        assert same_bits(a.adjoint(), a_sp.conj().T)
        assert same_bits((1j * a).adjoint(), (1j * a_sp).conj().T)


def test_a_composite_weight_is_the_product_plus_zero():
    # -0.0 weights come out +0.0, and a product that underflows keeps its target
    a = IndexMap(np.array([1, 0, -1]), np.array([-0.0, 1e-200, 0.0]))
    b = IndexMap(np.array([0, 1, 0]), np.array([2.0, 1e-200, -3.0]))
    product = a @ b
    assert product.target.tolist() == [1, 0, 1]
    assert product.weight.tolist() == [0.0, 0.0, 0.0]
    assert not np.signbit(product.weight).any()


def test_a_sum_of_maps_with_different_targets_is_refused():
    a = IndexMap(np.array([1, -1, 2]), np.array([1.0, 0.0, 2.0]))
    b = IndexMap(np.array([1, 0, 0]), np.array([1.0, 3.0, 2.0]))
    for total in (lambda: a + b, lambda: a - b, lambda: b - a):
        with pytest.raises(ValueError, match="state 2 goes to"):
            total()
    # a state one operand sends nowhere takes the other's target
    assert (a + IndexMap(np.array([-1, 0, -1]), np.array([0.0, 3.0, 0.0]))).target.tolist() == [
        1, 0, 2]
    # commutators of different variables move states, the identity does not
    config = FockSpaceConfig(2, 6)
    comm = creation(config, 1) @ annihilation(config, 2) - annihilation(config, 2) @ creation(
        config, 1)
    with pytest.raises(ValueError, match="a sum of index maps sends each state to one state"):
        comm - 0.0 * identity(config)


def test_maps_of_other_sizes_and_other_operands_are_refused():
    config = FockSpaceConfig(2, 6)
    c = creation(config, 1)
    other = creation(FockSpaceConfig(2, 5), 1)
    for combine in (lambda: c @ other, lambda: c + other, lambda: other - c):
        with pytest.raises(ValueError, match="index maps on"):
            combine()
    for operand in (np.ones(config.dimension), np.ones((config.dimension, 3))):
        with pytest.raises(TypeError):
            c @ operand
        with pytest.raises(TypeError):
            operand.T @ c
        with pytest.raises(TypeError):
            operand * c
    # two states that share a target have no adjoint map
    joined = IndexMap(np.array([0, 0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="joins two states"):
        joined.adjoint()


def test_map_arrays_are_read_only():
    # maps share their arrays: a scalar multiple keeps the targets
    c = creation(FockSpaceConfig(2, 6), 1)
    assert (2.0 * c).target is c.target
    for array in (c.target, c.weight):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1


def _verify_algebra_operands(config, labels):
    """Every product and sum ``verify-algebra`` forms over the variables
    ``labels``, as ``(map, scipy matrix)`` pairs, built the way the runner
    and ``oscillator_identity_residuals`` build them."""
    eye = identity(config)
    eye_sp = to_scipy(eye)
    up = {j: creation(config, j) for j in labels}
    down = {j: annihilation(config, j) for j in labels}
    up_sp = {j: to_scipy(m) for j, m in up.items()}
    down_sp = {j: to_scipy(m) for j, m in down.items()}
    for j in labels:
        for k in labels:
            comm = up[j] @ down[k] - down[k] @ up[j]
            comm_sp = up_sp[j] @ down_sp[k] - down_sp[k] @ up_sp[j]
            yield up[j] @ down[k], up_sp[j] @ down_sp[k]
            yield down[k] @ up[j], down_sp[k] @ up_sp[j]
            yield comm, comm_sp
            if j == k:
                yield comm + 2.0 * eye, comm_sp + 2.0 * eye_sp
        yield up[j].adjoint(), up_sp[j].conj().T
        yield up[j].adjoint() - down[j], up_sp[j].conj().T - down_sp[j]
    nv = config.num_vars
    h, h_sp = harmonic_oscillator(config), to_scipy(harmonic_oscillator(config))
    lower = upper = lower_sp = upper_sp = None
    for j in labels:
        a, a_sp = up[j].adjoint(), up_sp[j].conj().T.tocsr()
        lower = a @ up[j] if lower is None else lower + a @ up[j]
        upper = up[j] @ a if upper is None else upper + up[j] @ a
        lower_sp = a_sp @ up_sp[j] if lower_sp is None else lower_sp + a_sp @ up_sp[j]
        upper_sp = up_sp[j] @ a_sp if upper_sp is None else upper_sp + up_sp[j] @ a_sp
        yield lower, lower_sp
        yield upper, upper_sp
    yield lower - nv * eye - h, lower_sp - nv * eye_sp - h_sp
    yield upper + nv * eye - h, upper_sp + nv * eye_sp - h_sp


@pytest.mark.parametrize("nv, cutoff, labels", [
    (1, 4, None), (1, 60, None), (2, 9, None), (3, 8, None), (4, 6, None),
    (30, 4, (1, 15, 30)),
])
def test_the_ladder_products_and_sums_of_verify_algebra_match_scipy(nv, cutoff, labels):
    # (30, 4): the basis codes are Python integers
    config = FockSpaceConfig(nv, cutoff)
    count = 0
    for ours, theirs in _verify_algebra_operands(config, labels or range(1, nv + 1)):
        assert same_bits(ours, theirs)
        count += 1
    assert count > 0


@pytest.mark.parametrize("nv, cutoff", [(1, 40), (2, 9), (3, 8)])
def test_guarded_residuals_match_the_scipy_oracle(nv, cutoff):
    # the oracle's residuals, read off scipy's matrices at the guarded columns
    config = FockSpaceConfig(nv, cutoff)
    guard = np.flatnonzero(guard_mask(config))
    for ours, theirs in _verify_algebra_operands(config, range(1, nv + 1)):
        assert max_abs_on_guard(ours, config) == float(
            np.abs(theirs.tocsc()[:, guard].data).max(initial=0.0))
