"""Block-model assembly and inversion tests.

The graded block identity and the explicit inverse formulas are checked
against independently assembled matrices: a hand-built closed-form inverse
at zero deformation angle, direct residuals through the assembled model,
and rank counts of the deformation difference.  The label-block route is
cross-checked against the dense one: dense pseudo-inverses of the sector
blocks, a dense SVD of the guarded columns, and ranks of the whole
deformation difference.  The library holds the model only as label-block
stacks.  Its oracle lives here: the directly assembled sparse model and the
deformed vacuum projector it reads, and the block calculus with declared
orders with the projector models it combines into
``R P + (Id - R)(Id - P)``.  Their blocks are scipy's sparse matrices, so
the tests that build them skip without scipy.  The inverse of one
right-hand side, with its refusal of support above the guard, and the seeded
right-hand sides come from ``library_oracle``: they solve and draw through
the column routines that a certificate runs.
"""

import itertools
import subprocess
import sys
from dataclasses import dataclass, replace

import numpy as np
import pytest
from children import child_env
from hypothesis import given, settings
from hypothesis import strategies as st
from library_oracle import (
    basis_vector,
    graded_basis,
    invert_comparison_model,
    random_guarded_rhs,
    rank_probes,
)
from scipy_oracle import dense, to_scipy

from fockindex import models, spinors
from fockindex.errors import AdmissibilityError, PairingFloorError
from fockindex.fock import FockSpaceConfig, IndexMap
from fockindex.models import ModelConfig, certify_invertibility, deformation_block_ranks
from fockindex.spinors import (
    EVEN,
    ODD,
    GradedBasisIndex,
    _check_parity,
    _check_target,
    _deformed_amplitudes,
    dirac_plus,
    graded_dimension,
    graded_form_degrees,
    graded_index,
    graded_osc_degrees,
    sector_indices,
    vacuum_index,
)

CHIRALITIES = (EVEN, ODD)
ORACLE_SIZES = ((2, 12), (3, 12), (4, 5))
COMPARISON_ORDERS = ((0, -1), (-1, -2))
STACK_SIZES = [(2, 12, None), (3, 10, None), (3, 8, GradedBasisIndex((0, 1), (1, 2))),
               (4, 6, None), (5, 4, None), (6, 4, None)]
# a lowering factor other than one and a heavy shift other than the default n - 1
SCALED = {"alpha": 0.6, "beta": 2.25}


@dataclass(frozen=True)
class GradedOperator:
    """2x2 block matrix over the form-parity sectors, with declared orders.

    ``blocks[i][j]`` is a scipy CSR matrix or ``None`` (an exactly-zero block),
    and ``heisenberg_orders[i][j]`` its declared order, ``None`` for zero
    blocks.  The first slot is always the even-form sector.
    """

    blocks: tuple
    row_dims: tuple
    col_dims: tuple
    heisenberg_orders: tuple

    def block(self, i: int, j: int):
        entry = self.blocks[i][j]
        if entry is None:
            return _scipy().csr_matrix((self.row_dims[i], self.col_dims[j]), dtype=complex)
        return entry

    def matrix(self):
        """The assembled two-sector matrix."""
        return _scipy().bmat([[self.block(i, j) for j in range(2)] for i in range(2)],
                             format="csr")

    def adjoint(self) -> "GradedOperator":
        """Blockwise adjoint: block ``(i, j)`` is block ``(j, i)``'s, with its order."""
        blocks = tuple(tuple(None if entry is None else entry.conj().T.tocsr()
                             for entry in column)
                       for column in zip(*self.blocks))
        orders = tuple(zip(*self.heisenberg_orders))
        return GradedOperator(blocks, self.col_dims, self.row_dims, orders)

    def compose(self, other: "GradedOperator") -> "GradedOperator":
        """Plain block product, through scipy; each order is the best declared sum."""
        if self.col_dims != other.row_dims:
            raise ValueError("block operators have incompatible sector dimensions")
        blocks, orders = [], []
        for i in range(2):
            brow, orow = [], []
            for j in range(2):
                total, order = None, None
                for k in range(2):
                    left, right = self.blocks[i][k], other.blocks[k][j]
                    if left is None or right is None:
                        continue
                    term = left @ right
                    total = term if total is None else total + term
                    lo = self.heisenberg_orders[i][k]
                    ro = other.heisenberg_orders[k][j]
                    if lo is not None and ro is not None:
                        order = lo + ro if order is None else max(order, lo + ro)
                brow.append(total)
                orow.append(order)
            blocks.append(tuple(brow))
            orders.append(tuple(orow))
        return GradedOperator(tuple(blocks), self.row_dims, other.col_dims, tuple(orders))

    def graded_add(self, other: "GradedOperator") -> "GradedOperator":
        """Blockwise sum where the higher declared order wins outright.

        Blocks of equal declared order add; a block of strictly lower
        declared order than its counterpart is discarded entirely.
        Exact-zero sums are normalized back to empty blocks.
        """
        if self.row_dims != other.row_dims or self.col_dims != other.col_dims:
            raise ValueError("block operators have incompatible sector dimensions")
        blocks, orders = [], []
        for i in range(2):
            brow, orow = [], []
            for j in range(2):
                a, b = self.blocks[i][j], other.blocks[i][j]
                ao, bo = self.heisenberg_orders[i][j], other.heisenberg_orders[i][j]
                if a is None or (b is not None and bo > ao):
                    entry, order = b, bo
                elif b is None or ao > bo:
                    entry, order = a, ao
                else:
                    entry, order = a + b, ao
                if entry is not None and (
                    entry.nnz == 0 or np.abs(entry.data).max() == 0.0
                ):
                    entry, order = None, None
                brow.append(entry)
                orow.append(order)
            blocks.append(tuple(brow))
            orders.append(tuple(orow))
        return GradedOperator(tuple(blocks), self.row_dims, self.col_dims, tuple(orders))


def build_calderon_model(chirality: str, complement: bool, cfg: ModelConfig) -> GradedOperator:
    """Model of the one-sided boundary projector (or its complement).

    One diagonal corner is the identity, the other the shifted oscillator
    Hamiltonian (shift ``-beta`` for the projector, ``+beta`` for the
    complement); the off-diagonal blocks carry the chiral halves of the
    coupled operator, negated in the complement.
    """
    _check_parity(chirality, "chirality")
    config, even_idx, odd_idx, osc = _sector_helpers(cfg)
    dirac = to_scipy(dirac_plus(config), graded_dimension(config))
    alpha, beta = cfg.alpha, cfg.beta
    sign = -1.0 if complement else 1.0
    shift = beta if complement else -beta
    up = sign * alpha * dirac[odd_idx, :][:, even_idx]
    down = sign * alpha * dirac[even_idx, :][:, odd_idx]
    heavy_parity = ODD if (chirality == EVEN) != complement else EVEN
    h0 = 2.0 * osc[odd_idx if heavy_parity == ODD else even_idx] + config.num_vars
    heavy = alpha**2 * _diagonal(h0 + shift)
    if heavy_parity == ODD:
        blocks = ((_identity(even_idx), down), (up, heavy))
        orders = ((0, -1), (-1, -2))
    else:
        blocks = ((heavy, down), (up, _identity(odd_idx)))
        orders = ((-2, -1), (-1, 0))
    dims = (len(even_idx), len(odd_idx))
    return GradedOperator(blocks, dims, dims, orders)


def deformed_szego(config: FockSpaceConfig, theta: float,
                   target: GradedBasisIndex):
    """Rank-one projection onto cos(theta) * vacuum + sin(theta) * target.

    The target must be a basis state of even form degree distinct from the
    vacuum, and the vacuum pairing must stay above ``PAIRING_FLOOR``: the
    library's sector data and amplitudes refuse the rest.
    """
    _check_target(config, target)
    amps = np.array(_deformed_amplitudes(theta))
    # the projector's only nonzeros sit on the vacuum and target coordinates
    coords = [graded_index(config, vacuum_index(config)), graded_index(config, target)]
    dim = graded_dimension(config)
    values = np.outer(amps, amps).ravel()
    keep = values != 0
    return _scipy().csr_matrix(
        (values[keep], (np.repeat(coords, 2)[keep], np.tile(coords, 2)[keep])), shape=(dim, dim))


def build_boundary_model(chirality: str, cfg: ModelConfig) -> GradedOperator:
    """Model of the generalized projector side condition.

    Even chirality keeps the rank-one corner together with the whole odd
    sector; odd chirality is its exact block complement.
    """
    _check_parity(chirality, "chirality")
    config, even_idx, odd_idx, _ = _sector_helpers(cfg)
    szego = deformed_szego(config, cfg.theta, cfg.target)[even_idx, :][:, even_idx]
    dims = (len(even_idx), len(odd_idx))
    if chirality == EVEN:
        blocks = ((szego, None), (None, _identity(odd_idx)))
        orders = ((0, None), (None, 0))
    else:
        blocks = ((_identity(even_idx) - szego, None), (None, None))
        orders = ((0, None), (None, None))
    return GradedOperator(blocks, dims, dims, orders)


def build_comparison_model(chirality: str, cfg: ModelConfig) -> GradedOperator:
    """The comparison model, assembled directly, with its declared orders.

    Equals the graded combination ``R P + (Id - R)(Id - P)`` of the boundary
    and one-sided projector models, blockwise and exactly.  Its factors are
    the library's ``models._factors``.
    """
    _check_parity(chirality, "chirality")
    config, even, odd, _ = _sector_helpers(cfg)
    dirac = to_scipy(dirac_plus(config), graded_dimension(config))
    szego = deformed_szego(config, cfg.theta, cfg.target)[even, :][:, even]
    lower, raising, heavy = models._factors(chirality, cfg)
    top_right = (_identity(even) - 2.0 * szego) @ (lower * dirac[even, :][:, odd])
    blocks = ((szego, top_right),
              (raising * dirac[odd, :][:, even], _diagonal(heavy)))
    dims = (len(even), len(odd))
    return GradedOperator(blocks, dims, dims, COMPARISON_ORDERS)


def _scipy():
    return pytest.importorskip("scipy.sparse")


def _diagonal(values):
    """The sparse diagonal matrix holding the nonzero ``values``."""
    matrix = _scipy().diags(np.asarray(values, dtype=complex), format="csr")
    matrix.eliminate_zeros()
    return matrix


def _identity(positions):
    """The sparse identity on a sector."""
    return _diagonal(np.ones(len(positions)))


def _sector_helpers(cfg):
    """Independent sector bookkeeping straight from the graded enumeration."""
    config = cfg.fock_config
    even_idx = sector_indices(config, EVEN)
    odd_idx = sector_indices(config, ODD)
    osc = graded_osc_degrees(config)
    return config, even_idx, odd_idx, osc


def _apply(model, top, bottom):
    """The model's dense matrix applied to the stacked sectors."""
    out = model.matrix().toarray() @ np.concatenate([top, bottom])
    return out[:model.row_dims[0]], out[model.row_dims[0]:]


def _dense(stacks, shape):
    """The dense matrix held as label-block stacks."""
    out = np.zeros(shape, dtype=complex)
    for rows, cols, stack in stacks:
        out[rows[:, :, None], cols[:, None, :]] = stack
    return out


def test_model_config_defaults_and_validation():
    cfg = ModelConfig(n=3)
    assert cfg.alpha == 1.0
    assert cfg.beta == 2.0  # Kahler normalization picks n - 1
    assert cfg.cutoff == 12
    assert cfg.target == GradedBasisIndex((1, 0), ())
    assert not cfg.deformed
    assert cfg.fock_config.num_vars == 2
    with pytest.raises(ValueError):
        ModelConfig(n=1)
    with pytest.raises(ValueError):
        ModelConfig(n=2, alpha=0.0)
    with pytest.raises(ValueError):
        ModelConfig(n=2, tol=-1.0)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["alpha", "beta", "theta", "tol"])
def test_model_config_refuses_a_non_finite_parameter_by_name(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        ModelConfig(n=2, cutoff=8, **{field: value})


@pytest.mark.parametrize("field", ["alpha", "beta", "theta", "tol"])
def test_model_config_refuses_an_integer_too_large_for_a_float_by_name(field):
    with pytest.raises(ValueError, match=f"^{field} must be finite, got an integer too large"):
        ModelConfig(n=2, cutoff=8, **{field: 10**400})


def test_calderon_model_corners_and_complement():
    cfg = ModelConfig(n=3, cutoff=8)
    config, even_idx, odd_idx, osc = _sector_helpers(cfg)
    proj = build_calderon_model(EVEN, False, cfg)
    # top-left corner of the even projector model is the identity
    eye = proj.block(0, 0).toarray()
    assert np.array_equal(eye, np.eye(len(even_idx)))
    assert proj.heisenberg_orders == ((0, -1), (-1, -2))

    # bottom-right corner acts diagonally: alpha^2 (2k + n - 1) - alpha^2 beta
    state = GradedBasisIndex((0, 0), (1,))
    pos_graded = graded_index(config, state)
    pos = int(np.searchsorted(odd_idx, pos_graded))
    vec = np.zeros(len(odd_idx), dtype=complex)
    vec[pos] = 1.0
    out = proj.block(1, 1).toarray() @ vec
    eig = cfg.alpha**2 * (cfg.n - 1) - cfg.alpha**2 * cfg.beta
    assert np.abs(out - eig * vec).max() == 0.0

    # projector plus complement is the identity block operator, gradedwise
    comp = build_calderon_model(EVEN, True, cfg)
    total = proj.graded_add(comp)
    assert total.heisenberg_orders == ((0, None), (None, 0))
    dim = len(even_idx) + len(odd_idx)
    assert np.abs(total.matrix().toarray() - np.eye(dim)).max() == 0.0


def test_calderon_model_odd_chirality_layout():
    cfg = ModelConfig(n=2, cutoff=8)
    proj = build_calderon_model(ODD, False, cfg)
    # odd chirality puts the heavy diagonal block in the even corner
    assert proj.heisenberg_orders == ((-2, -1), (-1, 0))
    eye = proj.block(1, 1).toarray()
    assert np.array_equal(eye, np.eye(proj.row_dims[1]))
    total = proj.graded_add(build_calderon_model(ODD, True, cfg))
    dim = sum(proj.row_dims)
    assert np.abs(total.matrix().toarray() - np.eye(dim)).max() == 0.0


def test_deformed_szego_properties():
    config = FockSpaceConfig(2, 5)
    target = GradedBasisIndex((1, 0), ())
    p = deformed_szego(config, 0.3, target).toarray()
    assert np.max(np.abs(p @ p - p)) <= 1e-14
    assert np.max(np.abs(p.conj().T - p)) <= 1e-14
    assert np.linalg.matrix_rank(p) == 1
    # theta = 0 reduces exactly to the vacuum projector
    p0 = deformed_szego(config, 0.0, target).toarray()
    z0 = basis_vector(config, vacuum_index(config))
    assert np.array_equal(p0, np.outer(z0, z0.conj()))
    # even-degree non-oscillator target is admissible too
    deformed_szego(config, 0.2, GradedBasisIndex((0, 0), (1, 2)))


def test_deformed_szego_matches_dense_outer_product():
    config = FockSpaceConfig(2, 5)
    vacuum = basis_vector(config, vacuum_index(config))
    for target in (GradedBasisIndex((1, 0), ()), GradedBasisIndex((0, 1), (1, 2))):
        for theta in (0.0, 0.3, -1.2):
            vec = np.cos(theta) * vacuum + np.sin(theta) * basis_vector(config, target)
            p = deformed_szego(config, theta, target).toarray()
            assert np.array_equal(p, np.outer(vec, vec.conj()))


def test_boundary_model_fixes_deformed_vacuum():
    cfg = ModelConfig(n=2, cutoff=8, theta=0.4)
    config, even_idx, odd_idx, _ = _sector_helpers(cfg)
    model = build_boundary_model(EVEN, cfg)
    # assemble the deformed vacuum by hand
    vac_pos = int(np.searchsorted(even_idx, graded_index(config, vacuum_index(config))))
    tgt_pos = int(np.searchsorted(even_idx, graded_index(config, cfg.target)))
    z = np.zeros(len(even_idx))
    z[vac_pos] = np.cos(cfg.theta)
    z[tgt_pos] = np.sin(cfg.theta)
    top, bottom = _apply(model, z.astype(complex), np.zeros(len(odd_idx), dtype=complex))
    assert np.abs(top - z).max() < 1e-15
    assert np.abs(bottom).max() == 0.0


def test_boundary_model_kills_vacuum_orthogonal_degree_zero():
    cfg = ModelConfig(n=3, cutoff=8)  # theta = 0
    config, even_idx, odd_idx, _ = _sector_helpers(cfg)
    model = build_boundary_model(EVEN, cfg)
    # a degree-zero-form state orthogonal to the vacuum
    state = GradedBasisIndex((0, 1), ())
    pos = int(np.searchsorted(even_idx, graded_index(config, state)))
    z = np.zeros(len(even_idx), dtype=complex)
    z[pos] = 1.0
    top, bottom = _apply(model, z, np.zeros(len(odd_idx), dtype=complex))
    assert np.abs(top).max() == 0.0
    assert np.abs(bottom).max() == 0.0


@pytest.mark.parametrize("chirality", CHIRALITIES)
@pytest.mark.parametrize("theta", [0.0, 0.4])
def test_boundary_model_idempotent_and_complementary(chirality, theta):
    cfg = ModelConfig(n=2, cutoff=8, theta=theta)
    model = build_boundary_model(chirality, cfg)
    twice = model.compose(model)
    assert np.abs((twice.matrix() - model.matrix()).toarray()).max() < 1e-14
    other = build_boundary_model(ODD if chirality == EVEN else EVEN, cfg)
    total = model.matrix().toarray() + other.matrix().toarray()
    assert np.abs(total - np.eye(total.shape[0])).max() < 1e-15


@pytest.mark.parametrize("chirality", CHIRALITIES)
@pytest.mark.parametrize("theta", [0.0, 0.3])
@pytest.mark.parametrize("n", [2, 3])
def test_comparison_equals_graded_projector_combination(chirality, theta, n):
    cfg = ModelConfig(n=n, cutoff=8, theta=theta)
    other = ODD if chirality == EVEN else EVEN
    r = build_boundary_model(chirality, cfg)
    r_comp = build_boundary_model(other, cfg)
    p = build_calderon_model(chirality, False, cfg)
    p_comp = build_calderon_model(chirality, True, cfg)
    combined = r.compose(p).graded_add(r_comp.compose(p_comp))
    direct = build_comparison_model(chirality, cfg)
    assert combined.heisenberg_orders == COMPARISON_ORDERS
    for i in range(2):
        for j in range(2):
            diff = (combined.block(i, j) - direct.block(i, j)).toarray()
            assert np.abs(diff).max() == 0.0, f"block ({i},{j}) differs"


def test_comparison_odd_top_right_sign_flips():
    cfg = ModelConfig(n=2, cutoff=8)
    even_tr = build_comparison_model(EVEN, cfg).block(0, 1).toarray()
    odd_tr = build_comparison_model(ODD, cfg).block(0, 1).toarray()
    assert np.abs(even_tr + odd_tr).max() == 0.0
    assert np.abs(even_tr).max() > 0.0


@pytest.mark.parametrize("n", [2, 3])
def test_adjoint_relation_at_zero_angle(n):
    cfg = ModelConfig(n=n, cutoff=8)
    even_adj = build_comparison_model(EVEN, cfg).adjoint()
    odd = build_comparison_model(ODD, cfg)
    for i, j in ((0, 0), (0, 1), (1, 0)):
        diff = (even_adj.block(i, j) - odd.block(i, j)).toarray()
        assert np.abs(diff).max() == 0.0, f"block ({i},{j})"
    # the heavy corners differ by exactly twice the beta shift
    gap = (odd.block(1, 1) - even_adj.block(1, 1)).toarray()
    expected = 2.0 * cfg.alpha**2 * cfg.beta * np.eye(gap.shape[0])
    assert np.abs(gap - expected).max() == 0.0


def test_inverse_fixes_vacuum_pair_at_zero_angle():
    cfg = ModelConfig(n=2, cutoff=12)
    config, even_idx, odd_idx, _ = _sector_helpers(cfg)
    vac_pos = int(np.searchsorted(even_idx, graded_index(config, vacuum_index(config))))
    a = np.zeros(len(even_idx), dtype=complex)
    a[vac_pos] = 1.0
    u, v = invert_comparison_model(EVEN, cfg, (a, np.zeros(len(odd_idx), dtype=complex)))
    assert np.abs(u - a).max() == 0.0
    assert np.abs(v).max() == 0.0


@pytest.mark.parametrize("theta", [0.0, 0.3])
def test_inverse_v_component_ignores_second_slot(theta):
    cfg = ModelConfig(n=3, cutoff=10, theta=theta)
    rng = np.random.default_rng(7)
    a, b = random_guarded_rhs(rng, cfg)
    _, v = invert_comparison_model(EVEN, cfg, (np.zeros_like(a), b))
    assert np.abs(v).max() == 0.0


def test_closed_form_inverse_matches_formula_solver():
    """Hand-assembled zero-angle inverse, built independently of models.py."""
    cfg = ModelConfig(n=2, cutoff=12)
    config, even_idx, odd_idx, osc = _sector_helpers(cfg)
    from fockindex.spinors import dirac_plus

    dirac = dense(dirac_plus(config), graded_dimension(config))
    lower = dirac[np.ix_(even_idx, odd_idx)]
    raise_ = dirac[np.ix_(odd_idx, even_idx)]
    lower_inv = np.linalg.pinv(lower, rcond=1e-10)
    raise_inv = np.linalg.pinv(raise_, rcond=1e-10)
    vac_pos = int(np.searchsorted(even_idx, graded_index(config, vacuum_index(config))))
    z0 = np.zeros(len(even_idx))
    z0[vac_pos] = 1.0
    away = np.eye(len(even_idx)) - np.outer(z0, z0)
    h_shift = np.diag(2.0 * osc[odd_idx] + (cfg.n - 1) - cfg.beta)
    closed = np.block(
        [
            [np.outer(z0, z0) + raise_inv @ h_shift @ lower_inv @ away,
             raise_inv / cfg.alpha],
            [-lower_inv @ away / cfg.alpha,
             np.zeros((len(odd_idx), len(odd_idx)))],
        ]
    )
    rng = np.random.default_rng(5)
    for _ in range(5):
        a, b = random_guarded_rhs(rng, cfg)
        u, v = invert_comparison_model(EVEN, cfg, (a, b))
        ref = closed @ np.concatenate([a, b])
        assert np.abs(np.concatenate([u, v]) - ref).max() < 1e-12


@pytest.mark.parametrize("chirality", CHIRALITIES)
@pytest.mark.parametrize("theta", [0.0, 0.3])
@pytest.mark.parametrize("n,alpha,beta", [(2, 1.0, 1.0), (2, 0.7, 1.3), (3, 1.0, 2.0)])
def test_inverse_residuals_on_guarded_rhs(chirality, theta, n, alpha, beta):
    cfg = ModelConfig(n=n, alpha=alpha, beta=beta, cutoff=12, theta=theta)
    model = build_comparison_model(chirality, cfg)
    rng = np.random.default_rng(1234)
    for _ in range(10):
        a, b = random_guarded_rhs(rng, cfg)
        u, v = invert_comparison_model(chirality, cfg, (a, b))
        ta, tb = _apply(model, u, v)
        residual = np.sqrt(
            np.vdot(ta - a, ta - a).real + np.vdot(tb - b, tb - b).real
        )
        assert residual <= 1e-9


@pytest.mark.parametrize("chirality", CHIRALITIES)
def test_left_inverse_on_doubly_guarded_inputs(chirality):
    # the default target has form degree 0; the second has form degree 2
    for target in (None, GradedBasisIndex((0, 1), (1, 2))):
        cfg = ModelConfig(n=3, cutoff=12, theta=0.3, target=target)
        config, even_idx, odd_idx, osc = _sector_helpers(cfg)
        rng = np.random.default_rng(17)
        u = rng.normal(size=len(even_idx)) + 1j * rng.normal(size=len(even_idx))
        v = rng.normal(size=len(odd_idx)) + 1j * rng.normal(size=len(odd_idx))
        u[osc[even_idx] > cfg.cutoff - 4] = 0.0
        v[osc[odd_idx] > cfg.cutoff - 4] = 0.0
        model = build_comparison_model(chirality, cfg)
        a, b = _apply(model, u, v)
        uu, vv = invert_comparison_model(chirality, cfg, (a, b))
        assert np.abs(uu - u).max() < 1e-12, target
        assert np.abs(vv - v).max() < 1e-12, target


@pytest.mark.parametrize("chirality", CHIRALITIES)
def test_monotone_truncation_stability(chirality):
    """Residuals on a fixed low-degree rhs stay controlled as cutoff grows."""
    residuals = []
    for cutoff in (8, 12, 16):
        cfg = ModelConfig(n=2, cutoff=cutoff, theta=0.3)
        config, even_idx, odd_idx, osc = _sector_helpers(cfg)
        rng = np.random.default_rng(99)
        a = rng.normal(size=len(even_idx)) + 1j * rng.normal(size=len(even_idx))
        b = rng.normal(size=len(odd_idx)) + 1j * rng.normal(size=len(odd_idx))
        a[osc[even_idx] > 6] = 0.0
        b[osc[odd_idx] > 6] = 0.0
        model = build_comparison_model(chirality, cfg)
        u, v = invert_comparison_model(chirality, cfg, (a, b))
        ta, tb = _apply(model, u, v)
        residuals.append(
            np.sqrt(np.vdot(ta - a, ta - a).real + np.vdot(tb - b, tb - b).real)
        )
    assert residuals[1] <= 10.0 * residuals[0]
    assert residuals[2] <= 10.0 * residuals[1]


@pytest.mark.parametrize("chirality", CHIRALITIES)
def test_deformation_difference_has_small_rank(chirality):
    cfg = ModelConfig(n=3, cutoff=10, theta=0.3)
    ranks = deformation_block_ranks(chirality, cfg)
    assert max(ranks[0][0], ranks[0][1], ranks[1][0]) <= 4
    assert ranks[1][1] == 0


def test_guard_violation_is_rejected():
    cfg = ModelConfig(n=2, cutoff=8)
    config, even_idx, odd_idx, osc = _sector_helpers(cfg)
    a = np.zeros(len(even_idx), dtype=complex)
    a[np.argmax(osc[even_idx])] = 1.0  # top-degree state
    with pytest.raises(AdmissibilityError, match="above oscillator degree cutoff-2"):
        invert_comparison_model(EVEN, cfg, (a, np.zeros(len(odd_idx), dtype=complex)))


def test_pairing_floor_is_rejected_and_surfaced():
    cfg = ModelConfig(n=2, cutoff=8, theta=np.pi / 2 - 1e-4)
    config, even_idx, odd_idx, _ = _sector_helpers(cfg)
    rhs = (
        np.zeros(len(even_idx), dtype=complex),
        np.zeros(len(odd_idx), dtype=complex),
    )
    with pytest.raises(PairingFloorError):
        invert_comparison_model(EVEN, cfg, rhs)
    report = certify_invertibility(EVEN, cfg, num_rhs=1)
    assert report["passed"] is False
    assert "pairing" in report["error"]


@pytest.mark.parametrize("chirality", CHIRALITIES)
def test_certification_report_passes(chirality):
    cfg = ModelConfig(n=2, cutoff=12, theta=0.3)
    report = certify_invertibility(chirality, cfg, num_rhs=8, seed=3)
    assert report["passed"] is True
    assert report["error"] is None
    assert report["smallest_singular_value"] > cfg.tol
    assert report["residual_max"] <= cfg.tol
    assert report["deformation_block_ranks"][1][1] == 0
    assert list(report) == ["passed", "error", "num_rhs", "smallest_singular_value",
                            "residual_max", "deformation_block_ranks"]
    assert report["num_rhs"] == 8


@pytest.mark.parametrize("n,cutoff,target", STACK_SIZES)
@pytest.mark.parametrize("theta", [0.3, 0.55, -0.2])
@pytest.mark.parametrize("chirality", CHIRALITIES)
def test_a_column_solves_the_same_in_any_stack(chirality, theta, n, cutoff, target):
    cfg = ModelConfig(n=n, cutoff=cutoff, theta=theta, target=target)
    rng = np.random.default_rng(n)
    a, b = (np.stack(part, axis=1)
            for part in zip(*(random_guarded_rhs(rng, cfg) for _ in range(16))))
    u, v = models._solve_columns(chirality, cfg, a, b)
    for k in range(16):
        single = models._solve_columns(chirality, cfg, a[:, k:k + 1], b[:, k:k + 1])
        assert np.array_equal(u[:, k], single[0][:, 0]), k
        assert np.array_equal(v[:, k], single[1][:, 0]), k


def _held_states(sec):
    """Whether each even, and each odd, state lies in a label block that
    holds a guarded state."""
    ids = np.concatenate([sec.even_ids, sec.odd_ids])
    held = np.isin(ids, ids[np.concatenate([sec.guard_even, sec.guard_odd])])
    return held[:sec.dim_even], held[sec.dim_even:]


def _lowering_block(config, even_idx, odd_idx):
    """The even rows and odd columns of scipy's ``dirac_plus``, as COO."""
    dirac = to_scipy(dirac_plus(config), graded_dimension(config))
    return dirac[even_idx, :][:, odd_idx].tocoo()


def _whole_stacks(cfg):
    """The lowering block gathered over every label block, its pseudo-inverse
    and that one's transposed views: the sector data's three stack lists, had
    they held every block."""
    config, even_idx, odd_idx, _ = _sector_helpers(cfg)
    sec = models._sectors(cfg)
    lower = _lowering_block(config, even_idx, odd_idx)
    stacks = list(spinors._label_stacks(
        (lower.row, lower.col, lower.data), sec.even_ids, sec.odd_ids,
        np.ones(sec.dim_even, dtype=bool), np.ones(sec.dim_odd, dtype=bool)))
    pinv = models._block_pinv(stacks)
    return stacks, pinv, models._transposed(pinv)


@pytest.mark.parametrize("n,cutoff,target", STACK_SIZES)
@pytest.mark.parametrize("theta", [0.3, -0.2])
@pytest.mark.parametrize("chirality", CHIRALITIES)
def test_a_held_solve_equals_a_whole_stack_solve(chirality, theta, n, cutoff, target,
                                                 monkeypatch):
    cfg = ModelConfig(n=n, cutoff=cutoff, theta=theta, target=target, **SCALED)
    sec = models._sectors(cfg)
    a, b = models._guarded_draws(np.random.default_rng(n), sec, 8)
    # and a unit column on the vacuum, and one on the (off-vacuum) target
    a = np.concatenate([a, np.zeros((sec.dim_even, 2))], axis=1)
    b = np.concatenate([b, np.zeros((sec.dim_odd, 2))], axis=1)
    a[[sec.vacuum_pos, sec.target_pos], [-2, -1]] = 1.0
    held = models._solve_columns(chirality, cfg, a, b)
    residual = models._apply_model(chirality, cfg, *held)
    with monkeypatch.context() as whole:
        for name, stacks in zip(("lower_stacks", "lower_pinv", "raise_pinv"),
                                _whole_stacks(cfg)):
            whole.setattr(sec, name, stacks)
        for got, expected in zip(held, models._solve_columns(chirality, cfg, a, b)):
            assert np.array_equal(got, expected)
        applied = models._apply_model(chirality, cfg, *held)
    for got, expected in zip(residual, applied):
        assert np.array_equal(got, expected)
    # every other block of the solution and of the residual is exactly zero
    held_even, held_odd = _held_states(sec)
    assert not (held_even.all() or held_odd.all())
    u, v = held
    assert not (u[~held_even].any() or v[~held_odd].any())
    assert not ((applied[0] - a)[~held_even].any() or (applied[1] - b)[~held_odd].any())


@pytest.mark.parametrize("n,cutoff,theta,target", [
    (3, 16, 0.0, None), (4, 7, 0.0, None), (5, 4, 0.0, None), (2, 40, 0.0, None),
    (6, 6, 0.0, None),
    (6, 4, 0.3, None),  # the deformed model of model-invert-n6-deformed.json
    (3, 8, 0.3, GradedBasisIndex((0, 1), (1, 2))),
])
def test_the_merged_block_is_the_merged_member_of_the_lowering_stacks(n, cutoff, theta, target):
    cfg = ModelConfig(n=n, cutoff=cutoff, theta=theta, target=target)
    config, even_idx, odd_idx, _ = _sector_helpers(cfg)
    sec = models._sectors(cfg)
    rows, cols = np.flatnonzero(sec.merged_even), np.flatnonzero(sec.merged_odd)
    # the entries of dirac_plus on the merged positions, placed in a dense block
    entry_rows, entry_cols, values = dirac_plus(config)
    even_rows, odd_cols = even_idx[rows], odd_idx[cols]
    pick = np.isin(entry_rows, even_rows) & np.isin(entry_cols, odd_cols)
    oracle = np.zeros((len(rows), len(cols)), dtype=complex)
    oracle[np.searchsorted(even_rows, entry_rows[pick]),
           np.searchsorted(odd_cols, entry_cols[pick])] = values[pick]
    merged = np.ascontiguousarray(sec.merged_lower)
    assert merged.dtype == oracle.dtype and merged.shape == oracle.shape
    assert np.array_equal(merged.view(np.uint64), oracle.view(np.uint64))
    (local_rows, stack_cols, stack), = sec.merged_stack
    assert np.array_equal(stack_cols, cols[None]) and np.array_equal(stack[0], merged)
    assert np.array_equal(local_rows, np.arange(len(rows))[None])
    assert rows[sec.merged_pair].tolist() == [sec.vacuum_pos, sec.target_pos]


@pytest.mark.parametrize("n,cutoff,target", STACK_SIZES)
def test_the_sector_stacks_hold_only_blocks_with_a_guarded_state(n, cutoff, target):
    sec = models._sectors(ModelConfig(n=n, cutoff=cutoff, target=target))
    guards = (sec.guard_even, sec.guard_odd)
    for stacks, (row_guard, col_guard) in ((sec.lower_stacks, guards),
                                           (sec.lower_pinv, guards[::-1]),
                                           (sec.raise_pinv, guards)):
        assert stacks
        for rows, cols, stack in stacks:
            assert (row_guard[rows].any(axis=1) | col_guard[cols].any(axis=1)).all()
    # and every guarded odd state is a column of a lowering block
    cols = np.concatenate([cols.ravel() for _, cols, _ in sec.lower_stacks])
    assert np.isin(sec.guarded_odd, cols).all()


@pytest.mark.parametrize("n,cutoff,target", STACK_SIZES)
def test_a_draw_is_a_unit_vector_of_guarded_numbers(n, cutoff, target):
    cfg = ModelConfig(n=n, cutoff=cutoff, target=target)
    sec = models._sectors(cfg)
    even, odd = np.count_nonzero(sec.guard_even), np.count_nonzero(sec.guard_odd)
    rng = np.random.default_rng(n)
    a, b = random_guarded_rhs(rng, cfg)
    assert not (a[~sec.guard_even].any() or b[~sec.guard_odd].any())
    assert abs(np.linalg.norm(np.concatenate([a, b])) - 1.0) <= 1e-14
    # the draw took 2 (g_e + g_o) numbers: the real and imaginary parts of a
    # on its guarded positions, then those of b
    numbers = np.random.default_rng(n).standard_normal(2 * (even + odd) + 1)
    real_a, imag_a, real_b, imag_b = np.split(numbers[:-1], np.cumsum([even, even, odd]))
    norm = np.sqrt(np.sum(numbers[:-1] ** 2))
    assert np.allclose(a[sec.guard_even] * norm, real_a + 1j * imag_a, rtol=1e-13, atol=0)
    assert np.allclose(b[sec.guard_odd] * norm, real_b + 1j * imag_b, rtol=1e-13, atol=0)
    assert rng.standard_normal() == numbers[-1]


def _entry_product(entries, x, size):
    """The product by ``x`` of the matrix with the given (rows, columns,
    values), summed entry by entry."""
    rows, cols, values = entries
    out = np.zeros((size, x.shape[1]), dtype=complex)
    np.add.at(out, rows, values[:, None] * x[cols])
    return out


def _stack_entries(stacks):
    """The (rows, columns, values) of every entry of label-block stacks."""
    parts = [(np.broadcast_to(rows[:, :, None], stack.shape).ravel(),
              np.broadcast_to(cols[:, None, :], stack.shape).ravel(), stack.ravel())
             for rows, cols, stack in stacks]
    return [np.concatenate(part) for part in zip(*parts)]


@pytest.mark.parametrize("n,cutoff,target", STACK_SIZES)
def test_label_block_products_match_dense_oracle(n, cutoff, target):
    cfg = ModelConfig(n=n, cutoff=cutoff, theta=0.3, target=target)
    sec = models._sectors(cfg)
    even, odd = sec.dim_even, sec.dim_odd
    rng = np.random.default_rng(n)
    x = rng.normal(size=(even + odd, 5)) + 1j * rng.normal(size=(even + odd, 5))
    config, even_idx, odd_idx, _ = _sector_helpers(cfg)
    lower = _lowering_block(config, even_idx, odd_idx)
    whole_lower, whole_pinv, whole_raise = _whole_stacks(cfg)
    for stacks, entries, cols, size in (
        (whole_lower, (lower.row, lower.col, lower.data), x[:odd], even),
        (whole_pinv, _stack_entries(whole_pinv), x[:even], odd),
        (whole_raise, _stack_entries(whole_raise), x[:odd], even),
        (sec.lower_pinv, _stack_entries(sec.lower_pinv), x[:even], odd),
        (sec.raise_pinv, _stack_entries(sec.raise_pinv), x[:odd], even),
    ):
        oracle = _entry_product(entries, cols, size)
        product = models._block_product(stacks, cols, size)
        assert np.abs(product - oracle).max() <= 1e-13 * np.abs(oracle).max()
    # the solver applies raise_pinv, transposed views of lower_pinv, as their adjoint
    for stacks in (whole_raise, sec.raise_pinv):
        rows, cols, values = _stack_entries(stacks)
        oracle = _entry_product((rows, cols, values.conj()), x[:odd], even)
        product = models._block_product(stacks, x[:odd], even, adjoint=True)
        assert np.abs(product - oracle).max() <= 1e-13 * np.abs(oracle).max()
    # the residual's model, applied from the sector data to columns that
    # vanish off the held blocks, against the assembled one
    x[~np.concatenate(_held_states(sec))] = 0.0
    for chirality, theta, scales in itertools.product(CHIRALITIES, (0.0, 0.3, -0.2),
                                                      ({}, SCALED)):
        cfg = ModelConfig(n=n, cutoff=cutoff, theta=theta, target=target, **scales)
        product = np.concatenate(models._apply_model(chirality, cfg, x[:even], x[even:]))
        model = build_comparison_model(chirality, cfg).matrix().tocoo()
        oracle = _entry_product((model.row, model.col, model.data), x, even + odd)
        assert np.abs(product - oracle).max() <= 1e-13 * np.abs(oracle).max()


@pytest.mark.parametrize("n,cutoff,target", STACK_SIZES)
def test_a_column_products_the_same_from_any_layout(n, cutoff, target):
    sec = models._sectors(ModelConfig(n=n, cutoff=cutoff, target=target))
    rng = np.random.default_rng(n)
    for stacks, dim, size in ((sec.lower_pinv, sec.dim_even, sec.dim_odd),
                              (sec.raise_pinv, sec.dim_odd, sec.dim_even)):
        x = rng.normal(size=(dim, 16)) + 1j * rng.normal(size=(dim, 16))
        stacked = models._block_product(stacks, x, size)
        fortran = models._block_product(stacks, np.asfortranarray(x), size)
        for k in range(16):
            alone = models._block_product(stacks, np.ascontiguousarray(x[:, k:k + 1]), size)
            sliced = models._block_product(stacks, x[:, k:k + 1], size)
            for other in (fortran[:, k], alone[:, 0], sliced[:, 0]):
                assert np.array_equal(stacked[:, k], other), k


@pytest.mark.parametrize("theta", [0.3, -0.2])
@pytest.mark.parametrize("chirality", CHIRALITIES)
def test_cached_model_blocks_equal_those_of_a_model_at_another_angle(chirality, theta):
    # the floor a certificate caches, read from the model's label blocks
    # outside the merged one, is the same bits when taken at another angle
    target = GradedBasisIndex((0, 1), (1, 2))
    cfg = ModelConfig(n=3, cutoff=8, theta=theta, target=target, **SCALED)
    models._theta_free_data.cache_clear()
    certify_invertibility(chirality, cfg, num_rhs=1)
    cached = models._theta_free(chirality, cfg).floor
    other = replace(cfg, theta=0.55 if theta < 0 else -0.2)
    models._theta_free_data.cache_clear()
    assert models._theta_free(chirality, other).floor == cached


@pytest.mark.parametrize("entries", [1, 64, 2000])
@pytest.mark.parametrize("chirality", CHIRALITIES)
def test_floor_does_not_depend_on_its_chunks(chirality, entries, monkeypatch):
    cfg = ModelConfig(n=4, cutoff=6, theta=0.3, **SCALED)
    sec = models._sectors(cfg)
    ids = np.concatenate([sec.even_ids, sec.odd_ids])
    guard = np.concatenate([sec.guard_even, sec.guard_odd])
    merged = np.concatenate([sec.merged_even, sec.merged_odd])
    # one block per label outside the merged one that holds a guarded state
    expected = len(np.unique(ids[guard & ~merged]))
    taken = []
    blocks = models._model_blocks
    monkeypatch.setattr(models, "_model_blocks", lambda factors, lower, cols:
                        taken.append(len(cols)) or blocks(factors, lower, cols))
    whole = models._outside_floor(chirality, cfg)
    assert sum(taken) == expected
    taken.clear()
    monkeypatch.setattr(spinors, "_STACK_ENTRIES", entries)
    assert models._outside_floor(chirality, cfg) == whole
    assert sum(taken) == expected


@pytest.mark.parametrize("chirality", CHIRALITIES)
def test_a_certificate_assembles_no_model(chirality, monkeypatch):
    target = GradedBasisIndex((0, 1), (1, 2))
    cfg = ModelConfig(n=3, cutoff=8, theta=0.3, target=target, **SCALED)
    models._theta_free_data.cache_clear()
    expected = certify_invertibility(chirality, cfg, num_rhs=4, seed=2)

    def refuse(*args):
        raise AssertionError("a certificate assembled the comparison model")

    monkeypatch.setattr(IndexMap, "__matmul__", refuse)
    for cache in (models._sector_data, models._theta_free_data):
        cache.cache_clear()
    # cold, then warm
    for _ in range(2):
        assert certify_invertibility(chirality, cfg, num_rhs=4, seed=2) == expected


def test_a_warm_certificate_builds_no_sparse_matrix(monkeypatch):
    target = GradedBasisIndex((0, 1), (1, 2))
    cfg = ModelConfig(n=3, cutoff=8, theta=0.3, target=target, **SCALED)
    for chirality in CHIRALITIES:
        certify_invertibility(chirality, cfg, num_rhs=4, seed=2)
    assert not any(isinstance(value, IndexMap) for value in vars(models._sectors(cfg)).values())
    fresh = replace(cfg, theta=-0.45)

    def refuse(*args, **kwargs):
        raise AssertionError("a warm certificate built an operator")

    with monkeypatch.context() as patched:
        patched.setattr(models, "dirac_plus", refuse)
        patched.setattr(spinors, "dirac_plus", refuse)
        for method in ("__init__", "__matmul__", "adjoint"):
            patched.setattr(IndexMap, method, refuse)
        got = [certify_invertibility(chirality, fresh, num_rhs=4, seed=2)
               for chirality in CHIRALITIES]
    assert got == [certify_invertibility(chirality, fresh, num_rhs=4, seed=2)
                   for chirality in CHIRALITIES]


def test_the_theta_free_cache_is_shared_across_angles_and_tolerances():
    cfg = ModelConfig(n=3, cutoff=8, theta=0.3)
    models._theta_free_data.cache_clear()
    reports = [certify_invertibility(EVEN, replace(cfg, theta=theta, tol=tol), num_rhs=2)
               for theta, tol in ((0.3, 1e-9), (0.3, 1e-6), (-0.2, 1e-12))]
    info = models._theta_free_data.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    models._theta_free_data.cache_clear()
    assert certify_invertibility(EVEN, replace(cfg, theta=-0.2, tol=1e-12),
                                 num_rhs=2) == reports[-1]


@pytest.mark.parametrize("entries", [2**18, 2000, 1])
def test_a_warm_certificate_draws_only_its_right_hand_sides(entries, monkeypatch):
    cfg = ModelConfig(n=3, cutoff=8, theta=0.3)
    certify_invertibility(EVEN, cfg, num_rhs=16)
    sec = models._sectors(cfg)
    size = max(1, entries // (sec.dim_even + sec.dim_odd))
    calls = []
    draws = models._guarded_draws
    monkeypatch.setattr(models, "_guarded_draws",
                        lambda rng, sec, count: calls.append(count) or draws(rng, sec, count))
    monkeypatch.setattr(spinors, "_STACK_ENTRIES", entries)
    certify_invertibility(EVEN, replace(cfg, theta=0.4), num_rhs=16)
    assert calls == [min(size, 16 - start) for start in range(0, 16, size)]


@pytest.mark.parametrize("entries", [2**18, 2000, 1])
def test_a_warm_certificate_reads_only_held_members(entries, monkeypatch):
    cfg = ModelConfig(n=4, cutoff=6, theta=0.3)
    certify_invertibility(EVEN, cfg, num_rhs=16)
    sec = models._sectors(cfg)
    # the lowering blocks with entries, and those of them that hold a guarded state
    _, held_odd = _held_states(sec)
    whole_lower = _whole_stacks(cfg)[0]
    blocks = np.concatenate([cols[:, 0] for _, cols, stack in whole_lower if stack.size])
    assert 0 < np.count_nonzero(held_odd[blocks]) < len(blocks)
    calls = []
    product = models._block_product
    monkeypatch.setattr(models, "_block_product", lambda stacks, *args, **kwargs:
                        calls.append(sum(len(stack) for *_, stack in stacks))
                        or product(stacks, *args, **kwargs))
    monkeypatch.setattr(spinors, "_STACK_ENTRIES", entries)
    certify_invertibility(EVEN, replace(cfg, theta=0.4), num_rhs=16)
    # the held members, or the merged block alone for the vacuum coefficient
    assert set(calls) == {np.count_nonzero(held_odd[blocks]), 1}


@pytest.mark.parametrize("stack_entries", [None, 1, "three probes"])
@pytest.mark.parametrize("n,cutoff,target", STACK_SIZES)
def test_probe_stacks_are_the_columns_of_the_rank_probes(n, cutoff, target, stack_entries,
                                                         monkeypatch):
    sec = models._sectors(ModelConfig(n=n, cutoff=cutoff, target=target))
    a, b = rank_probes(sec)
    if stack_entries == "three probes":
        stack_entries = 3 * (sec.dim_even + sec.dim_odd)
    if stack_entries is not None:  # else the default budget
        monkeypatch.setattr(spinors, "_STACK_ENTRIES", stack_entries)
    parts = []
    for part, (stack_a, stack_b) in models._probe_stacks(sec):
        assert np.array_equal(stack_a, a[:, part]) and np.array_equal(stack_b, b[:, part])
        parts.append(part)
    assert parts == list(spinors._chunks(a.shape[1], sec.dim_even + sec.dim_odd))
    if stack_entries == 1:  # one probe a stack
        assert len(parts) == a.shape[1]


@pytest.mark.parametrize("chirality", CHIRALITIES)
def test_rank_probes_solve_the_same_one_at_a_time(chirality, monkeypatch):
    cfg = ModelConfig(n=3, cutoff=8, theta=0.3, target=GradedBasisIndex((0, 1), (1, 2)))
    sec = models._sectors(cfg)
    models._theta_free_data.cache_clear()
    held = models._theta_free(chirality, cfg)
    # the held zero-angle data: the merged rows of the whole probes' solve,
    # and the draw's solve outside the merged block
    u, v = models._solve_columns(chirality, replace(cfg, theta=0.0), *rank_probes(sec))
    draw = np.concatenate([u[:, -1], v[:, -1]])
    draw[np.concatenate([sec.merged_even, sec.merged_odd])] = 0.0
    for got, expected in zip((*held.merged, held.draw),
                             (u[sec.merged_even], v[sec.merged_odd], draw)):
        assert np.array_equal(got, expected)
    ranks = deformation_block_ranks(chirality, cfg)
    widths = []
    solve = models._solve_columns
    monkeypatch.setattr(models, "_solve_columns", lambda chirality, cfg, a, b:
                        widths.append(a.shape[1]) or solve(chirality, cfg, a, b))
    monkeypatch.setattr(spinors, "_STACK_ENTRIES", 1)
    models._theta_free_data.cache_clear()
    again = models._theta_free(chirality, cfg)
    for got, expected in zip((*again.merged, again.draw), (*held.merged, held.draw)):
        assert np.array_equal(got, expected)
    assert deformation_block_ranks(chirality, cfg) == ranks
    # the zero-angle solve, then the deformed one, one probe per stack
    assert widths == [1] * 2 * (len(sec.units) + 1)


def _sector_columns(held, sec) -> int:
    """The complex columns of a sector's length that ``held``'s attributes
    hold, in arrays, tuples or lists, counted once per sector they span."""
    sides = {sec.dim_even: 1, sec.dim_odd: 1, sec.dim_even + sec.dim_odd: 2}
    count, todo = 0, list(vars(held).values())
    while todo:
        value = todo.pop()
        if isinstance(value, (tuple, list)):
            todo.extend(value)
        elif (isinstance(value, np.ndarray) and np.iscomplexobj(value)
              and value.shape[:1] and value.shape[0] in sides):
            count += sides[value.shape[0]] * (value.size // value.shape[0])
    return count


@pytest.mark.parametrize("n,cutoff,target", [(3, 10, None), (4, 6, None),
                                             (3, 8, GradedBasisIndex((0, 1), (1, 2)))])
def test_the_caches_hold_one_sector_column_per_side(n, cutoff, target):
    cfg = ModelConfig(n=n, cutoff=cutoff, theta=0.3, target=target)
    for chirality in CHIRALITIES:
        assert certify_invertibility(chirality, cfg, num_rhs=4)["passed"]
    sec = models._sectors(cfg)
    # the probes' solves keep their merged rows, more than one column each
    assert len(sec.units) > 1
    assert not hasattr(sec, "rank_probes")
    assert _sector_columns(sec, sec) == 2
    for chirality in CHIRALITIES:
        held = models._theta_free(chirality, cfg)
        assert not hasattr(held, "plain")
        assert _sector_columns(held, sec) == 2


@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize("chirality", CHIRALITIES)
def test_a_unit_probe_whose_solve_leaks_trips_the_assertion(chirality, warm, monkeypatch):
    cfg = ModelConfig(n=3, cutoff=8, theta=0.3)
    sec = models._sectors(cfg)
    models._theta_free_data.cache_clear()
    if warm:
        models._theta_free(chirality, cfg)
    leak = np.flatnonzero(sec.guard_odd & ~sec.merged_odd)[0]
    solve = models._solve_columns

    def leaky(chirality, cfg, a, b):
        # each unit probe leaks the same at every angle, so its deformed
        # solve minus its zero-angle one vanishes outside the merged block
        u, v = solve(chirality, cfg, a, b)
        v[leak] += a[sec.merged_even].sum(axis=0) + b[sec.merged_odd].sum(axis=0)
        return u, v

    monkeypatch.setattr(models, "_solve_columns", leaky)
    with pytest.raises(AssertionError, match="reaches outside the merged"):
        deformation_block_ranks(chirality, cfg)
    models._theta_free_data.cache_clear()


@pytest.mark.parametrize("count", [1, 5, 16])
def test_one_normal_call_draws_what_sequential_calls_draw(count):
    stacked = np.random.default_rng(3).normal(size=(count, 37))
    rng = np.random.default_rng(3)
    assert np.array_equal(stacked, np.stack([rng.normal(size=37) for _ in range(count)]))


@pytest.mark.parametrize("n,cutoff,target", STACK_SIZES)
def test_stacked_draws_equal_sequential_draws(n, cutoff, target):
    cfg = ModelConfig(n=n, cutoff=cutoff, target=target)
    stacked_rng, single_rng = np.random.default_rng(n), np.random.default_rng(n)
    a, b = models._guarded_draws(stacked_rng, models._sectors(cfg), 16)
    for k in range(16):
        single = random_guarded_rhs(single_rng, cfg)
        assert np.array_equal(a[:, k], single[0]), k
        assert np.array_equal(b[:, k], single[1]), k
    # both generators consumed the same numbers
    assert stacked_rng.normal() == single_rng.normal()


@pytest.mark.parametrize("n,cutoff,target", [(3, 8, None), (4, 6, None),
                                             (3, 8, GradedBasisIndex((0, 1), (1, 2)))])
@pytest.mark.parametrize("chirality", CHIRALITIES)
def test_certificate_does_not_depend_on_the_theta_free_cache(chirality, n, cutoff, target):
    thetas = (0.3, 0.55, -0.2)

    def certificates(order, clear):
        reports = {}
        for theta in order:
            if clear:
                models._theta_free_data.cache_clear()
            cfg = ModelConfig(n=n, cutoff=cutoff, theta=theta, target=target)
            reports[theta] = certify_invertibility(chirality, cfg, num_rhs=4, seed=2)
        return reports

    cold = certificates(thetas, clear=True)
    assert all(report["passed"] for report in cold.values())
    # the first theta fills the entry the others read, in either order
    models._theta_free_data.cache_clear()
    assert certificates(thetas, clear=False) == cold
    models._theta_free_data.cache_clear()
    assert certificates(thetas[::-1], clear=False) == cold
    # warm: every theta reads the entry the reversed run filled
    assert certificates(thetas, clear=False) == cold


@pytest.mark.parametrize("target", [None, GradedBasisIndex((0, 1), (1, 2))])
@pytest.mark.parametrize("theta", [0.0, 0.3, -0.2])
@pytest.mark.parametrize("chirality", CHIRALITIES)
def test_floor_and_merged_block_give_the_smallest_singular_value(chirality, theta, target):
    for scales in ({}, SCALED):
        cfg = ModelConfig(n=3, cutoff=8, theta=theta, target=target, **scales)
        sec = models._sectors(cfg)
        full = build_comparison_model(chirality, cfg).matrix().toarray()
        guard = np.concatenate([sec.guard_even, sec.guard_odd])
        labels = _merged_labels(cfg)
        blocks = {}
        for position, label in enumerate(labels):
            blocks.setdefault(label, []).append(position)
        # the merged block is the assembled model's, and uncoupled from the rest
        merged, block = models._merged_block(chirality, cfg)
        vacuum = labels[sec.vacuum_pos]
        assert np.array_equal(merged, blocks.pop(vacuum))
        assert np.array_equal(block, full[np.ix_(merged, merged)])
        rest = np.setdiff1d(np.arange(len(guard)), merged)
        assert not full[np.ix_(merged, rest)].any() and not full[np.ix_(rest, merged)].any()
        # the floor: the smallest over the other label blocks' guarded columns
        floor = min(np.linalg.svd(full[np.ix_(rows, [r for r in rows if guard[r]])],
                                  compute_uv=False).min()
                    for rows in blocks.values() if guard[rows].any())
        models._theta_free_data.cache_clear()
        got = models._theta_free(chirality, cfg).floor
        assert abs(got - floor) <= 1e-13 * floor
        smallest = min(got, np.linalg.svd(block[:, guard[merged]], compute_uv=False).min())
        dense = np.linalg.svd(full[:, guard], compute_uv=False)[-1]
        assert abs(smallest - dense) <= 1e-12 * dense


@pytest.mark.parametrize("target", [GradedBasisIndex((0, 0, 0, 0), (1,)),
                                    GradedBasisIndex((0, 0, 0, 0), ())])
def test_an_inadmissible_target_is_refused_before_sector_data_is_built(target):
    models._sector_data.cache_clear()
    cfg = ModelConfig(n=5, cutoff=5, theta=0.3, target=target)
    with pytest.raises(ValueError, match="deformation target must"):
        certify_invertibility(EVEN, cfg)
    assert models._sector_data.cache_info().currsize == 0


def test_invalid_chirality_rejected():
    cfg = ModelConfig(n=2, cutoff=8)
    rhs = random_guarded_rhs(np.random.default_rng(0), cfg)
    # the library's entry points, then the oracle's builders
    for call in (lambda: invert_comparison_model("sideways", cfg, rhs),
                 lambda: certify_invertibility("sideways", cfg),
                 lambda: deformation_block_ranks("sideways", cfg),
                 lambda: build_comparison_model("sideways", cfg),
                 lambda: build_boundary_model("sideways", cfg)):
        with pytest.raises(ValueError, match="chirality must be"):
            call()


@pytest.mark.parametrize("num_rhs", [0, -3])
def test_certificate_without_rhs_is_rejected(num_rhs):
    with pytest.raises(ValueError, match="num_rhs"):
        certify_invertibility(EVEN, ModelConfig(n=2, cutoff=8), num_rhs=num_rhs)


def _merged_labels(cfg):
    """Label of each model row (even sector, then odd), straight from the basis.

    The label of ``(k, s)`` is ``k_j + [j in s]``; the target's label is
    renamed to the vacuum's.
    """
    config, even_idx, odd_idx, _ = _sector_helpers(cfg)
    labels = [
        tuple(k + (j + 1 in state.form) for j, k in enumerate(state.osc))
        for state in graded_basis(config)
    ]
    vacuum = labels[graded_index(config, vacuum_index(config))]
    target = labels[graded_index(config, cfg.target)]
    labels = [vacuum if label == target else label for label in labels]
    return [labels[i] for i in np.concatenate([even_idx, odd_idx])]


@pytest.mark.parametrize("target", [None, GradedBasisIndex((0, 1), (1, 2))])
@pytest.mark.parametrize("chirality", CHIRALITIES)
def test_comparison_model_stays_in_merged_label_blocks(chirality, target):
    cfg = ModelConfig(n=3, cutoff=8, theta=0.3, target=target)
    labels = _merged_labels(cfg)
    matrix = build_comparison_model(chirality, cfg).matrix().toarray()
    rows, cols = np.nonzero(matrix)
    assert all(labels[r] == labels[c] for r, c in zip(rows, cols))
    # the deformed vacuum couples the vacuum to the target, so the merge is needed
    config, even_idx, _, _ = _sector_helpers(cfg)
    vac = int(np.searchsorted(even_idx, graded_index(config, vacuum_index(config))))
    tgt = int(np.searchsorted(even_idx, graded_index(config, cfg.target)))
    assert matrix[vac, tgt] != 0.0


@pytest.mark.parametrize("n,cutoff", ORACLE_SIZES)
def test_block_pseudo_inverses_match_dense_oracle(n, cutoff):
    cfg = ModelConfig(n=n, cutoff=cutoff)
    config, even_idx, odd_idx, _ = _sector_helpers(cfg)
    dirac = dense(dirac_plus(config), graded_dimension(config))
    sec = models._sectors(cfg)
    held_even, held_odd = _held_states(sec)
    # raise_pinv holds the transposed views of lower_pinv, the conjugate of
    # the raising block's pseudo-inverse.  Both hold the held blocks only; a
    # block-diagonal matrix's pseudo-inverse is block-diagonal, so their rows
    # are the dense one's held rows
    for block, pinv, stored, held in (
        (dirac[np.ix_(even_idx, odd_idx)], sec.lower_pinv, lambda oracle: oracle, held_odd),
        (dirac[np.ix_(odd_idx, even_idx)], sec.raise_pinv, np.conj, held_even),
    ):
        oracle = np.linalg.pinv(block, rcond=1e-10)
        gathered = stored(_dense(pinv, oracle.shape))
        assert not gathered[~held].any()
        assert np.abs(gathered[held] - oracle[held]).max() <= 1e-12


def _whole_difference_ranks(chirality, cfg):
    """Deformation ranks from the inverse on every guarded unit vector."""
    config, even_idx, odd_idx, osc = _sector_helpers(cfg)
    guard_even = np.flatnonzero(osc[even_idx] <= cfg.cutoff - 2)
    guard_odd = np.flatnonzero(osc[odd_idx] <= cfg.cutoff - 2)
    ne, cols = len(guard_even), len(guard_even) + len(guard_odd)
    a = np.zeros((len(even_idx), cols), dtype=complex)
    b = np.zeros((len(odd_idx), cols), dtype=complex)
    a[guard_even, np.arange(ne)] = 1.0
    b[guard_odd, np.arange(ne, cols)] = 1.0
    deformed = np.vstack(models._solve_columns(chirality, cfg, a, b))
    plain = np.vstack(models._solve_columns(chirality, replace(cfg, theta=0.0), a, b))
    diff = deformed - plain
    rows = len(even_idx)
    return [
        [models._block_rank(diff[:rows, :ne]), models._block_rank(diff[:rows, ne:])],
        [models._block_rank(diff[rows:, :ne]), models._block_rank(diff[rows:, ne:])],
    ]


@settings(max_examples=4, deadline=None)
@given(theta=st.floats(0.05, 0.6))
@pytest.mark.parametrize("n,cutoff", ORACLE_SIZES)
@pytest.mark.parametrize("chirality", CHIRALITIES)
def test_certificate_matches_dense_oracle(chirality, n, cutoff, theta):
    cfg = ModelConfig(n=n, cutoff=cutoff, theta=theta)
    report = certify_invertibility(chirality, cfg, num_rhs=1)
    config, even_idx, odd_idx, osc = _sector_helpers(cfg)
    guard = np.concatenate([osc[even_idx], osc[odd_idx]]) <= cfg.cutoff - 2
    full = build_comparison_model(chirality, cfg).matrix().toarray()
    smallest = np.linalg.svd(full[:, guard], compute_uv=False)[-1]
    assert abs(report["smallest_singular_value"] - smallest) <= 1e-12 * smallest
    assert report["deformation_block_ranks"] == _whole_difference_ranks(chirality, cfg)


_CERTIFY_HEX = """
from fockindex.models import ModelConfig, certify_invertibility
cfg = ModelConfig(n=2, cutoff=10000, theta=0.3)
for chirality in ("even", "odd"):
    report = certify_invertibility(chirality, cfg, num_rhs=2, seed=1)
    print(report["residual_max"].hex(), report["smallest_singular_value"].hex())
"""


def test_a_certificate_does_not_depend_on_the_blas_thread_count():
    # at n = 2, cutoff 10000 a sector holds 10001 states, the smallest count
    # past OpenBLAS's threading threshold for a complex dot product (10000),
    # where a threaded np.vdot would sum in another order on two threads
    outputs = []
    for threads in ("1", "2"):
        env = child_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        outputs.append(subprocess.run([sys.executable, "-c", _CERTIFY_HEX], env=env,
                                      capture_output=True, text=True, check=True).stdout)
    assert len(outputs[0].split()) == 4
    assert outputs[0] == outputs[1]
