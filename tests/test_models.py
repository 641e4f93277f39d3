"""Block-model assembly and inversion tests.

The graded block identity and the explicit inverse formulas are checked
against independently assembled matrices: a hand-built closed-form inverse
at zero deformation angle, direct residuals through the assembled model,
and rank counts of the deformation difference.  The label-block route is
cross-checked against the dense one: dense pseudo-inverses of the sector
blocks, a dense SVD of the guarded columns, and ranks of the whole
deformation difference.  The block calculus with declared orders, and the
projector models it combines into the comparison model, live here as the
oracle of the directly assembled model.
"""

from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockindex import models, sparse
from fockindex.errors import GuardViolationError, PairingFloorError
from fockindex.models import (
    BlockOperator,
    ModelConfig,
    build_comparison_model,
    certify_invertibility,
    deformation_block_ranks,
    invert_comparison_model,
    random_guarded_rhs,
)
from fockindex.spinors import (
    EVEN,
    ODD,
    GradedBasisIndex,
    _check_parity,
    dirac_plus,
    graded_basis,
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


@dataclass(frozen=True)
class GradedOperator(BlockOperator):
    """A block operator whose blocks carry declared orders.

    ``heisenberg_orders[i][j]`` is the declared order of ``blocks[i][j]``,
    ``None`` for zero blocks.
    """

    heisenberg_orders: tuple

    def adjoint(self) -> "GradedOperator":
        def flip(entry):
            return None if entry is None else entry.adjoint()

        return GradedOperator(
            blocks=(
                (flip(self.blocks[0][0]), flip(self.blocks[1][0])),
                (flip(self.blocks[0][1]), flip(self.blocks[1][1])),
            ),
            heisenberg_orders=(
                (self.heisenberg_orders[0][0], self.heisenberg_orders[1][0]),
                (self.heisenberg_orders[0][1], self.heisenberg_orders[1][1]),
            ),
            row_dims=self.col_dims,
            col_dims=self.row_dims,
        )

    def compose(self, other: "GradedOperator") -> "GradedOperator":
        """Plain block product; each order is the best declared sum."""
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
    sec = models._sectors(cfg)
    alpha, beta = cfg.alpha, cfg.beta
    sign = -1.0 if complement else 1.0
    shift = beta if complement else -beta
    up = sign * alpha * sec.raise_block
    down = sign * alpha * sec.lower_block
    heavy_parity = ODD if (chirality == EVEN) != complement else EVEN
    h0 = sec.h0_odd if heavy_parity == ODD else sec.h0_even
    heavy = alpha**2 * sparse.diagonal(h0 + shift)
    if heavy_parity == ODD:
        blocks = ((sec.eye(EVEN), down), (up, heavy))
        orders = ((0, -1), (-1, -2))
    else:
        blocks = ((heavy, down), (up, sec.eye(ODD)))
        orders = ((-2, -1), (-1, 0))
    dims = (sec.dim_even, sec.dim_odd)
    return GradedOperator(blocks, dims, dims, orders)


def build_boundary_model(chirality: str, cfg: ModelConfig) -> GradedOperator:
    """Model of the generalized projector side condition.

    Even chirality keeps the rank-one corner together with the whole odd
    sector; odd chirality is its exact block complement.
    """
    _check_parity(chirality, "chirality")
    sec, vac = models._sectors(cfg), models._vacuum(cfg)
    dims = (sec.dim_even, sec.dim_odd)
    if chirality == EVEN:
        blocks = ((vac.szego_even, None), (None, sec.eye(ODD)))
        orders = ((0, None), (None, 0))
    else:
        blocks = ((sec.eye(EVEN) - vac.szego_even, None), (None, None))
        orders = ((0, None), (None, None))
    return GradedOperator(blocks, dims, dims, orders)


def _declared_comparison_model(chirality, cfg):
    """The directly assembled comparison model, with its declared orders."""
    model = build_comparison_model(chirality, cfg)
    return GradedOperator(model.blocks, model.row_dims, model.col_dims, COMPARISON_ORDERS)


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
    direct = _declared_comparison_model(chirality, cfg)
    assert combined.heisenberg_orders == COMPARISON_ORDERS
    assert direct.heisenberg_orders == COMPARISON_ORDERS
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
    even_adj = _declared_comparison_model(EVEN, cfg).adjoint()
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

    dirac = dirac_plus(config).toarray()
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
    with pytest.raises(GuardViolationError):
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
    lower = sec.lower_block
    for stacks, entries, cols, size in (
        (sec.lower_stacks, (lower.rows(), lower.indices, lower.data), x[:odd], even),
        (sec.lower_pinv, _stack_entries(sec.lower_pinv), x[:even], odd),
        (sec.raise_pinv, _stack_entries(sec.raise_pinv), x[:odd], even),
    ):
        oracle = _entry_product(entries, cols, size)
        product = models._block_product(stacks, cols, size)
        assert np.abs(product - oracle).max() <= 1e-13 * np.abs(oracle).max()
    # the residual's stacks: the model outside the merged block, then the merged block
    for chirality in CHIRALITIES:
        model = build_comparison_model(chirality, cfg)
        _, outside = models._theta_free(chirality, cfg).outside(model, sec)
        merged, block = models._merged_block(model, sec)
        stacks = outside + [(merged[None], merged[None], block[None])]
        product = models._block_product(stacks, x, even + odd)
        entries = [np.concatenate(part) for part in zip(*model.entries())]
        oracle = _entry_product(entries, x, even + odd)
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
    target = GradedBasisIndex((0, 1), (1, 2))
    cfg = ModelConfig(n=3, cutoff=8, theta=theta, target=target)
    models._theta_free_data.cache_clear()
    certify_invertibility(chirality, cfg, num_rhs=1)
    sec = models._sectors(cfg)
    theta_free = models._theta_free(chirality, cfg)
    cached = theta_free._floor, theta_free._stacks
    other = replace(cfg, theta=0.55 if theta < 0 else -0.2)
    models._theta_free_data.cache_clear()
    fresh = models._theta_free(chirality, other).outside(
        build_comparison_model(chirality, other), sec)
    assert cached[0] == fresh[0]
    assert len(cached[1]) == len(fresh[1]) > 0
    for got, want in zip(cached[1], fresh[1]):
        assert all(np.array_equal(part, expected) for part, expected in zip(got, want))


@pytest.mark.parametrize("chirality", CHIRALITIES)
def test_uncached_model_blocks_give_the_same_certificate(chirality, monkeypatch):
    cfg = ModelConfig(n=4, cutoff=6, theta=0.3)
    models._theta_free_data.cache_clear()
    cached = certify_invertibility(chirality, cfg, num_rhs=4, seed=2)
    monkeypatch.setattr(models, "_CACHED_ENTRIES", 0)
    models._theta_free_data.cache_clear()
    for _ in range(2):
        assert certify_invertibility(chirality, cfg, num_rhs=4, seed=2) == cached
    assert models._theta_free(chirality, cfg)._stacks is None


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
    monkeypatch.setattr(models, "_STACK_ENTRIES", entries)
    certify_invertibility(EVEN, replace(cfg, theta=0.4), num_rhs=16)
    assert calls == [min(size, 16 - start) for start in range(0, 16, size)]


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
    cfg = ModelConfig(n=3, cutoff=8, theta=theta, target=target)
    sec = models._sectors(cfg)
    model = build_comparison_model(chirality, cfg)
    guard = np.concatenate([sec.guard_even, sec.guard_odd])
    models._theta_free_data.cache_clear()
    floor, _ = models._theta_free(chirality, cfg).outside(model, sec)
    merged, block = models._merged_block(model, sec)
    smallest = min(floor, np.linalg.svd(block[:, guard[merged]], compute_uv=False).min())
    every = np.ones_like(guard)
    assert smallest == min(np.linalg.svd(stack, compute_uv=False).min()
                           for _, _, stack in models._model_stacks(model, sec, every, guard))
    # the same blocks, read from the model's dense matrix
    full = model.matrix().toarray()
    assert np.array_equal(block, full[np.ix_(merged, merged)])
    rest = np.setdiff1d(np.arange(len(guard)), merged)
    assert not full[np.ix_(merged, rest)].any() and not full[np.ix_(rest, merged)].any()
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
    with pytest.raises(ValueError):
        build_comparison_model("sideways", cfg)
    with pytest.raises(ValueError):
        build_boundary_model("sideways", cfg)


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
    dirac = dirac_plus(config).toarray()
    sec = models._sectors(cfg)
    for block, pinv in (
        (dirac[np.ix_(even_idx, odd_idx)], sec.lower_pinv),
        (dirac[np.ix_(odd_idx, even_idx)], sec.raise_pinv),
    ):
        dense = np.linalg.pinv(block, rcond=1e-10)
        assert np.abs(_dense(pinv, dense.shape) - dense).max() <= 1e-12


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
