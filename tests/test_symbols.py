"""Symbol-calculus tests.

The n = 2 symbols are small enough to derive by hand; those frozen 2x2
matrices pin every sign convention.  The contour quadrature is checked
against closed forms obtained independently by residue calculus, and the
closed forms are cross-checked against each other through the boundary
isomorphism.  The interior symbols, which the library forms only as contour
integrands, are checked against their formulas, restated from ``d1`` and the
Hessian data in ``library_oracle``; the order -1 Calderon term is composed
there from the contact closed form and the boundary isomorphism.
"""

import numpy as np
import pytest
from library_oracle import calderon_symbol_minus1, q_symbol

from fockindex.errors import (
    OffContactLineError,
    PoleOnContourError,
    ZeroCovectorError,
)
from fockindex.symbols import (
    EVEN,
    ODD,
    QUADRATURE_NODES,
    HessianData,
    boundary_isomorphism,
    boundary_norm,
    calderon_symbol0,
    closed_form_contact_contour,
    closed_form_trace_contour,
    comparison_symbol0,
    contour_integral,
    covector,
    d1,
    d1_gradient,
    norm,
    perp_norm,
    q_symbol_integrand,
    random_covector,
    random_covectors,
    random_hessian,
    sd_matrix,
    symbol_dimension,
    trace_term_integrand,
)
from fockindex.symbols import _sd_gradient

CHIRALITIES = (EVEN, ODD)
SIDES = (+1, -1)


def _contact_ray(n, contact):
    return covector(0.0, contact, (0.0,) * (2 * (n - 1)))


def _interior_q(order, chirality, xi, hess=None):
    """The library's interior symbol at the covectors ``xi``: the integrand
    at their boundary parts, evaluated at their first components."""
    xi_prime = np.array(xi, dtype=float)
    xi_prime[..., 0] = 0.0
    return q_symbol_integrand(order, chirality, xi_prime, hess)(np.asarray(xi)[..., 0])


def test_covector_layout_and_norms():
    xi = covector(1.0, 3.0, (2.0, 4.0))
    assert np.array_equal(xi, [1.0, 2.0, 3.0, 4.0])
    assert norm(xi) == np.linalg.norm(xi) == pytest.approx(np.sqrt(30.0))
    assert boundary_norm(xi) == pytest.approx(np.sqrt(29.0))
    assert perp_norm(xi) == pytest.approx(np.sqrt(20.0))
    stack = np.array([xi, 2.0 * xi])
    assert np.allclose(norm(stack), [np.sqrt(30.0), 2.0 * np.sqrt(30.0)])
    assert np.allclose(boundary_norm(stack), [np.sqrt(29.0), 2.0 * np.sqrt(29.0)])
    assert np.allclose(perp_norm(stack), [np.sqrt(20.0), 2.0 * np.sqrt(20.0)])
    with pytest.raises(ValueError):
        covector(0.0, 1.0, (1.0,))
    with pytest.raises(ValueError):
        boundary_norm(np.zeros(5))


def test_symbol_dimension_and_sector_split():
    assert symbol_dimension(2) == 2
    assert symbol_dimension(3) == 4
    with pytest.raises(ValueError):
        symbol_dimension(1)
    # the even-degree block comes first, and both blocks have half the rows
    assert symbol_dimension(3) // 2 == 2
    plus = boundary_isomorphism(EVEN, +1, 3)
    assert np.array_equal(np.sign(np.diag(plus).real), [1, 1, -1, -1])


def test_sd_n2_frozen_matrix():
    # by hand: contraction/wedge on one label, even-degree state first
    xi2, xi4 = 0.7, -1.3
    expected = np.array([[0.0, 1j * xi2 + xi4], [-1j * xi2 + xi4, 0.0]])
    assert np.abs(sd_matrix(covector(0.0, 0.0, (xi2, xi4))) - expected).max() < 1e-15


def test_sd_self_adjoint_with_scalar_square():
    rng = np.random.default_rng(11)
    for n in (2, 3, 4):
        eye = np.eye(symbol_dimension(n))
        for _ in range(20):
            xp = rng.normal(size=2 * (n - 1))
            sd = sd_matrix(covector(0.0, 0.0, xp))
            assert np.abs(sd - sd.conj().T).max() < 1e-14
            assert np.abs(sd @ sd - np.dot(xp, xp) * eye).max() < 1e-13


def test_d1_n2_frozen_matrix():
    a, b, c, e = 0.9, -0.4, 1.2, 0.3  # xi1, perp0, contact, perp1
    xi = covector(a, c, (b, e))
    s = 1.0 / np.sqrt(2.0)
    even = s * np.array([[1j * a - c, 1j * b + e], [1j * b - e, -1j * a - c]])
    odd = s * np.array([[-1j * a - c, -1j * b - e], [-1j * b + e, 1j * a - c]])
    assert np.abs(d1(EVEN, xi) - even).max() < 1e-15
    assert np.abs(d1(ODD, xi) - odd).max() < 1e-15


def test_d1_factorization_is_scalar():
    rng = np.random.default_rng(23)
    for n in (2, 3, 4):
        eye = np.eye(symbol_dimension(n))
        for _ in range(30):
            xi = random_covector(rng, n)
            half_sq = 0.5 * np.linalg.norm(xi)**2
            oe = d1(ODD, xi) @ d1(EVEN, xi)
            eo = d1(EVEN, xi) @ d1(ODD, xi)
            assert np.abs(oe - half_sq * eye).max() < 1e-12
            assert np.abs(eo - half_sq * eye).max() < 1e-12


def test_d1_gradient_reassembles_d1():
    rng = np.random.default_rng(5)
    xi = random_covector(rng, 3)
    for ch in CHIRALITIES:
        total = np.tensordot(xi, d1_gradient(ch, 3), axes=1)
        assert np.abs(total - d1(ch, xi)).max() == 0.0


def _dense_parity_projectors(n):
    """The even-degree (leading) and odd-degree projectors as dense matrices."""
    even = np.arange(symbol_dimension(n)) < symbol_dimension(n) // 2
    return np.diag(even * 1.0), np.diag(~even * 1.0)


def _d1_gradient_by_projectors(chirality, n):
    pi_e, pi_o = _dense_parity_projectors(n)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    sign = 1.0 if chirality == EVEN else -1.0
    sd_grad = _sd_gradient(n)
    grad = sign * inv_sqrt2 * (pi_e @ sd_grad @ pi_o - pi_o @ sd_grad @ pi_e)
    grad[0] = sign * 1j * inv_sqrt2 * (pi_e - pi_o)
    grad[n] = -inv_sqrt2 * (pi_e + pi_o)
    return grad


def _isomorphism_by_projectors(chirality, side, n):
    pi_e, pi_o = _dense_parity_projectors(n)
    sign = side if chirality == EVEN else -side
    return (sign / np.sqrt(2.0) * (pi_e - pi_o)).astype(complex)


def _comparison_by_projectors(chirality, xi_prime):
    n = xi_prime.shape[-1] // 2
    pi_e, pi_o = _dense_parity_projectors(n)
    ell = boundary_norm(xi_prime)[..., None, None]
    sd = sd_matrix(xi_prime)
    off = pi_e @ sd @ pi_o - pi_o @ sd @ pi_e
    sign = -1.0 if chirality == EVEN else 1.0
    contact = xi_prime[..., n, None, None]
    return ((ell + contact) * np.eye(symbol_dimension(n)) + sign * off) / (2.0 * ell)


def _calderon_by_projectors(chirality, side, xi_prime):
    n = xi_prime.shape[-1] // 2
    ell = boundary_norm(xi_prime)
    comps = xi_prime.astype(complex)
    comps[..., 0] = side * 1j * ell
    core = d1(ODD if chirality == EVEN else EVEN, comps) / ell[..., None, None]
    return core @ _isomorphism_by_projectors(chirality, side, n)


@pytest.mark.parametrize("n", range(2, 8))
def test_parity_signs_equal_the_dense_projector_route(n):
    # scaling by the +-1 parity vector is exact, so the bits agree
    rng = np.random.default_rng(113 + n)
    stack = random_covectors(rng, n, 12, boundary=True).reshape(3, 4, 2 * n)
    stack[0, 0] = _contact_ray(n, -1.5)
    for ch in CHIRALITIES:
        assert np.array_equal(d1_gradient(ch, n), _d1_gradient_by_projectors(ch, n))
        assert np.array_equal(comparison_symbol0(ch, stack), _comparison_by_projectors(ch, stack))
        for side in SIDES:
            assert np.array_equal(boundary_isomorphism(ch, side, n),
                                  _isomorphism_by_projectors(ch, side, n))
            assert np.array_equal(calderon_symbol0(ch, side, stack),
                                  _calderon_by_projectors(ch, side, stack))


def test_boundary_isomorphism_scalars():
    s = 1.0 / np.sqrt(2.0)
    for n in (2, 3):
        half = symbol_dimension(n) // 2
        even_slc, odd_slc = slice(0, half), slice(half, 2 * half)
        eye = np.eye(symbol_dimension(n))
        for ch in CHIRALITIES:
            plus = boundary_isomorphism(ch, +1, n)
            minus = boundary_isomorphism(ch, -1, n)
            tangential = even_slc if ch == EVEN else odd_slc
            normal = odd_slc if ch == EVEN else even_slc
            assert np.allclose(np.diag(plus)[tangential], s)
            assert np.allclose(np.diag(plus)[normal], -s)
            assert np.abs(plus - np.diag(np.diag(plus))).max() == 0.0
            # opposite signs composed: -(1/2) Id
            assert np.abs(plus @ minus + 0.5 * eye).max() < 1e-15
    with pytest.raises(ValueError):
        boundary_isomorphism(EVEN, 2, 2)


def test_calderon0_idempotent_and_complementary():
    rng = np.random.default_rng(31)
    for n in (2, 3):
        eye = np.eye(symbol_dimension(n))
        for _ in range(50):
            xp = random_covector(rng, n, boundary=True)
            for ch in CHIRALITIES:
                plus = calderon_symbol0(ch, +1, xp)
                minus = calderon_symbol0(ch, -1, xp)
                assert np.abs(plus @ plus - plus).max() < 1e-12
                assert np.abs(minus @ minus - minus).max() < 1e-12
                assert np.abs(plus + minus - eye).max() < 1e-12


def test_calderon0_zero_homogeneous():
    rng = np.random.default_rng(37)
    xp = random_covector(rng, 3, boundary=True)
    base = calderon_symbol0(ODD, +1, xp)
    for lam in (0.25, 4.0, 117.0):
        assert np.abs(calderon_symbol0(ODD, +1, lam * xp) - base).max() < 1e-12


def test_calderon0_contact_ray_block_structure():
    # on the ray with negative contact component, the even projector for
    # the upper side keeps exactly the even-degree block
    for n in (2, 3):
        dim = symbol_dimension(n)
        even_slc, odd_slc = slice(0, dim // 2), slice(dim // 2, dim)
        pos_dir = calderon_symbol0(EVEN, +1, _contact_ray(n, -2.0))
        expected = np.zeros((dim, dim))
        expected[even_slc, even_slc] = np.eye(dim // 2)
        assert np.abs(pos_dir - expected).max() < 1e-14
        neg_dir = calderon_symbol0(EVEN, +1, _contact_ray(n, 2.0))
        flipped = np.zeros((dim, dim))
        flipped[odd_slc, odd_slc] = np.eye(dim // 2)
        assert np.abs(neg_dir - flipped).max() < 1e-14


def test_calderon0_rejects_bad_covectors():
    with pytest.raises(ZeroCovectorError):
        calderon_symbol0(EVEN, +1, covector(0.0, 0.0, (0.0, 0.0)))
    with pytest.raises(ValueError):
        calderon_symbol0(EVEN, +1, covector(1.0, 1.0, (0.0, 0.0)))


def test_comparison_symbol_has_equal_singular_values():
    rng = np.random.default_rng(41)
    for n in (2, 3):
        for _ in range(50):
            xp = random_covector(rng, n, boundary=True)
            ell = boundary_norm(xp)
            expected = np.sqrt((ell + xp[n]) ** 2 + perp_norm(xp)**2) / (2 * ell)
            for ch in CHIRALITIES:
                sv = np.linalg.svd(comparison_symbol0(ch, xp), compute_uv=False)
                assert np.abs(sv - expected).max() < 1e-12
                if perp_norm(xp) > 0:
                    assert sv.min() > 0


def test_comparison_symbol_degenerates_only_on_one_ray():
    for n in (2, 3):
        eye = np.eye(symbol_dimension(n))
        for ch in CHIRALITIES:
            vanishing = comparison_symbol0(ch, _contact_ray(n, -2.0))
            assert np.abs(vanishing).max() < 1e-15
            full = comparison_symbol0(ch, _contact_ray(n, 2.0))
            assert np.abs(full - eye).max() < 1e-15


def test_q_minus1_is_right_inverse_of_d1():
    rng = np.random.default_rng(43)
    for n in (2, 3):
        eye = np.eye(symbol_dimension(n))
        for _ in range(20):
            xi = random_covector(rng, n)
            assert np.abs(d1(ODD, xi) @ _interior_q(-1, EVEN, xi) - eye).max() < 1e-12
            assert np.abs(d1(EVEN, xi) @ _interior_q(-1, ODD, xi) - eye).max() < 1e-12


def test_q_minus2_scaling_and_hessian_linearity():
    rng = np.random.default_rng(47)
    n = 3
    xi = random_covector(rng, n)
    hess = random_hessian(rng, n)
    none = HessianData(hess.alpha, np.zeros((n, n)), np.zeros((n, n)))
    for ch in CHIRALITIES:
        base = _interior_q(-2, ch, xi, hess)
        scaled = _interior_q(-2, ch, 1.7 * xi, hess)
        assert np.abs(scaled - base / 1.7**2).max() < 1e-12
        assert np.abs(_interior_q(-2, ch, xi, none)).max() == 0.0
    with pytest.raises(ValueError, match="order must be -1 or -2"):
        _interior_q(-3, EVEN, xi, hess)
    with pytest.raises(ValueError, match="order -2 requires Hessian data"):
        _interior_q(-2, EVEN, xi)
    # |xi|^2 continued to complex xi1 vanishes at the poles xi1 = +-i |xi'|
    with pytest.raises(ZeroCovectorError):
        q_symbol_integrand(-1, EVEN, _contact_ray(n, 1.0))(1j)


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("order", [-1, -2])
def test_the_q_symbol_names_the_pole_it_is_evaluated_at(order, side):
    # |xi|^2 continued to complex xi1 vanishes at xi1 = +-i |xi'| for a
    # nonzero boundary covector, never at the zero covector
    rng = np.random.default_rng(5)
    xp = covector(0.0, 1.5, (0.0, 2.0, 0.0, 0.0))
    integrand = q_symbol_integrand(order, EVEN, xp, random_hessian(rng, 3))
    with pytest.raises(ZeroCovectorError, match=r"poles xi1 = \+-i \|xi'\|") as caught:
        integrand(side * 2.5j)
    assert "zero covector" not in str(caught.value)
    assert np.isfinite(integrand(side * 2.4j)).all()


@pytest.mark.parametrize("n", [2, 3, 5])
def test_the_interior_symbols_match_their_formulas(n):
    rng = np.random.default_rng(61 + n)
    for _ in range(10):
        xp = random_covector(rng, n, boundary=True)
        hess = random_hessian(rng, n, contact_adapted=False)
        # a node of a contour integral: on the circle of radius |xi'|/2
        # around i |xi'|
        ell = boundary_norm(xp)
        xi1 = 1j * ell + 0.5 * ell * np.exp(2j * np.pi * rng.uniform())
        xi = xp.astype(complex)
        xi[0] = xi1
        for ch in CHIRALITIES:
            for order, data in ((-1, None), (-2, hess)):
                ours = q_symbol_integrand(order, ch, xp, data)(xi1)
                oracle = q_symbol(order, ch, xi, data)
                assert np.abs(ours - oracle).max() <= 1e-13 * np.abs(oracle).max()


def test_hessian_data_structure_and_beta():
    a = np.array([[2.0, 1j], [-1j, 5.0]])
    b = np.array([[0.5, 1.0 - 2j], [1.0 - 2j, -3.0]])
    hess = HessianData(1.25, a, b)
    assert hess.n == 2
    assert hess.beta == pytest.approx(5.0)  # tr(A)/2 - A[0,0] = 7 - 2
    assert not hess.contact_adapted
    adapted = HessianData(1.0, np.diag([2.0, 5.0]), np.zeros((2, 2)))
    assert adapted.contact_adapted
    kahler = HessianData.kahler(3, alpha=1.0)
    assert kahler.beta == pytest.approx(2.0)
    assert kahler.contact_adapted


def test_hessian_data_refuses_bad_parts():
    eye, zero = np.eye(2), np.zeros((2, 2))
    with pytest.raises(ValueError, match="Hermitian"):
        HessianData(1.0, np.array([[0.0, 1.0], [0.0, 0.0]]), zero)
    # symmetric but not Hermitian
    with pytest.raises(ValueError, match="Hermitian"):
        HessianData(1.0, np.array([[1.0, 1j], [1j, 1.0]]), zero)
    # Hermitian but not symmetric
    with pytest.raises(ValueError, match="b must be symmetric"):
        HessianData(1.0, eye, np.array([[0.0, 1j], [-1j, 0.0]]))
    with pytest.raises(ValueError, match="one shape"):
        HessianData(1.0, eye, np.zeros((3, 3)))
    for a in (np.ones((2, 3)), np.ones(2), np.zeros((0, 0))):
        with pytest.raises(ValueError, match="square matrices"):
            HessianData(1.0, a, np.zeros_like(a))
    for alpha in (0.0, -1.0):
        with pytest.raises(ValueError, match="alpha"):
            HessianData(alpha, eye, zero)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["alpha", "a", "b"])
def test_hessian_data_refuses_a_non_finite_part_by_name(field, value):
    # NaN passes the positivity and the Hermitian and symmetric gates
    parts = {"alpha": 1.0, "a": np.eye(2), "b": np.zeros((2, 2))}
    parts[field] = value if field == "alpha" else np.diag([1.0, value])
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        HessianData(**parts)


@pytest.mark.parametrize("field", ["alpha", "a", "b"])
def test_hessian_data_refuses_an_integer_too_large_for_a_float_by_name(field):
    parts = {"alpha": 1.0, "a": [[1, 0], [0, 1]], "b": [[0, 0], [0, 0]]}
    parts[field] = 10**400 if field == "alpha" else [[10**400, 0], [0, 1]]
    with pytest.raises(ValueError, match=f"^{field} must be finite, got an integer too large"):
        HessianData(**parts)


def _stacked(items):
    """The Hessian data of ``items`` as one stack."""
    return HessianData(*(np.array([getattr(h, name) for h in items])
                         for name in ("alpha", "a", "b")))


def test_a_hessian_stack_refuses_what_its_items_refuse():
    eye, zero = np.eye(2), np.zeros((2, 2))
    refused = [
        (1.0, np.array([[0.0, 1.0], [0.0, 0.0]]), zero),
        # asymmetric at 1e-10: refused at its own scale, not at the stack's 1e4
        (1.0, np.array([[0.0, 1e-10], [0.0, 0.0]]), zero),
        (1.0, eye, np.array([[0.0, 1j], [-1j, 0.0]])),
        (0.0, eye, zero),
        (-1.0, eye, zero),
    ]
    for alpha, a, b in refused:
        with pytest.raises(ValueError) as alone:
            HessianData(alpha, a, b)
        items = [(1.0, eye, zero), (alpha, a, b), (0.5, 1e4 * eye, zero)]
        with pytest.raises(ValueError) as stacked:
            HessianData(*(np.array(part) for part in zip(*items)))
        assert str(stacked.value) == str(alone.value)
    with pytest.raises(ValueError, match="alpha of shape"):
        HessianData(np.ones(3), np.array([eye, eye]), np.array([zero, zero]))
    stack = _stacked([HessianData.kahler(3)] * 2)
    xp = np.array([covector(0.0, 1.0, (0.5, 0.0))] * 2)
    for call in (lambda: trace_term_integrand(EVEN, xp, stack),
                 lambda: closed_form_trace_contour(EVEN, stack, xp),
                 lambda: closed_form_contact_contour(EVEN, stack, _contact_ray(2, 1.0)),
                 lambda: q_symbol_integrand(-2, EVEN, xp, stack)(0.3)):
        with pytest.raises(ValueError, match="Hessian is for n = 3, covector for n = 2"):
            call()
    # an integrand's covectors carry the stack's axes, ahead of the nodes
    with pytest.raises(ValueError, match="stack the covectors too"):
        trace_term_integrand(EVEN, xp[0], _stacked([HessianData.kahler(2)] * 2))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_a_hessian_stack_gives_the_values_of_its_items_alone(n):
    rng = np.random.default_rng(109 + n)
    items = [HessianData.kahler(n), random_hessian(rng, n, contact_adapted=False),
             random_hessian(rng, n)]
    stack = _stacked(items)
    for name in ("alpha", "a", "b", "matrix_a", "trace", "beta", "contact_adapted"):
        assert np.array_equal(getattr(stack, name), [getattr(h, name) for h in items])
    boundary = random_covectors(rng, n, len(items), boundary=True)
    free = random_covectors(rng, n, len(items))
    contact = np.array([_contact_ray(n, c) for c in (-1.3, 0.7, 1.9)])
    for ch in CHIRALITIES:
        # each value at the stack (index ...) and at one item (index i)
        values = [
            lambda h, i: closed_form_trace_contour(ch, h, boundary[i]),
            lambda h, i: closed_form_contact_contour(ch, h, contact[i]),
            lambda h, i: calderon_symbol_minus1(ch, -1, h, contact[i]),
            lambda h, i: _interior_q(-2, ch, free[i], h),
        ]
        for side in SIDES:
            values += [
                lambda h, i, side=side: contour_integral(
                    trace_term_integrand(ch, boundary[i], h), side, boundary[i],
                    return_error=True),
                lambda h, i, side=side: contour_integral(
                    q_symbol_integrand(-2, ch, contact[i], h), side, contact[i],
                    return_error=True),
            ]
        for value in values:
            whole = value(stack, ...)
            for index, hess in enumerate(items):
                alone = value(hess, index)
                if isinstance(alone, tuple):
                    assert all(np.array_equal(w[index], a) for w, a in zip(whole, alone))
                else:
                    assert np.array_equal(whole[index], alone)


def _real_form_by_concatenation(a):
    """The real form of a Hermitian matrix, assembled by concatenating its blocks."""
    a0, a1 = a.real, a.imag
    return np.concatenate([np.concatenate([a0, -a1], 1), np.concatenate([a1, a0], 1)])


@pytest.mark.parametrize("n", range(2, 8))
def test_real_form_equals_the_concatenated_blocks(n):
    rng = np.random.default_rng(101 + n)
    for hess in (random_hessian(rng, n), random_hessian(rng, n, contact_adapted=False),
                 HessianData.kahler(n)):
        assert np.array_equal(hess.matrix_a, _real_form_by_concatenation(hess.a))
        assert hess.matrix_a.dtype == float


def test_random_generators_respect_flags():
    rng = np.random.default_rng(53)
    for n in (2, 3):
        xb = random_covector(rng, n, boundary=True)
        assert xb[0] == 0.0 and boundary_norm(xb) > 0.3
        hess = random_hessian(rng, n)
        assert hess.contact_adapted
        free = random_hessian(rng, n, contact_adapted=False)
        assert free.matrix_a.shape == (2 * n, 2 * n)


def test_contour_reproduces_order_zero_projector():
    rng = np.random.default_rng(59)
    for n in (2, 3):
        for _ in range(5):
            xp = random_covector(rng, n, boundary=True)
            for ch in CHIRALITIES:
                source = ODD if ch == EVEN else EVEN
                for side in SIDES:
                    quad = contour_integral(q_symbol_integrand(-1, source, xp), side, xp)
                    composed = quad @ boundary_isomorphism(ch, side, n)
                    direct = calderon_symbol0(ch, side, xp)
                    assert np.abs(composed - direct).max() < 1e-12


def test_contour_trace_term_closed_form():
    rng = np.random.default_rng(61)
    for n in (2, 3):
        for _ in range(5):
            xp = random_covector(rng, n, boundary=True)
            hess = random_hessian(rng, n, contact_adapted=False)
            for ch in CHIRALITIES:
                closed = closed_form_trace_contour(ch, hess, xp)
                scale = np.abs(closed).max()
                for side in SIDES:
                    quad = contour_integral(trace_term_integrand(ch, xp, hess), side, xp)
                    assert np.abs(quad - closed).max() / scale < 1e-10


def test_contour_contact_line_closed_form():
    rng = np.random.default_rng(67)
    for n in (2, 3):
        for sign in (-1.0, 1.0):
            xp = _contact_ray(n, sign * float(rng.uniform(0.5, 2.0)))
            hess = random_hessian(rng, n)
            for ch in CHIRALITIES:
                closed = closed_form_contact_contour(ch, hess, xp)
                scale = np.abs(closed).max()
                for side in SIDES:
                    quad = contour_integral(q_symbol_integrand(-2, ch, xp, hess), side, xp)
                    assert np.abs(quad - closed).max() / scale < 1e-10


def test_contact_closed_form_needs_the_contact_line():
    hess = HessianData.kahler(3)
    with pytest.raises(OffContactLineError):
        closed_form_contact_contour(EVEN, hess, covector(0.0, 1.0, (0.1, 0.0, 0.0, 0.0)))
    with pytest.raises(ZeroCovectorError):
        closed_form_contact_contour(EVEN, hess, covector(0.0, 0.0, (0.0,) * 4))


def test_a_hessian_for_another_n_is_refused():
    hess = HessianData.kahler(3)
    xp = covector(0.0, 1.0, (0.5, 0.0))
    calls = (
        lambda: trace_term_integrand(EVEN, xp, hess),
        lambda: closed_form_trace_contour(EVEN, hess, xp),
        lambda: closed_form_contact_contour(EVEN, hess, _contact_ray(2, 1.0)),
        lambda: q_symbol_integrand(-2, EVEN, xp, hess)(0.5j),
    )
    for call in calls:
        with pytest.raises(ValueError, match="Hessian is for n = 3, covector for n = 2"):
            call()


def test_minus1_correction_is_scalar_and_cancels_in_the_sum():
    rng = np.random.default_rng(71)
    for n in (2, 3):
        eye = np.eye(symbol_dimension(n))
        for sign in (-1.0, 1.0):
            xp = _contact_ray(n, sign * 1.3)
            hess = random_hessian(rng, n)
            ell = boundary_norm(xp)
            for ch in CHIRALITIES:
                plus = calderon_symbol_minus1(ch, +1, hess, xp)
                minus = calderon_symbol_minus1(ch, -1, hess, xp)
                expected = -(hess.alpha * hess.beta / (2 * ell)) * eye
                assert np.abs(plus - expected).max() < 1e-13
                assert np.abs(plus + minus).max() == 0.0


def test_minus1_matches_contour_through_the_isomorphism():
    rng = np.random.default_rng(73)
    n = 3
    xp = _contact_ray(n, -0.9)
    hess = random_hessian(rng, n)
    for ch in CHIRALITIES:
        source = ODD if ch == EVEN else EVEN
        for side in SIDES:
            quad = contour_integral(q_symbol_integrand(-2, source, xp, hess), side, xp)
            composed = quad @ boundary_isomorphism(ch, side, n)
            direct = calderon_symbol_minus1(ch, side, hess, xp)
            assert np.abs(composed - direct).max() < 1e-10


def test_minus1_scales_linearly_in_beta():
    xp = _contact_ray(2, -1.0)
    single = calderon_symbol_minus1(EVEN, +1, HessianData.kahler(2), xp)
    doubled = calderon_symbol_minus1(
        EVEN, +1, HessianData(1.0, 2.0 * np.eye(2), np.zeros((2, 2))), xp
    )
    assert np.abs(doubled - 2.0 * single).max() < 1e-15


def _contour_by_node(integrand, side, xi_prime, num_points=512):
    """Reference trapezoid rule: one matrix integrand call per node."""
    ell = boundary_norm(xi_prime)
    radius = 0.5 * ell
    angles = 2.0 * np.pi * np.arange(num_points) / num_points
    nodes = side * 1j * ell + radius * np.exp(1j * angles)
    values = np.array([integrand(complex(z)) for z in nodes])
    weighted = np.tensordot(np.exp(1j * angles), values, axes=1)
    return side * (1j * radius / num_points) * weighted


def _integrands(ch, xp, hess):
    return (
        q_symbol_integrand(-1, ch, xp),
        q_symbol_integrand(-2, ch, xp, hess),
        trace_term_integrand(ch, xp, hess),
    )


@pytest.mark.parametrize("n", range(2, 8))
def test_batched_contour_matches_per_node_loop(n):
    # the coefficient sums on QUADRATURE_NODES nodes against matrices summed
    # node by node on 512
    rng = np.random.default_rng(79 + n)
    xp = random_covector(rng, n, boundary=True)
    hess = random_hessian(rng, n, contact_adapted=False)
    for ch in CHIRALITIES:
        for integrand in _integrands(ch, xp, hess):
            for side in SIDES:
                batched = contour_integral(integrand, side, xp)
                looped = _contour_by_node(integrand, side, xp)
                scale = np.abs(looped).max()
                assert np.abs(batched - looped).max() <= 1e-13 * scale


def test_node_count_is_the_least_below_half_an_ulp():
    def bound(nodes):
        return nodes**2 * 4.0**-nodes

    assert bound(QUADRATURE_NODES) <= 2.0**-53 < bound(QUADRATURE_NODES - 1)


@pytest.mark.parametrize("n", range(2, 8))
def test_error_estimate_bounds_the_change_from_twice_the_nodes(n):
    rng = np.random.default_rng(89 + n)
    hess = random_hessian(rng, n, contact_adapted=False)
    covectors = [random_covector(rng, n, boundary=True) for _ in range(3)]
    covectors.append(_contact_ray(n, float(rng.uniform(0.5, 2.0))))
    for xp in covectors:
        for ch in CHIRALITIES:
            for integrand in _integrands(ch, xp, hess):
                for side in SIDES:
                    for nodes in (8, 16, 24, QUADRATURE_NODES):
                        quad, estimate = contour_integral(
                            integrand, side, xp, nodes, return_error=True)
                        assert np.array_equal(
                            quad, contour_integral(integrand, side, xp, nodes))
                        finer = contour_integral(integrand, side, xp, 2 * nodes)
                        assert np.abs(quad - finer).max() <= estimate
                    # at the default count the estimate is down at rounding
                    assert estimate <= 1e-12 * np.abs(quad).max()


def test_contour_rejects_integrand_without_coefficients():
    xp = covector(0.0, 1.0, (0.0, 0.0))
    with pytest.raises(TypeError, match="coefficients"):
        contour_integral(lambda z: np.eye(2), +1, xp)
    for nodes in (4, 31):
        with pytest.raises(ValueError, match="num_points"):
            contour_integral(q_symbol_integrand(-1, EVEN, xp), +1, xp, nodes)


def test_contour_rejects_declared_pole_on_the_nodes():
    xp = covector(0.0, 1.0, (0.0, 0.0))
    integrand = q_symbol_integrand(-1, EVEN, xp)
    integrand.poles = (1.5j,)  # lands exactly on the top of the upper circle
    with pytest.raises(PoleOnContourError):
        contour_integral(integrand, +1, xp)
    with pytest.raises(ZeroCovectorError):
        contour_integral(integrand, +1, covector(0.0, 0.0, (0.0, 0.0)))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_contour_of_a_stack_gives_the_contours_of_its_rows(n):
    rng = np.random.default_rng(97 + n)
    stack = random_covectors(rng, n, 6, boundary=True).reshape(2, 3, 2 * n)
    hess = random_hessian(rng, n, contact_adapted=False)
    dim = symbol_dimension(n)
    for ch in CHIRALITIES:
        for kind in range(3):
            for side in SIDES:
                # leading shapes (2, 3) and (3,)
                for covectors in (stack, stack[1]):
                    integrand = _integrands(ch, covectors, hess)[kind]
                    whole, estimates = contour_integral(
                        integrand, side, covectors, return_error=True)
                    assert whole.shape == covectors.shape[:-1] + (dim, dim)
                    assert estimates.shape == covectors.shape[:-1]
                    for index in np.ndindex(covectors.shape[:-1]):
                        row = covectors[index]
                        one, estimate = contour_integral(
                            _integrands(ch, row, hess)[kind], side, row,
                            return_error=True)
                        assert np.abs(whole[index] - one).max() <= 1e-15 * np.abs(one).max()
                        assert estimates[index] == pytest.approx(estimate, rel=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_a_stack_gives_the_matrices_of_its_rows(n):
    rng = np.random.default_rng(83 + n)
    free = np.array([[random_covector(rng, n) for _ in range(3)] for _ in range(2)])
    boundary = np.array(
        [[random_covector(rng, n, boundary=True) for _ in range(3)] for _ in range(2)]
    )
    hess = random_hessian(rng, n, contact_adapted=False)
    symbols = [(free, norm), (boundary, boundary_norm), (boundary, perp_norm),
               (free, sd_matrix), (boundary, sd_matrix)]
    for ch in CHIRALITIES:
        symbols += [
            (free, lambda xi, ch=ch: d1(ch, xi)),
            (free, lambda xi, ch=ch: _interior_q(-1, ch, xi)),
            (free, lambda xi, ch=ch: _interior_q(-2, ch, xi, hess)),
            (boundary, lambda xi, ch=ch: comparison_symbol0(ch, xi)),
        ]
        for side in SIDES:
            symbols.append((boundary, lambda xi, ch=ch, side=side:
                            calderon_symbol0(ch, side, xi)))
    for stack, symbol in symbols:
        # leading shapes (2, S) and (S,); each row has the leading shape ()
        for covectors in (stack, stack[1]):
            whole = symbol(covectors)
            for index in np.ndindex(covectors.shape[:-1]):
                row = symbol(covectors[index])
                assert whole[index].shape == row.shape
                assert np.abs(whole[index] - row).max() <= 1e-15 * np.abs(row).max()


def _one_covector_per_draw(rng, n, kind):
    """The rejection loop of a single covector, one ``rng.normal`` per try."""
    while True:
        xi = rng.normal(size=2 * n)
        if kind == "boundary":
            xi[0] = 0.0
        if boundary_norm(xi) > 0.3 and norm(xi) > 0.3:
            return xi


@pytest.mark.parametrize("kind", ["free", "boundary"])
@pytest.mark.parametrize("n", range(2, 8))
def test_bulk_covector_draws_equal_one_draw_per_covector(n, kind):
    flags = {"boundary": kind == "boundary"}
    for seed in range(50):
        for count in (1, 7, 64):
            bulk = np.random.default_rng(seed)
            single = np.random.default_rng(seed)
            stack = random_covectors(bulk, n, count, **flags)
            rows = [_one_covector_per_draw(single, n, kind) for _ in range(count)]
            assert np.array_equal(stack, np.array(rows))
            # the same generator state afterwards
            assert bulk.bit_generator.state == single.bit_generator.state
        assert np.array_equal(
            random_covector(np.random.default_rng(seed), n, **flags),
            _one_covector_per_draw(np.random.default_rng(seed), n, kind),
        )
