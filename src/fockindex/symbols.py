"""Boundary symbol calculus on the tangential exterior algebra.

Symbols act on the ``2^(n-1)``-dimensional form space of ``n - 1``
tangential labels, with the basis reordered so the even-degree block comes
first; every matrix then splits into four ``2^(n-2)``-sized blocks.  The
first-order factor ``d1`` is linear in the covector, so it is represented by
``2n`` constant gradient matrices.  The interior symbols ``q_symbol`` and the
Hessian-trace term are the gradient weighted by ``2n`` scalar functions of
the covector that do not depend on the chirality, so a contour integral of
one of them is ``2n`` scalar trapezoid sums combined with the gradient once.

A covector is a real array of shape ``(..., 2n)`` with components laid out as
``(xi1, xi_2..xi_n, xi_contact, xi_{n+2}..xi_{2n})``: ``xi_contact`` is the
distinguished boundary component and ``xi_perp`` the remaining ``2(n-1)``
tangential ones.  Every symbol function broadcasts over the leading axes, so
a stack of covectors gives the stack of their matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from ._forms import EVEN, ODD, _check_parity, contract_matrix, form_subsets, wedge_matrix
from .errors import OffContactLineError, PoleOnContourError, ZeroCovectorError

__all__ = [
    "covector",
    "norm",
    "boundary_norm",
    "perp_norm",
    "HessianData",
    "random_covector",
    "random_covectors",
    "random_hessian",
    "symbol_dimension",
    "sd_matrix",
    "d1_gradient",
    "d1",
    "boundary_isomorphism",
    "calderon_symbol0",
    "comparison_symbol0",
    "q_symbol",
    "q_symbol_integrand",
    "trace_term_integrand",
    "QUADRATURE_NODES",
    "contour_integral",
    "closed_form_trace_contour",
    "closed_form_contact_contour",
    "calderon_symbol_minus1",
]


def covector(xi1: float, xi_contact: float, xi_perp=()) -> np.ndarray:
    """Covector array in the layout documented above."""
    xi_perp = tuple(xi_perp)
    if len(xi_perp) % 2 != 0:
        raise ValueError("xi_perp must hold an even number of components")
    half = len(xi_perp) // 2
    return np.array([xi1, *xi_perp[:half], xi_contact, *xi_perp[half:]], dtype=float)


def _half_length(xi, hess: HessianData | None = None) -> int:
    """n for covectors of 2n components, and for the Hessian data if given."""
    size = np.shape(xi)[-1]
    if size % 2 != 0:
        raise ValueError(f"a covector has an even number of components, got {size}")
    if hess is not None and hess.n != size // 2:
        raise ValueError(f"Hessian is for n = {hess.n}, covector for n = {size // 2}")
    return size // 2


def norm(xi) -> np.ndarray:
    """|xi|: the Euclidean norm of real covectors, over the last axis."""
    # a (1, k) by (k, 1) product takes the BLAS dot that np.linalg.norm takes
    # for one vector, so each row of a stack gets the bits of that norm
    xi = np.ascontiguousarray(xi)
    return np.sqrt((xi[..., None, :] @ xi[..., :, None])[..., 0, 0])


@lru_cache(maxsize=None)
def _perp_slots(n: int) -> np.ndarray:
    """Positions of ``xi_perp`` in a covector of 2n components."""
    return np.delete(np.arange(2 * n), [0, n])


def perp_norm(xi) -> np.ndarray:
    """|xi_perp|: the norm of the tangential components other than the contact one."""
    return norm(np.asarray(xi)[..., _perp_slots(_half_length(xi))])


def boundary_norm(xi) -> np.ndarray:
    """|xi'|: the norm of the components tangent to the boundary."""
    return np.hypot(np.asarray(xi)[..., _half_length(xi)], perp_norm(xi))


def _check_side(side):
    if side not in (+1, -1):
        raise ValueError(f"side must be +1 or -1, got {side!r}")


def symbol_dimension(n: int) -> int:
    if n < 2:
        raise ValueError(f"need n >= 2, got n = {n}")
    return 2 ** (n - 1)


@lru_cache(maxsize=None)
def _parity_signs(n: int) -> np.ndarray:
    """+1 on the even-degree (leading) half, -1 on the odd-degree half."""
    half = symbol_dimension(n) // 2
    return np.repeat([1.0, -1.0], half)


@lru_cache(maxsize=None)
def _sd_gradient(n: int) -> np.ndarray:
    """Constant matrices G with sd(xi) = sum_k xi[k] * G[k], zero in the
    first and contact slots."""
    nv = n - 1
    dim = symbol_dimension(n)
    # a stable sort by degree parity puts the even-degree subsets first
    order = np.argsort([len(s) % 2 for s in form_subsets(nv)], kind="stable")
    out = np.zeros((2 * n, dim, dim), dtype=complex)
    for label in range(1, n):
        e = contract_matrix(nv, label)[np.ix_(order, order)]
        eps = wedge_matrix(nv, label)[np.ix_(order, order)]
        out[label] = 1j * (e - eps)
        out[n + label] = e + eps
    return out


def sd_matrix(xi) -> np.ndarray:
    """Tangential symbol: i xi_perp-linear combination of contractions and wedges."""
    return np.tensordot(xi, _sd_gradient(_half_length(xi)), axes=1)


@lru_cache(maxsize=None)
def d1_gradient(chirality: str, n: int) -> np.ndarray:
    """The 2n constant matrices of the (linear) first-order symbol factor."""
    _check_parity(chirality, "chirality")
    signs = _parity_signs(n)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    sign = 1.0 if chirality == EVEN else -1.0
    # the tangential matrices exchange the halves: this is pi_e G pi_o - pi_o G pi_e
    grad = sign * inv_sqrt2 * (signs[:, None] * _sd_gradient(n))
    grad[0] = sign * 1j * inv_sqrt2 * np.diag(signs)
    grad[n] = -inv_sqrt2 * np.eye(len(signs))
    return grad


def _other(chirality: str) -> str:
    return ODD if chirality == EVEN else EVEN


def d1(chirality: str, xi) -> np.ndarray:
    """First-order symbol factor: linear in the covector, parity-exchanging.

    The covector may be complex, as when ``xi1`` is moved off the real axis.
    """
    return np.tensordot(xi, d1_gradient(chirality, _half_length(xi)), axes=1)


def boundary_isomorphism(chirality: str, side: int, n: int) -> np.ndarray:
    """Diagonal identification of boundary values with interior traces.

    Scales the leading parity block by ``side / sqrt(2)`` and the other block
    by the opposite sign; the roles swap between chiralities.
    """
    _check_parity(chirality, "chirality")
    _check_side(side)
    sign = side if chirality == EVEN else -side
    return np.diag(sign / math.sqrt(2.0) * _parity_signs(n)).astype(complex)


def _with_first_slot(xi, xi1) -> np.ndarray:
    """Complex copies of the covectors ``xi`` with ``xi1``, broadcast against
    their leading axes, in the first slot."""
    xi, xi1 = np.asarray(xi), np.asarray(xi1, dtype=complex)
    out = np.empty(np.broadcast_shapes(xi1.shape, xi.shape[:-1]) + xi.shape[-1:], complex)
    out[...] = xi
    out[..., 0] = xi1
    return out


def _require_boundary(xi_prime) -> np.ndarray:
    """The boundary norms of a stack of boundary covectors, all nonzero."""
    if (np.asarray(xi_prime)[..., 0] != 0.0).any():
        raise ValueError("boundary covector must have xi1 = 0")
    ell = boundary_norm(xi_prime)
    if (ell == 0.0).any():
        raise ZeroCovectorError("boundary covector must be nonzero")
    return ell


def calderon_symbol0(chirality: str, side: int, xi_prime) -> np.ndarray:
    """Order-zero boundary projector symbol for one side of the boundary.

    Built as the opposite-chirality first-order factor evaluated at
    ``xi1 = side * i |xi'|``, scaled by ``1/|xi'|`` and composed with the
    boundary isomorphism.  Idempotent; the two sides sum to the identity.
    """
    _check_parity(chirality, "chirality")
    _check_side(side)
    ell = _require_boundary(xi_prime)
    comps = _with_first_slot(xi_prime, side * 1j * ell)
    core = d1(_other(chirality), comps) / ell[..., None, None]
    return core * np.diagonal(boundary_isomorphism(chirality, side, _half_length(xi_prime)))


def comparison_symbol0(chirality: str, xi_prime) -> np.ndarray:
    """Order-zero comparison symbol: scalar diagonal plus tangential coupling.

    All its singular values coincide.  It vanishes exactly where the
    tangential part is zero and the contact component equals ``-|xi'|``
    (the positive contact direction), and is the identity at ``+|xi'|``.
    """
    _check_parity(chirality, "chirality")
    ell = _require_boundary(xi_prime)[..., None, None]
    n = _half_length(xi_prime)
    # sd exchanges the halves: pi_e sd pi_o - pi_o sd pi_e scales its rows
    off = sd_matrix(xi_prime) * _parity_signs(n)[:, None]
    sign = -1.0 if chirality == EVEN else 1.0
    contact = np.asarray(xi_prime)[..., n, None, None]
    m = (ell + contact) * np.eye(symbol_dimension(n)) + sign * off
    return m / (2.0 * ell)


@dataclass(frozen=True, eq=False)
class HessianData:
    """Quadratic data of a boundary defining function.

    ``a`` is the Hermitian part and ``b`` the symmetric part, complex
    ``n x n``.  ``matrix_a`` is the real ``2n x 2n`` form of ``a``, with
    block pattern ``[[a.real, -a.imag], [a.imag, a.real]]``, which the
    formulas read; ``beta`` is its tangential trace ``tr(A)/2 - A[0, 0]``.
    """

    alpha: float
    a: np.ndarray
    b: np.ndarray
    matrix_a: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        a = np.asarray(self.a, dtype=complex)
        b = np.asarray(self.b, dtype=complex)
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0 or b.shape != a.shape:
            raise ValueError("a and b must be nonempty square matrices of one shape")
        if np.abs(a - a.conj().T).max() > 1e-12 * (1.0 + np.abs(a).max()):
            raise ValueError("a must be Hermitian")
        if np.abs(b - b.T).max() > 1e-12 * (1.0 + np.abs(b).max()):
            raise ValueError("b must be symmetric")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "matrix_a", np.block([[a.real, -a.imag], [a.imag, a.real]]))

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def beta(self) -> float:
        return 0.5 * float(np.trace(self.matrix_a)) - float(self.matrix_a[0, 0])

    @property
    def contact_adapted(self) -> bool:
        """True when the first column of the Hermitian part is zero below its top."""
        return not self.a[1:, 0].any()

    @classmethod
    def kahler(cls, n: int, alpha: float = 1.0) -> "HessianData":
        """Flat model: identity Hermitian part, vanishing symmetric part."""
        return cls(alpha, np.eye(n), np.zeros((n, n)))


def random_covectors(rng, n: int, count: int, boundary: bool = False) -> np.ndarray:
    """A ``(count, 2n)`` stack of seeded covectors with comfortably nonzero norms.

    Each round draws the missing rows in one ``rng.normal`` call, drops the
    rejected ones and tops up, so the stack holds the covectors, and leaves
    the generator in the state, of ``count`` one-row draws.
    """
    kept = np.empty((0, 2 * n))
    while len(kept) < count:
        xi = rng.normal(size=(count - len(kept), 2 * n))
        if boundary:
            xi[:, 0] = 0.0
        kept = np.concatenate([kept, xi[(boundary_norm(xi) > 0.3) & (norm(xi) > 0.3)]])
    return kept


def random_covector(rng, n: int, boundary: bool = False) -> np.ndarray:
    """Seeded covector with comfortably nonzero norms."""
    return random_covectors(rng, n, 1, boundary)[0]


def random_hessian(rng, n: int, contact_adapted: bool = True) -> HessianData:
    """Seeded Hessian data; by default the Hermitian part is contact-adapted."""
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    a = 0.5 * (h + h.conj().T)
    if contact_adapted:
        a[0, 1:] = 0.0
        a[1:, 0] = 0.0
        a[0, 0] = a[0, 0].real
    s = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    b = 0.5 * (s + s.T)
    alpha = float(rng.uniform(0.5, 1.5))
    return HessianData(alpha, a, b)


def _xi_square(comps: np.ndarray) -> np.ndarray:
    # analytic continuation of |xi|^2: a plain sum of squares, no conjugation
    return (comps * comps).sum(axis=-1)


def _contract(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``sum_k a[..., k] * b[k]``, as gradient weights give matrices."""
    flat = a @ b.reshape(len(b), -1)
    return flat.reshape(a.shape[:-1] + b.shape[1:])


def _q_weights(order: int, comps: np.ndarray, hess: HessianData | None) -> np.ndarray:
    """The ``2n`` gradient weights of :func:`q_symbol` at complex covectors."""
    norm_sq = _xi_square(comps)[..., None]
    if (norm_sq == 0).any():
        raise ZeroCovectorError("q-symbol undefined at the zero covector")
    if order == -1:
        return 2.0 * comps / norm_sq
    if order == -2:
        if hess is None:
            raise ValueError("order -2 requires Hessian data")
        _half_length(comps, hess)  # refuses Hessian data of another n
        a_xi = comps @ hess.matrix_a.T
        a_xi_xi = (a_xi * comps).sum(axis=-1)[..., None]
        bracket = (4.0 * a_xi_xi / norm_sq - hess.matrix_a.trace()) * comps - 2.0 * a_xi
        return (2j * hess.alpha) * comps[..., :1] / norm_sq**2 * bracket
    raise ValueError(f"order must be -1 or -2, got {order}")


def q_symbol(order: int, chirality: str, xi,
             hess: HessianData | None = None) -> np.ndarray:
    """Interior expansion symbols: the leading inverse and its Hessian correction.

    ``order = -1`` gives ``2 d1 / |xi|^2``; ``order = -2`` the correction
    ``2 i xi1 alpha (-tr(A) d1 / |xi|^4 + 4 <A xi, xi> d1 / |xi|^6
    - 2 d1(A xi) / |xi|^4)``, which is linear in the Hessian data.  Both are
    the ``d1`` gradient weighted by scalar functions of the covector.
    Kept as the interior parametrix: ``d1(ODD) @ q_symbol(-1, EVEN) = I``.
    """
    comps = np.asarray(xi, dtype=complex)
    weights = _q_weights(order, comps, hess)
    return _contract(weights, d1_gradient(chirality, _half_length(comps)))


def _integrand(weights, chirality: str, xi_prime, hess: HessianData | None):
    """Callable ``xi1 -> matrices``, the ``d1`` gradient weighted by ``weights``
    at ``xi_prime`` with the array ``xi1`` in the first slot; its ``coefficients``
    are the weights alone, for :func:`contour_integral`."""
    ell = _require_boundary(xi_prime)
    gradient = d1_gradient(chirality, _half_length(xi_prime, hess))

    def coefficients(xi1):
        return weights(_with_first_slot(xi_prime, xi1))

    def integrand(xi1):
        return _contract(coefficients(xi1), gradient)

    integrand.coefficients, integrand.gradient = coefficients, gradient
    integrand.poles = (1j * ell, -1j * ell)
    return integrand


def q_symbol_integrand(order: int, chirality: str, xi_prime,
                       hess: HessianData | None = None):
    """Callable ``xi1 -> q_symbol(order, chirality, ., hess)`` for contour
    integration in the first slot of the boundary covectors ``xi_prime``."""
    return _integrand(partial(_q_weights, order, hess=hess), chirality, xi_prime, hess)


def trace_term_integrand(chirality: str, xi_prime, hess: HessianData):
    """Callable ``xi1 -> 2 i xi1 alpha tr(A) d1 / |xi|^4``, the Hessian-trace
    term of the order -2 expansion, whose contour integral has the closed form
    :func:`closed_form_trace_contour`."""
    weight = 2j * hess.alpha * hess.matrix_a.trace()

    def weights(comps):
        return weight * comps[..., :1] / _xi_square(comps)[..., None] ** 2 * comps

    return _integrand(weights, chirality, xi_prime, hess)


QUADRATURE_NODES = 32
"""Trapezoid nodes per contour: the least N with ``N**2 * 4**-N`` below 2**-53.

With ``xi1 = side * i |xi'| + (|xi'| / 2) w`` the integrands' poles, of order
at most 3, sit at ``w = 0`` and ``|w| = 4``.  On N nodes of ``|w| = 1`` the
rule sums the Laurent coefficients ``a_k`` (none below ``k = -2``) of the
integrand times ``d xi1 / d theta`` over the multiples of N, not just ``a_0``
(Trefethen & Weideman, SIAM Review 56, 2014).  The far pole makes ``|a_k|``
about ``k**2 4**-k`` of the integral: 5.5e-17 at N = 32, 2.1e-16 at N = 31.
"""


def contour_integral(integrand, side: int, xi_prime,
                     num_points: int = QUADRATURE_NODES, return_error: bool = False):
    """(1/2 pi) times the contour integral of an integrand of this module.

    The circle has radius ``|xi'|/2`` around ``side * i |xi'|`` and is
    oriented positively for the upper side, negatively for the lower.  The
    trapezoid rule on ``num_points`` nodes (even, at least 6) sums the
    integrand's ``2n`` scalar ``coefficients``, and combines the sums with its
    ``gradient`` once.  Declared ``poles`` must keep off the circle.
    ``xi_prime`` is the covector, or stack of covectors, of the integrand.

    With ``return_error``, also returns an estimate of each matrix's largest
    entry error.  The rule on every other node errs about ``4**(N/2 - 1)``
    times more, so each sum's estimate is the difference of the two rules
    over ``4**(N/2 - 2)`` (a factor 4 to spare) plus a bound on its rounding,
    carried to the entries through the moduli of the gradient.  Rounding in
    the integrand's own values is not counted.
    """
    _check_side(side)
    if not hasattr(integrand, "coefficients"):
        raise TypeError("integrand has no gradient coefficients: build it with "
                        "q_symbol_integrand or trace_term_integrand")
    if num_points < 6 or num_points % 2:
        raise ValueError(f"num_points must be even and at least 6, got {num_points}")
    ell = boundary_norm(xi_prime)
    if (ell == 0.0).any():
        raise ZeroCovectorError("contour undefined for a zero boundary covector")
    center, radius = side * 1j * ell, 0.5 * ell
    poles = np.asarray(getattr(integrand, "poles", ()))
    if poles.size and (np.abs(np.abs(poles - center) - radius) / ell).min() < 1e-6:
        raise PoleOnContourError("a declared pole sits on the quadrature contour")
    unit = np.exp(2j * np.pi * np.arange(num_points) / num_points)
    values = integrand.coefficients(np.multiply.outer(unit, radius) + center)
    if not np.isfinite(values).all():
        raise PoleOnContourError("integrand is singular on the quadrature contour")
    scale = np.asarray(side * 1j * radius / num_points)[..., None]
    sums = _contract(unit, values)
    integral = _contract(scale * sums, integrand.gradient)
    if not return_error:
        return integral
    truncation = np.abs(sums - 2.0 * _contract(unit[::2], values[::2]))
    rounding = num_points * np.finfo(float).eps * np.abs(values).sum(axis=0)
    error = np.abs(scale) * (4.0 ** (2 - num_points // 2) * truncation + rounding)
    return integral, _contract(error, np.abs(integrand.gradient)).max(axis=(-2, -1))


def closed_form_trace_contour(chirality: str, hess: HessianData,
                              xi_prime) -> np.ndarray:
    """Closed form of the contour integral of the Hessian-trace term.

    Equals ``i alpha tr(A) / (2 |xi'|)`` times the first gradient matrix of
    ``d1`` — the same value for both contours.
    """
    ell = _require_boundary(xi_prime)[..., None, None]
    n = _half_length(xi_prime, hess)
    trace_a = float(np.trace(hess.matrix_a))
    return 1j * (hess.alpha * trace_a / (2.0 * ell)) * d1_gradient(chirality, n)[0]


def closed_form_contact_contour(chirality: str, hess: HessianData,
                                xi_prime) -> np.ndarray:
    """Closed form of the full order(-2) contour integral on the contact line.

    Equals ``-i alpha beta / |xi'|`` times the first gradient matrix of
    ``d1``; exact as a full matrix for contact-adapted Hessian data.
    """
    if np.any(perp_norm(xi_prime) != 0.0):
        raise OffContactLineError("closed form only valid on the contact line")
    n = _half_length(xi_prime, hess)
    ell = abs(np.asarray(xi_prime)[..., n, None, None])
    if np.any(ell == 0.0):
        raise ZeroCovectorError("contact covector must be nonzero")
    return -1j * (hess.alpha * hess.beta / ell) * d1_gradient(chirality, n)[0]


def calderon_symbol_minus1(chirality: str, side: int, hess: HessianData,
                           xi_prime) -> np.ndarray:
    """Order(-1) correction of the boundary projector on the contact line.

    The opposite-chirality contour value composed with the boundary
    isomorphism; its matrix is a multiple of the identity.
    Kept as the order -1 term of the Calderon projector, whose two sides cancel.
    """
    core = closed_form_contact_contour(_other(chirality), hess, xi_prime)
    return core * np.diagonal(boundary_isomorphism(chirality, side, _half_length(xi_prime)))
