"""Boundary symbol calculus on the tangential exterior algebra.

Symbols act on the ``2^(n-1)``-dimensional form space of ``n - 1``
tangential labels, with the basis reordered so the even-degree block comes
first; every matrix then splits into four ``2^(n-2)``-sized blocks.  The
first-order factor ``d1`` is linear in the covector, so it is represented by
``2n`` constant gradient matrices; this also makes the Hessian-weighted
symbols and their contour integrals straightforward.

A covector is a real array of shape ``(..., 2n)`` with components laid out as
``(xi1, xi_2..xi_n, xi_contact, xi_{n+2}..xi_{2n})``: ``xi_contact`` is the
distinguished boundary component and ``xi_perp`` the remaining ``2(n-1)``
tangential ones.  Every symbol function broadcasts over the leading axes, so
a stack of covectors gives the stack of their matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import OffContactLineError, PoleOnContourError, ZeroCovectorError
from .spinors import EVEN, ODD, _check_parity, contract_matrix, form_subsets, wedge_matrix

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
    "sector_slices",
    "sd_matrix",
    "d1_gradient",
    "d1",
    "boundary_isomorphism",
    "calderon_symbol0",
    "comparison_symbol0",
    "q_symbol",
    "q_symbol_integrand",
    "trace_term_integrand",
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


def _half_length(xi) -> int:
    """n for covectors of 2n components."""
    size = np.shape(xi)[-1]
    if size % 2 != 0:
        raise ValueError(f"a covector has an even number of components, got {size}")
    return size // 2


def norm(xi) -> np.ndarray:
    """|xi|: the Euclidean norm of real covectors, over the last axis."""
    # a (1, k) by (k, 1) product takes the BLAS dot that np.linalg.norm takes
    # for one vector, so each row of a stack gets the bits of that norm
    xi = np.ascontiguousarray(xi)
    return np.sqrt((xi[..., None, :] @ xi[..., :, None])[..., 0, 0])


def perp_norm(xi) -> np.ndarray:
    """|xi_perp|: the norm of the tangential components other than the contact one."""
    return norm(np.delete(xi, [0, _half_length(xi)], axis=-1))


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
def _form_order(n: int) -> tuple[tuple[int, ...], int]:
    """Permutation putting even-degree subsets first; returns (perm, dim_even)."""
    subsets = form_subsets(n - 1)
    even = [i for i, s in enumerate(subsets) if len(s) % 2 == 0]
    odd = [i for i, s in enumerate(subsets) if len(s) % 2 == 1]
    return tuple(even + odd), len(even)


@lru_cache(maxsize=None)
def _parity_projectors(n: int):
    dim = symbol_dimension(n)
    _, dim_even = _form_order(n)
    pi_e = np.zeros((dim, dim))
    pi_o = np.zeros((dim, dim))
    pi_e[np.arange(dim_even), np.arange(dim_even)] = 1.0
    pi_o[np.arange(dim_even, dim), np.arange(dim_even, dim)] = 1.0
    return pi_e, pi_o


def sector_slices(n: int) -> tuple[slice, slice]:
    """Row/column slices of the even-degree and odd-degree blocks."""
    _, dim_even = _form_order(n)
    return slice(0, dim_even), slice(dim_even, symbol_dimension(n))


def _reordered(n: int, form_op: np.ndarray) -> np.ndarray:
    perm, _ = _form_order(n)
    idx = np.array(perm)
    return form_op[np.ix_(idx, idx)]


@lru_cache(maxsize=None)
def _sd_gradient(n: int) -> np.ndarray:
    """Constant matrices G with sd(xi) = sum_k xi[k] * G[k], zero in the
    first and contact slots."""
    nv = n - 1
    dim = symbol_dimension(n)
    out = np.zeros((2 * n, dim, dim), dtype=complex)
    for label in range(1, n):
        e = _reordered(n, contract_matrix(nv, label))
        eps = _reordered(n, wedge_matrix(nv, label))
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
    dim = symbol_dimension(n)
    pi_e, pi_o = _parity_projectors(n)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    sign = 1.0 if chirality == EVEN else -1.0
    sd_grad = _sd_gradient(n)
    grad = sign * inv_sqrt2 * (pi_e @ sd_grad @ pi_o - pi_o @ sd_grad @ pi_e)
    grad[0] = sign * 1j * inv_sqrt2 * (pi_e - pi_o)
    grad[n] = -inv_sqrt2 * (pi_e + pi_o)
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
    pi_e, pi_o = _parity_projectors(n)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    if chirality == EVEN:
        m = side * inv_sqrt2 * (pi_e - pi_o)
    else:
        m = side * inv_sqrt2 * (pi_o - pi_e)
    return m.astype(complex)


def _with_first_slot(xi, xi1) -> np.ndarray:
    """Complex copies of the covectors ``xi`` with ``xi1`` in the first slot.

    ``xi1`` broadcasts against the leading axes of ``xi``.
    """
    xi = np.asarray(xi)
    xi1 = np.asarray(xi1, dtype=complex)
    shape = np.broadcast_shapes(xi1.shape, xi.shape[:-1]) + xi.shape[-1:]
    out = np.empty(shape, dtype=complex)
    out[...] = xi
    out[..., 0] = xi1
    return out


def _require_boundary(xi_prime) -> np.ndarray:
    """The boundary norms of a stack of boundary covectors, all nonzero."""
    if np.any(np.asarray(xi_prime)[..., 0] != 0.0):
        raise ValueError("boundary covector must have xi1 = 0")
    ell = boundary_norm(xi_prime)
    if np.any(ell == 0.0):
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
    return core @ boundary_isomorphism(chirality, side, _half_length(xi_prime))


def comparison_symbol0(chirality: str, xi_prime) -> np.ndarray:
    """Order-zero comparison symbol: scalar diagonal plus tangential coupling.

    All its singular values coincide.  It vanishes exactly where the
    tangential part is zero and the contact component equals ``-|xi'|``
    (the positive contact direction), and is the identity at ``+|xi'|``.
    """
    _check_parity(chirality, "chirality")
    ell = _require_boundary(xi_prime)[..., None, None]
    n = _half_length(xi_prime)
    pi_e, pi_o = _parity_projectors(n)
    sd = sd_matrix(xi_prime)
    off = pi_e @ sd @ pi_o - pi_o @ sd @ pi_e
    sign = -1.0 if chirality == EVEN else 1.0
    contact = np.asarray(xi_prime)[..., n, None, None]
    m = (ell + contact) * np.eye(symbol_dimension(n)) + sign * off
    return m / (2.0 * ell)


@dataclass(frozen=True, eq=False)
class HessianData:
    """Real quadratic data of a boundary defining function.

    ``matrix_a`` is the symmetric real form of the Hermitian part (block
    pattern ``[[a0, -a1], [a1, a0]]``); ``matrix_b`` the symmetric-complex
    part (``[[b0, -b1], [-b1, -b0]]``).  ``beta`` is the tangential trace
    ``tr(A)/2 - A[0, 0]``.
    """

    alpha: float
    matrix_a: np.ndarray
    matrix_b: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.matrix_a, dtype=float)
        b = np.asarray(self.matrix_b, dtype=float)
        object.__setattr__(self, "matrix_a", a)
        object.__setattr__(self, "matrix_b", b)
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] % 2 != 0:
            raise ValueError("matrix_a must be square with even dimension")
        if b.shape != a.shape:
            raise ValueError("matrix_b must match matrix_a in shape")
        n = a.shape[0] // 2
        scale = 1.0 + np.abs(a).max() + np.abs(b).max()
        tol = 1e-12 * scale
        if np.abs(a - a.T).max() > tol:
            raise ValueError("matrix_a must be symmetric")
        if np.abs(b - b.T).max() > tol:
            raise ValueError("matrix_b must be symmetric")
        if (
            np.abs(a[:n, :n] - a[n:, n:]).max() > tol
            or np.abs(a[:n, n:] + a[n:, :n]).max() > tol
        ):
            raise ValueError("matrix_a must have the [[a0, -a1], [a1, a0]] pattern")
        if (
            np.abs(b[:n, :n] + b[n:, n:]).max() > tol
            or np.abs(b[:n, n:] - b[n:, :n]).max() > tol
        ):
            raise ValueError("matrix_b must have the [[b0, -b1], [-b1, -b0]] pattern")

    @property
    def n(self) -> int:
        return self.matrix_a.shape[0] // 2

    @property
    def beta(self) -> float:
        return 0.5 * float(np.trace(self.matrix_a)) - float(self.matrix_a[0, 0])

    @property
    def contact_adapted(self) -> bool:
        """True when the first complex column of the Hermitian part is trivial."""
        col = self.matrix_a[:, 0].copy()
        col[0] = 0.0
        return bool(np.abs(col).max() == 0.0) if col.size else True

    @classmethod
    def from_complex(cls, alpha: float, a: np.ndarray, b: np.ndarray) -> "HessianData":
        """Assemble the real forms from a Hermitian ``a`` and symmetric ``b``."""
        a = np.asarray(a, dtype=complex)
        b = np.asarray(b, dtype=complex)
        if np.abs(a - a.conj().T).max() > 1e-12 * (1.0 + np.abs(a).max()):
            raise ValueError("a must be Hermitian")
        if np.abs(b - b.T).max() > 1e-12 * (1.0 + np.abs(b).max()):
            raise ValueError("b must be symmetric")
        a0, a1 = a.real, a.imag
        b0, b1 = b.real, b.imag
        big_a = np.block([[a0, -a1], [a1, a0]])
        big_b = np.block([[b0, -b1], [-b1, -b0]])
        return cls(alpha, big_a, big_b)

    @classmethod
    def kahler(cls, n: int, alpha: float = 1.0) -> "HessianData":
        """Flat model: identity Hermitian part, vanishing symmetric part."""
        return cls.from_complex(alpha, np.eye(n), np.zeros((n, n)))


def random_covectors(rng, n: int, count: int, boundary: bool = False,
                     contact: bool = False) -> np.ndarray:
    """A ``(count, 2n)`` stack of seeded covectors with comfortably nonzero norms.

    Each round draws the missing rows in one ``rng.normal`` call, drops the
    rejected ones and tops up, so the stack holds the covectors, and leaves
    the generator in the state, of ``count`` one-row draws.
    """
    kept = np.empty((0, 2 * n))
    while len(kept) < count:
        xi = rng.normal(size=(count - len(kept), 2 * n))
        if contact:
            xi[:, np.arange(2 * n) != n] = 0.0
        elif boundary:
            xi[:, 0] = 0.0
        # both norms of a contact covector are |xi_n|
        kept = np.concatenate([kept, xi[(boundary_norm(xi) > 0.3) & (norm(xi) > 0.3)]])
    return kept


def random_covector(rng, n: int, boundary: bool = False,
                    contact: bool = False) -> np.ndarray:
    """Seeded covector with comfortably nonzero norms."""
    return random_covectors(rng, n, 1, boundary, contact)[0]


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
    return HessianData.from_complex(alpha, a, b)


def _xi_square(components) -> np.ndarray:
    # analytic continuation of |xi|^2: a plain sum of squares, no conjugation
    comps = np.asarray(components)
    return np.sum(comps * comps, axis=-1)


def q_symbol(order: int, chirality: str, xi,
             hess: HessianData | None = None) -> np.ndarray:
    """Interior expansion symbols: the leading inverse and its Hessian correction.

    ``order = -1`` gives ``2 d1 / |xi|^2``; ``order = -2`` the correction that
    is linear in the Hessian data.
    Kept as the interior parametrix: ``d1(ODD) @ q_symbol(-1, EVEN) = I``.
    """
    comps = np.asarray(xi, dtype=complex)
    n = _half_length(comps)
    d1m = d1(chirality, comps)
    norm_sq = _xi_square(comps)[..., None, None]
    if np.any(norm_sq == 0):
        raise ZeroCovectorError("q-symbol undefined at the zero covector")
    if order == -1:
        return 2.0 * d1m / norm_sq
    if order == -2:
        if hess is None:
            raise ValueError("order -2 requires Hessian data")
        if hess.n != n:
            raise ValueError(f"Hessian is for n = {hess.n}, covector for n = {n}")
        a_xi = comps @ hess.matrix_a.T
        trace_a = float(np.trace(hess.matrix_a))
        grad = d1_gradient(chirality, n)
        pairing = np.tensordot(a_xi, grad, axes=1)
        a_xi_xi = np.sum(a_xi * comps, axis=-1)[..., None, None]
        term = (
            -trace_a * d1m / norm_sq**2
            + 4.0 * d1m * a_xi_xi / norm_sq**3
            - 2.0 * pairing / norm_sq**2
        )
        return 2j * comps[..., 0, None, None] * hess.alpha * term
    raise ValueError(f"order must be -1 or -2, got {order}")


def q_symbol_integrand(order: int, chirality: str, xi_prime,
                       hess: HessianData | None = None):
    """Callable ``xi1 -> matrices`` for contour integration in the first slot.

    ``xi1`` is an array of first-slot values; the result stacks one matrix
    per value along the leading axes.
    """
    _check_parity(chirality, "chirality")
    ell = _require_boundary(xi_prime)

    def integrand(xi1):
        return q_symbol(order, chirality, _with_first_slot(xi_prime, xi1), hess)

    integrand.poles = (1j * ell, -1j * ell)
    return integrand


def trace_term_integrand(chirality: str, xi_prime, hess: HessianData):
    """Callable ``xi1 -> 2 i xi1 alpha tr(A) d1 / |xi|^4`` for contour integration.

    The Hessian-trace-weighted piece of the second-order expansion; its
    contour integral has the closed form returned by
    :func:`closed_form_trace_contour`.  Like :func:`q_symbol_integrand`, it
    takes an array of ``xi1`` values and returns a stack of matrices.
    """
    _check_parity(chirality, "chirality")
    ell = _require_boundary(xi_prime)
    trace_a = float(np.trace(hess.matrix_a))
    alpha = hess.alpha

    def integrand(xi1):
        comps = _with_first_slot(xi_prime, xi1)
        weight = 2j * comps[..., 0] * alpha * trace_a / _xi_square(comps) ** 2
        return weight[..., None, None] * d1(chirality, comps)

    integrand.poles = (1j * ell, -1j * ell)
    return integrand


def contour_integral(integrand, side: int, xi_prime,
                     num_points: int = 512) -> np.ndarray:
    """(1/2 pi) times the contour integral of a matrix-valued integrand.

    Integrates over a circle of radius ``|xi'|/2`` around ``side * i |xi'|``,
    positively oriented for the upper circle and negatively for the lower
    one, by the trapezoid rule on ``num_points`` equally spaced nodes.
    ``xi_prime`` is one covector, not a stack.  The integrand is called
    once, with the 1-D array of all nodes, and must return the stack of its
    matrices at those nodes, shape
    ``(num_points, d, d)``.  It must be meromorphic with its poles away from
    the circle; poles it declares through a ``poles`` attribute (the
    integrand factories in this module do) are checked against the
    quadrature nodes.
    """
    _check_side(side)
    ell = boundary_norm(xi_prime)
    if ell == 0.0:
        raise ZeroCovectorError("contour undefined for a zero boundary covector")
    radius = 0.5 * ell
    center = side * 1j * ell
    angles = 2.0 * np.pi * np.arange(num_points) / num_points
    nodes = center + radius * np.exp(1j * angles)
    for pole in getattr(integrand, "poles", (1j * ell, -1j * ell)):
        if np.min(np.abs(nodes - pole)) / ell < 1e-6:
            raise PoleOnContourError(f"pole {pole} sits on the quadrature contour")
    values = np.asarray(integrand(nodes))
    if values.ndim != 3 or values.shape[0] != num_points:
        raise ValueError(
            f"integrand must return a ({num_points}, d, d) stack, got shape "
            f"{values.shape}"
        )
    if not np.all(np.isfinite(values)):
        raise PoleOnContourError("integrand is singular on the quadrature contour")
    orientation = 1.0 if side > 0 else -1.0
    weights = np.exp(1j * angles)
    scale = orientation * (1j * radius / num_points)
    return scale * np.tensordot(weights, values, axes=1)


def closed_form_trace_contour(chirality: str, hess: HessianData,
                              xi_prime) -> np.ndarray:
    """Closed form of the contour integral of the Hessian-trace term.

    Equals ``i alpha tr(A) / (2 |xi'|)`` times the first gradient matrix of
    ``d1`` — the same value for both contours.
    """
    _check_parity(chirality, "chirality")
    ell = _require_boundary(xi_prime)[..., None, None]
    trace_a = float(np.trace(hess.matrix_a))
    grad = d1_gradient(chirality, _half_length(xi_prime))
    return 1j * (hess.alpha * trace_a / (2.0 * ell)) * grad[0]


def closed_form_contact_contour(chirality: str, hess: HessianData,
                                xi_prime) -> np.ndarray:
    """Closed form of the full order(-2) contour integral on the contact line.

    Equals ``-i alpha beta / |xi'|`` times the first gradient matrix of
    ``d1``; exact as a full matrix for contact-adapted Hessian data.
    """
    _check_parity(chirality, "chirality")
    if np.any(perp_norm(xi_prime) != 0.0):
        raise OffContactLineError("closed form only valid on the contact line")
    n = _half_length(xi_prime)
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
    _check_parity(chirality, "chirality")
    _check_side(side)
    core = closed_form_contact_contour(_other(chirality), hess, xi_prime)
    return core @ boundary_isomorphism(chirality, side, _half_length(xi_prime))
