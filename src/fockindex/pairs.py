"""Projector pairs, comparison operators, and relative indices.

Everything here is finite-dimensional: a pair of idempotents (P, R) on the
same space determines the comparison operator T = RP + (I-R)(I-P), and the
relative index of the pair is computed three independent ways — by kernel
dimensions of the restricted map, by the remainder-trace formula through a
parametrix, and by the brute-force rank difference.  The three must agree;
the trace route is exactly parametrix-independent, so arbitrary finite
perturbations of the parametrix change nothing.

A projector is held as orthonormal bases of its four subspaces, taken from
the one factorisation that made it, and its complement swaps them.  The
kernel route then needs one SVD of the small overlap coimage(R)* image(P),
whose singular values are cosines of principal angles, and none for two
coordinate projectors.  The trace and rank routes are dense, and take one
pair or a stack of pairs: a pair holds the matrices of P and R, T and its
parametrix U, and derives K1 = I - TU and K2 = I - UT on each read.

The parametrix is T* when every projector of the pair, or of the stack, is
self-adjoint, and the truncated pseudo-inverse of T otherwise.  Both are
sound: T = I + (R-P)(2P-I) is the identity plus a compact operator when R - P
is compact, and then so is T*, so I - T*T and I - TT* are compact.  For
orthogonal P and R, T* = PR + (I-P)(I-R) is the comparison operator of the
reversed pair (Avron, Seiler and Simon, "The index of a pair of
projections", 1994), and it needs no factorisation.  Its remainders round
like dim * eps * ||T||^2: nothing for orthogonal P and R, where ||T|| <= 1,
but enough to reach the integrality gate for oblique pairs of large norm,
which take the pseudo-inverse.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    AdmissibilityError,
    DimensionMismatchError,
    IllConditionedKernelError,
    NonIntegerTraceError,
)

__all__ = [
    "Projector",
    "ProjectorPair",
    "TraceIndex",
    "kernel_index",
    "relative_index_trace",
    "relative_index_rank",
    "logarithmic_property",
    "toeplitz_winding",
    "agranovich_dynin_shadow",
    "random_projector",
    "coordinate_projector",
]

_IDEMPOTENT_TOL = 1e-12
_RANK_THRESHOLD = 1e-10
_GAP = (1e-12, 1e-8)
_INTEGRALITY_TOL = 1e-6
_EPS = float(np.finfo(float).eps)


def _gap_checked_rank(svals: np.ndarray, context: str, floor: float = _GAP[0]) -> int:
    """Count of singular values above the gap [floor, _GAP[1]].

    Refuses to answer when a singular value falls inside the gap.  A
    projector's own singular values are 0 or at least 1, so its SVD raises
    ``floor`` to the rounding bound of its entries (the gap then may close
    to that one point); the cosines of an overlap keep the absolute gap.
    """
    top = max(floor, _GAP[1])
    ambiguous = svals[(svals >= floor) & (svals <= top)]
    if ambiguous.size:
        raise IllConditionedKernelError(
            f"singular value {ambiguous[0]:.3e} of {context} falls in the "
            f"undecidable gap [{floor:.0e}, {top:.0e}]"
        )
    return int((svals > top).sum())


def _rank_with_gap(matrix: np.ndarray, context: str) -> int:
    """Numerical rank; refuses to answer when a singular value is ambiguous."""
    if matrix.size == 0:
        return 0
    return _gap_checked_rank(np.linalg.svd(matrix, compute_uv=False), context)


def _adjoint(matrix: np.ndarray) -> np.ndarray:
    """The conjugate transpose of each matrix over the last two axes."""
    return np.swapaxes(matrix.conj(), -1, -2)


def _truncated_pinv(matrix: np.ndarray) -> np.ndarray:
    """Pseudo-inverse with an absolute singular-value cutoff, over leading axes.

    numpy's rcond is relative to the largest singular value, which would
    happily invert a matrix made of pure rounding noise (every entry tiny);
    an absolute cutoff keeps the parametrix of a numerically-zero
    comparison operator at zero instead.  A stack takes one stacked SVD.
    """
    u, svals, vh = np.linalg.svd(matrix)
    keep = svals > _RANK_THRESHOLD
    inverted = np.zeros_like(svals)
    inverted[keep] = 1.0 / svals[keep]
    return (_adjoint(vh) * inverted[..., None, :]) @ _adjoint(u)


def _idempotency_tolerance(m: np.ndarray) -> float:
    """Gate on max |P^2 - P|: the rounding bound of the product, floored.

    Entry (i, j) of the computed P @ P is off by at most about
    dim * eps * |row i| * |column j|, and each of those norms is at most
    ||P||, so this is eps * ||P||^2 * dim measured with norms that cost no
    factorisation.  Every row and column of an orthogonal projector has
    norm at most one, so for it the fixed floor governs below dimension
    4500; only oblique projectors with large entries get a wider gate.
    """
    squared = m.real**2 + m.imag**2
    rows = math.sqrt(squared.sum(axis=1).max(initial=0.0))
    columns = math.sqrt(squared.sum(axis=0).max(initial=0.0))
    return max(_IDEMPOTENT_TOL, m.shape[0] * _EPS * rows * columns)


def _check_defect(defect: np.ndarray, tolerance: float, what: str) -> None:
    worst = np.abs(defect).max(initial=0.0)
    if worst > tolerance:
        raise AdmissibilityError(
            f"matrix is not idempotent: max |{what}| = {worst:.3e} "
            f"exceeds {tolerance:.3e}"
        )


class Projector:
    """A square idempotent P, not necessarily orthogonal, held as its bases.

    ``image`` spans range P, ``coimage`` range P*, ``kernel`` ker P and
    ``cokernel`` ker P*, each with orthonormal columns; a self-adjoint
    projector shares one array between image and coimage.
    ``Projector(matrix)`` gates the matrix on max |P^2 - P| and takes all
    four from one SVD; other builders put what they hold in the instance
    dict, where ``cached_property`` finds it, and the rest is formed on
    first read.
    """

    support = None  # boolean mask of a coordinate projector's axes

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatchError(f"projector must be square, got {m.shape}")
        tolerance = _idempotency_tolerance(m)
        _check_defect(m @ m - m, tolerance, "P^2 - P")
        u, svals, vh = np.linalg.svd(m)
        rank = _gap_checked_rank(svals, "projector", floor=tolerance)
        image, cokernel = u[:, :rank], u[:, rank:]
        if np.abs(m - m.conj().T).max(initial=0.0) <= _IDEMPOTENT_TOL:
            coimage, kernel = image, cokernel
        else:
            coimage, kernel = vh[:rank].conj().T, vh[rank:].conj().T
        self.__dict__.update(
            matrix=m, image=image, coimage=coimage, kernel=kernel, cokernel=cokernel
        )

    @classmethod
    def _held(cls, **fields) -> "Projector":
        """A projector from the bases, or the support, its builder holds."""
        projector = object.__new__(cls)
        projector.__dict__.update(fields)
        return projector

    # a coordinate projector's identity columns, formed only when asked for

    @cached_property
    def image(self) -> np.ndarray:
        return np.eye(self.dimension, dtype=complex)[:, self.support]

    @cached_property
    def coimage(self) -> np.ndarray:
        return self.image

    @cached_property
    def kernel(self) -> np.ndarray:
        return np.eye(self.dimension, dtype=complex)[:, ~self.support]

    @cached_property
    def cokernel(self) -> np.ndarray:
        return self.kernel

    @cached_property
    def matrix(self) -> np.ndarray:
        """U U* when self-adjoint, else U (V* U)^-1 V*, for U, V = image, coimage."""
        u, v = self.image, self.coimage
        if self.self_adjoint:
            return u @ u.conj().T
        return u @ np.linalg.solve(v.conj().T @ u, v.conj().T)

    @property
    def self_adjoint(self) -> bool:
        return self.coimage is self.image

    @property
    def dimension(self) -> int:
        if self.support is not None:
            return self.support.size
        return self.image.shape[0]

    @property
    def rank(self) -> int:
        """The column count of ``image``, or the size of ``support``."""
        if self.support is not None:
            return int(np.count_nonzero(self.support))
        return self.image.shape[1]

    def complement(self) -> "Projector":
        """I - P: the same four bases, swapped, so nothing is factored."""
        if self.support is not None:
            return Projector._held(support=~self.support)
        return Projector._held(
            image=self.kernel,
            coimage=self.cokernel,
            kernel=self.image,
            cokernel=self.coimage,
        )


class TraceIndex(NamedTuple):
    """Rounded trace-formula index together with the raw real trace."""

    index: int
    raw: float


def _check_same_space(*projectors: Projector) -> None:
    dims = dict.fromkeys(projector.dimension for projector in projectors)
    if len(dims) > 1:
        raise DimensionMismatchError(
            "projectors act on different spaces: " + " vs ".join(map(str, dims))
        )


def _matrices(p, r) -> tuple:
    """The matrices of two projectors, or the stacked matrices of two
    equal-length sequences of them, and whether every one is self-adjoint."""
    if isinstance(p, Projector):
        _check_same_space(p, r)
        return p.matrix, r.matrix, p.self_adjoint and r.self_adjoint
    p, r = list(p), list(r)
    if not p or len(p) != len(r):
        raise DimensionMismatchError(f"cannot pair {len(p)} projectors with {len(r)}")
    _check_same_space(*p, *r)
    self_adjoint = all(projector.self_adjoint for projector in p + r)
    return np.stack([_formed(q) for q in p]), np.stack([_formed(q) for q in r]), self_adjoint


def _formed(projector: Projector) -> np.ndarray:
    """The projector's matrix; one it does not hold yet is formed without
    being cached, so that a stack of matrices holds the only copy."""
    held = vars(projector).get("matrix")
    return Projector.matrix.func(projector) if held is None else held


def _comparison_matrix(p: np.ndarray, r: np.ndarray) -> np.ndarray:
    """T = RP + (I - R)(I - P), over leading axes, formed with one product
    as 2RP + I - R - P (the two agree for any square matrices)."""
    return 2 * (r @ p) + np.eye(p.shape[-1]) - r - p


def _remainder(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """I - ab, over leading axes: K1 is ``_remainder(T, U)``, K2 ``_remainder(U, T)``."""
    return np.eye(a.shape[-1]) - a @ b


@dataclass(frozen=True)
class ProjectorPair:
    """A projector pair's matrices, its comparison operator T, and a
    parametrix U of T: each one matrix, or a stack of them.

    The remainders K1 = I - TU and K2 = I - UT are computed from T and U
    each time they are read, so a pair that outlives its trace holds none.
    """

    p: np.ndarray
    r: np.ndarray
    comparison: np.ndarray
    parametrix: np.ndarray

    @classmethod
    def from_projectors(cls, p, r) -> "ProjectorPair":
        """T formed once from two projectors, or from two equal-length
        sequences of them; its parametrix is T* when every projector is
        self-adjoint, and its truncated pseudo-inverse otherwise."""
        p, r, self_adjoint = _matrices(p, r)
        t = _comparison_matrix(p, r)
        return cls(p, r, t, _adjoint(t) if self_adjoint else _truncated_pinv(t))

    def with_smoothing(self, smoothing) -> "ProjectorPair":
        """The same pair with ``smoothing`` added to its parametrix.

        Any finite matrix counts as smoothing here; T is reused, not
        re-formed or re-inverted.
        """
        extra = np.asarray(smoothing, dtype=complex)
        if extra.shape != self.parametrix.shape:
            raise DimensionMismatchError(
                f"smoothing perturbation has shape {extra.shape}, "
                f"expected {self.parametrix.shape}"
            )
        return ProjectorPair(self.p, self.r, self.comparison, self.parametrix + extra)

    @property
    def k1(self) -> np.ndarray:
        return _remainder(self.comparison, self.parametrix)

    @property
    def k2(self) -> np.ndarray:
        return _remainder(self.parametrix, self.comparison)


def _overlap(a: Projector, b: Projector) -> np.ndarray:
    """coimage(a)* image(b): k_a x k_b, of the rank of the product a b."""
    return a.coimage.conj().T @ b.image


def _restricted_kernel_dims(p: Projector, r: Projector) -> tuple:
    """Kernel dimensions of RP: range P -> range R and of its adjoint.

    With U, V the image and coimage bases, R = U_R (V_R* U_R)^-1 V_R*, so
    RP U_P and V_R* RP = V_R* P both have the rank of the overlap
    V_R* U_P: one gap-checked SVD of that small matrix decides both
    directions, and two coordinate projectors need none (the overlap is
    the intersection of their supports).
    """
    if p.support is not None and r.support is not None:
        rank = int(np.count_nonzero(p.support & r.support))
    else:
        rank = _rank_with_gap(_overlap(r, p), "restricted comparison")
    if p.rank > 0 and r.rank > 0 and rank == 0:
        warnings.warn(
            "comparison product RP vanishes although both projectors are "
            "nonzero; the pair is maximally degenerate and the relative "
            "index is a difference of full kernel dimensions",
            stacklevel=3,  # the caller of kernel_index
        )
    return p.rank - rank, r.rank - rank


def kernel_index(p: Projector, r: Projector) -> int:
    """Relative index as a difference of restricted kernel dimensions.

    Needs no parametrix.
    """
    _check_same_space(p, r)
    ker_forward, ker_backward = _restricted_kernel_dims(p, r)
    return ker_forward - ker_backward


def relative_index_trace(pair: ProjectorPair) -> TraceIndex:
    """Relative index through the parametrix remainder traces.

    The raw value Tr(P K2 P) - Tr(R K1 R) must round to an integer within
    1e-6; anything else signals an invalid parametrix.  A stack of pairs
    gives arrays, one pair an ``int`` and a ``float``.
    """
    index, raw = _trace_index(pair.p, pair.r, pair.k1, pair.k2)
    return TraceIndex(index, raw) if np.ndim(raw) else TraceIndex(int(index), float(raw))


def _trace_index(p, r, k1, k2) -> TraceIndex:
    """The trace route over leading axes: the rounded and the raw
    Tr(P K2 P) - Tr(R K1 R), from the matrices of P and R and the remainders.

    P and R are idempotent, so Tr(P K P) = Tr(K P P) = Tr(K P), the sum of
    the entries of K * P^T: each trace is one elementwise sum, and no
    product is formed.
    """
    raw = ((k2 * np.swapaxes(p, -1, -2)).sum(axis=(-2, -1)).real
           - (k1 * np.swapaxes(r, -1, -2)).sum(axis=(-2, -1)).real)
    return TraceIndex(_nearest_integer(raw, "trace formula value"), raw)


def _nearest_integer(value, what: str) -> np.ndarray:
    """The nearest integers to an array of values, each of which must lie
    within ``_INTEGRALITY_TOL`` of it."""
    nearest = np.rint(value)
    away = np.abs(value - nearest)
    refused = ~(away <= _INTEGRALITY_TOL)  # a NaN is refused too
    if refused.any():
        first = np.flatnonzero(refused)[0]
        raise NonIntegerTraceError(
            f"{what} {float(np.ravel(value)[first])!r} is "
            f"{np.ravel(away)[first]:.3e} away from the nearest integer"
        )
    return nearest.astype(int)


def relative_index_rank(p, r=None):
    """Dense oracle: rank P minus rank R, each the rounded trace of its
    matrix (an idempotent's trace is its rank); an ``int`` for two
    projectors, an array for two sequences of them.  A ``ProjectorPair``
    passed alone gives the same from the matrices it holds."""
    matrices = (p.p, p.r) if isinstance(p, ProjectorPair) else _matrices(p, r)[:2]
    p, r = (_nearest_integer(np.trace(m, axis1=-2, axis2=-1).real, "projector trace")
            for m in matrices)
    return p - r if np.ndim(p) else int(p - r)


def logarithmic_property(p: Projector, q: Projector, r: Projector) -> dict:
    """Composite relative index versus the sum of the two steps.

    The composite RQP restricted to range P has, in both directions, the
    rank of overlap(R, Q) overlap(Q, Q)^-1 overlap(Q, P): k_R x k_P, one
    gap-checked SVD.
    """
    _check_same_space(p, q, r)
    middle = np.linalg.solve(_overlap(q, q), _overlap(q, p))
    rank = _rank_with_gap(_overlap(r, q) @ middle, "composite comparison")
    composite = (p.rank - rank) - (r.rank - rank)
    first = kernel_index(p, q)
    second = kernel_index(q, r)
    return {
        "composite_index": composite,
        "first_step": first,
        "second_step": second,
        "sum_of_steps": first + second,
        "consistent": composite == first + second,
    }


def coordinate_projector(dimension: int, positions) -> Projector:
    """Orthogonal projection onto a set of coordinate axes, held as its support."""
    support = np.zeros(dimension, dtype=bool)
    support[np.asarray(positions, dtype=int)] = True
    return Projector._held(support=support)


def toeplitz_winding(window: int, k: int) -> int:
    """Relative index of the clipped winding-k symbol on a Fourier window.

    The window carries frequencies -window..window; the reference projector
    keeps 0..window, and conjugating by multiplication with the winding-k
    exponential shifts it to k..window (the upper end falls off the window
    for k > 0, the lower end stays clipped for k < 0).  The relative index
    recovers the winding number.
    """
    if window < 1:
        raise AdmissibilityError(f"window must be positive, got {window}")
    if abs(k) > window / 2:
        raise AdmissibilityError(
            f"winding {k} is too large for the frequency window {window} "
            f"(need |k| <= window/2)"
        )
    dim = 2 * window + 1
    offset = window  # frequency f lives at position f + offset
    hardy = coordinate_projector(dim, [f + offset for f in range(0, window + 1)])
    shifted = coordinate_projector(dim, [f + offset for f in range(k, window + 1)])
    return kernel_index(hardy, shifted)


def agranovich_dynin_shadow(s1: Projector, s2: Projector) -> dict:
    """Difference of two boundary conditions against the corner difference.

    Each corner projector is embedded in a block projector shaped like the
    even boundary model — the corner on the degree-0 slot, a zero block of
    the corner's size for the higher even degrees, and the identity on an
    odd slot of the corner's size — and both are compared against one fixed
    reference projector.  The difference of the two relative indices must
    equal the corner rank difference, which is itself the relative index of
    the corner pair.
    """
    _check_same_space(s1, s2)
    corner = s1.dimension
    odd_start, dim = 2 * corner, 3 * corner

    def embed(s: Projector) -> Projector:
        block = np.zeros((dim, dim), dtype=complex)
        block[:corner, :corner] = s.matrix
        block[odd_start:, odd_start:] = np.eye(corner)
        return Projector(block)

    reference = coordinate_projector(dim, range(odd_start, dim))
    first = kernel_index(reference, embed(s1))
    second = kernel_index(reference, embed(s2))
    corner_index = kernel_index(s1, s2)
    report = {
        "block_dimension": dim,
        "difference": second - first,
        "rank_difference": s1.rank - s2.rank,
        "corner_index": corner_index,
    }
    report["consistent"] = (
        report["difference"] == report["rank_difference"] == report["corner_index"]
    )
    return report


def random_projector(rng, dimension: int, rank: int, *, self_adjoint: bool = True) -> Projector:
    """Haar-random orthogonal projector of the given rank.

    Only the ``rank`` columns that are kept are drawn, so the generator
    advances by 2 * dimension * rank normals (and dimension^2 more for the
    mix of an oblique draw).  The complete QR of the drawn columns gives the
    image (Householder QR's first k columns depend only on the first k
    inputs, so they are those of any square whose first k columns were
    drawn) and the kernel.  The image is gated on max |U*U - I|, the k x k
    form of max |P^2 - P| for P = U U*, against the fixed floor: an
    orthonormal basis has no large entries to scale it.
    """
    if not 0 <= rank <= dimension:
        raise AdmissibilityError(
            f"rank {rank} out of range for dimension {dimension}"
        )
    # one call draws the numbers of two, real part first.  ``normal``, as
    # the other draws, not ``standard_normal``: the same numbers, but a cold
    # relindex process that calls the latter peaks about 0.1 MB higher
    real, imag = rng.normal(size=(2, dimension, rank))
    q, _ = np.linalg.qr(real + 1j * imag, mode="complete")
    image = q[:, :rank]
    _check_defect(image.conj().T @ image - np.eye(rank), _IDEMPOTENT_TOL, "U*U - I")
    projector = Projector._held(image=image, kernel=q[:, rank:])
    if self_adjoint:
        return projector
    # conjugate by a mild invertible map: still idempotent, no longer
    # hermitian
    mix = np.eye(dimension) + 0.1 * rng.normal(size=(dimension, dimension))
    return Projector(mix @ projector.matrix @ np.linalg.inv(mix))
