"""Projector pairs, comparison operators, and relative indices.

Everything here is finite-dimensional: a pair of idempotents (P, R) on the
same space determines the comparison operator T = RP + (I-R)(I-P), and the
relative index of the pair is computed three independent ways — by kernel
dimensions of the restricted map, by the remainder-trace formula through a
parametrix, and by the brute-force rank difference.  The three must agree;
the trace route is exactly parametrix-independent, so arbitrary finite
perturbations of the parametrix change nothing.

Each factorisation is computed once and reused: a projector caches the
orthonormal bases of its range and of its complement's range (one ``eigh``
for a self-adjoint projector, handed on to its complement; identity columns
for a coordinate projector; SVDs for an oblique one), and a pair holds T and
its parametrix U, so a smoothed parametrix re-inverts nothing.  The
remainders K1 = I - TU and K2 = I - UT are derived from (T, U) when first
read.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
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


def _gap_checked_rank(svals: np.ndarray, context: str) -> int:
    """Count of singular values above the rank threshold.

    Refuses to answer when a singular value is ambiguous.
    """
    ambiguous = svals[(svals >= _GAP[0]) & (svals <= _GAP[1])]
    if ambiguous.size:
        raise IllConditionedKernelError(
            f"singular value {ambiguous[0]:.3e} of {context} falls in the "
            f"undecidable gap [{_GAP[0]:.0e}, {_GAP[1]:.0e}]"
        )
    return int((svals > _RANK_THRESHOLD).sum())


def _rank_with_gap(matrix: np.ndarray, context: str) -> int:
    """Numerical rank; refuses to answer when a singular value is ambiguous."""
    if matrix.size == 0:
        return 0
    return _gap_checked_rank(np.linalg.svd(matrix, compute_uv=False), context)


def _range_basis(matrix: np.ndarray, context: str) -> np.ndarray:
    """Orthonormal basis of the column space, from one SVD."""
    u, svals, _ = np.linalg.svd(matrix)
    return u[:, :_gap_checked_rank(svals, context)]


def _truncated_pinv(matrix: np.ndarray) -> np.ndarray:
    """Pseudo-inverse with an absolute singular-value cutoff.

    numpy's rcond is relative to the largest singular value, which would
    happily invert a matrix made of pure rounding noise (every entry tiny);
    an absolute cutoff keeps the parametrix of a numerically-zero
    comparison operator at zero instead.
    """
    u, svals, vh = np.linalg.svd(matrix)
    keep = svals > _RANK_THRESHOLD
    inverted = np.zeros_like(svals)
    inverted[keep] = 1.0 / svals[keep]
    return (vh.conj().T * inverted) @ u.conj().T


def _idempotency_tolerance(m: np.ndarray) -> float:
    """Gate on max |P^2 - P|: the rounding bound of the product, floored.

    Entry (i, j) of the computed P @ P is off by at most about
    dim * eps * |row i| * |column j|, and each of those norms is at most
    ||P||, so this is eps * ||P||^2 * dim measured with norms that cost no
    factorisation.  Every row and column of an orthogonal projector has
    norm at most one, so for it the fixed floor governs below dimension
    4500; only oblique projectors with large entries get a wider gate.
    """
    rows = np.linalg.norm(m, axis=1).max()
    columns = np.linalg.norm(m, axis=0).max()
    return max(_IDEMPOTENT_TOL, m.shape[0] * _EPS * rows * columns)


@dataclass(frozen=True)
class Projector:
    """A square idempotent, not necessarily orthogonal.

    The orthonormal bases of its range and of its adjoint's range are
    computed on first use and cached (``cached_property`` writes to the
    instance dict, which the frozen dataclass leaves writable).  ``bases``
    lets a caller that already holds them supply the range and
    complement-range bases of a self-adjoint projector.
    """

    matrix: np.ndarray
    self_adjoint: bool | None = None
    bases: tuple | None = field(default=None, repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatchError(f"projector must be square, got {m.shape}")
        defect = np.abs(m @ m - m).max()
        tolerance = _idempotency_tolerance(m)
        if defect > tolerance:
            raise AdmissibilityError(
                f"matrix is not idempotent: max |P^2 - P| = {defect:.3e} "
                f"exceeds {tolerance:.3e}"
            )
        object.__setattr__(self, "matrix", m)
        hermitian = np.abs(m - m.conj().T).max() <= _IDEMPOTENT_TOL
        if self.self_adjoint is None:
            object.__setattr__(self, "self_adjoint", bool(hermitian))
        elif self.self_adjoint and not hermitian:
            raise AdmissibilityError("projector declared self-adjoint but is not")
        if self.bases is not None:
            if not self.self_adjoint:
                raise AdmissibilityError(
                    "range bases can be supplied only for a self-adjoint projector"
                )
            image, kernel = self.bases
            dim = m.shape[0]
            if image.shape[0] != dim or kernel.shape[0] != dim or (
                image.shape[1] + kernel.shape[1] != dim
            ):
                raise DimensionMismatchError(
                    f"range bases of shapes {image.shape} and {kernel.shape} "
                    f"do not split dimension {dim}"
                )

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    @property
    def rank(self) -> int:
        """Rank: the rounded trace when self-adjoint, else the SVD rank.

        An orthogonal projector's eigenvalues are 0 and 1, so its trace is
        its rank; a trace farther than the integrality tolerance from an
        integer falls back to the gap-checked SVD.
        """
        if self.self_adjoint:
            trace = float(np.trace(self.matrix).real)
            nearest = round(trace)
            if abs(trace - nearest) <= _INTEGRALITY_TOL:
                return int(nearest)
        return _rank_with_gap(self.matrix, "projector")

    @cached_property
    def _orthogonal_bases(self) -> tuple:
        """Range and complement-range bases of a self-adjoint projector.

        Both come from one ``eigh``: the eigenvalues ascend, so the
        complement's eigenvectors come first.  The range count is
        gap-checked on |lambda| and the complement's on |1 - lambda|.
        """
        if self.bases is not None:
            return self.bases
        eigenvalues, vectors = np.linalg.eigh(self.matrix)
        rank = _gap_checked_rank(np.abs(eigenvalues), "projector")
        co_rank = _gap_checked_rank(np.abs(1.0 - eigenvalues), "projector complement")
        return vectors[:, self.dimension - rank:], vectors[:, :co_rank]

    @cached_property
    def range_basis(self) -> np.ndarray:
        """Orthonormal basis of the range: the shared eigh, else one SVD."""
        if self.self_adjoint:
            return self._orthogonal_bases[0]
        return _range_basis(self.matrix, "projector")

    @cached_property
    def adjoint_range_basis(self) -> np.ndarray:
        """Orthonormal basis of the range of P*, the range itself if P = P*."""
        if self.self_adjoint:
            return self.range_basis
        return _range_basis(self.matrix.conj().T, "projector adjoint")

    def complement(self) -> "Projector":
        """I - P; a self-adjoint projector hands on its two bases, swapped."""
        matrix = np.eye(self.dimension) - self.matrix
        if not self.self_adjoint:
            return Projector(matrix)
        image, kernel = self._orthogonal_bases
        return Projector(matrix, self_adjoint=True, bases=(kernel, image))


class TraceIndex(NamedTuple):
    """Rounded trace-formula index together with the raw real trace."""

    index: int
    raw: float


def _check_same_space(*projectors: Projector) -> None:
    dims = [projector.dimension for projector in projectors]
    if len(set(dims)) > 1:
        raise DimensionMismatchError(
            "projectors act on different spaces: " + " vs ".join(map(str, dims))
        )


def _comparison_matrix(p: np.ndarray, r: np.ndarray) -> np.ndarray:
    eye = np.eye(p.shape[0])
    return r @ p + (eye - r) @ (eye - p)


@dataclass(frozen=True)
class ProjectorPair:
    """A projector pair, its comparison operator T, and a parametrix U of T.

    The remainders K1 = I - TU and K2 = I - UT are computed from T and U on
    first use and cached (``cached_property`` writes to the instance dict,
    which the frozen dataclass leaves writable).
    """

    p: Projector
    r: Projector
    comparison: np.ndarray
    parametrix: np.ndarray

    @classmethod
    def from_projectors(cls, p: Projector, r: Projector) -> "ProjectorPair":
        """T formed once, with its truncated pseudo-inverse as parametrix."""
        _check_same_space(p, r)
        t = _comparison_matrix(p.matrix, r.matrix)
        return cls(p, r, t, _truncated_pinv(t))

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

    @cached_property
    def k1(self) -> np.ndarray:
        return np.eye(self.dimension) - self.comparison @ self.parametrix

    @cached_property
    def k2(self) -> np.ndarray:
        return np.eye(self.dimension) - self.parametrix @ self.comparison

    @property
    def dimension(self) -> int:
        return self.p.dimension


def _restricted_ranks(factors: tuple, basis: np.ndarray,
                      adjoint_basis: np.ndarray, context: str) -> tuple:
    """Ranks of a product M = factors[0] @ ... @ factors[-1] on two bases.

    The forward rank is that of M @ basis, the backward one that of
    adjoint_basis* @ M (the adjoint map, transposed: same singular
    values).  Each is one gap-checked SVD; the products run from the basis
    outwards, so no dim x dim product is ever formed.
    """
    forward = basis
    for factor in reversed(factors):
        forward = factor @ forward
    backward = adjoint_basis.conj().T
    for factor in factors:
        backward = backward @ factor
    return (
        _rank_with_gap(forward, context),
        _rank_with_gap(backward, "adjoint " + context),
    )


def _restricted_kernel_dims(p: Projector, r: Projector) -> tuple:
    """Kernel dimensions of RP: range P -> range R and of its adjoint.

    The range bases are the projectors' cached ones; on top of them this
    takes two SVDs, one rank per direction.  P = U U* P for the range basis
    U of P, so rank(RP) = rank(RPU) and the forward rank also decides
    whether RP vanishes.
    """
    basis_p, basis_r_star = p.range_basis, r.adjoint_range_basis
    rank_forward, rank_backward = _restricted_ranks(
        (r.matrix, p.matrix), basis_p, basis_r_star, "restricted comparison"
    )
    if basis_p.shape[1] > 0 and basis_r_star.shape[1] > 0 and rank_forward == 0:
        warnings.warn(
            "comparison product RP vanishes although both projectors are "
            "nonzero; the pair is maximally degenerate and the relative "
            "index is a difference of full kernel dimensions",
            stacklevel=3,  # the caller of kernel_index
        )
    return basis_p.shape[1] - rank_forward, basis_r_star.shape[1] - rank_backward


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
    1e-6; anything else signals an invalid parametrix.
    """
    p, r = pair.p.matrix, pair.r.matrix
    raw = float(
        np.trace(p @ pair.k2 @ p).real - np.trace(r @ pair.k1 @ r).real
    )
    nearest = round(raw)
    if abs(raw - nearest) > _INTEGRALITY_TOL:
        raise NonIntegerTraceError(
            f"trace formula value {raw!r} is {abs(raw - nearest):.3e} away "
            "from the nearest integer"
        )
    return TraceIndex(int(nearest), raw)


def relative_index_rank(p: Projector, r: Projector) -> int:
    """Brute-force oracle: rank P minus rank R."""
    _check_same_space(p, r)
    return p.rank - r.rank


def logarithmic_property(p: Projector, q: Projector, r: Projector) -> dict:
    """Composite relative index versus the sum of the two steps."""
    _check_same_space(p, q, r)
    basis_p, basis_r_star = p.range_basis, r.adjoint_range_basis
    rank_forward, rank_backward = _restricted_ranks(
        (r.matrix, q.matrix, p.matrix), basis_p, basis_r_star,
        "composite comparison",
    )
    composite = (basis_p.shape[1] - rank_forward) - (
        basis_r_star.shape[1] - rank_backward
    )
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
    """Orthogonal projection onto a set of coordinate axes.

    Its range and complement-range bases are identity columns, so it
    carries them and never needs a factorisation.
    """
    support = np.zeros(dimension, dtype=bool)
    support[np.asarray(positions, dtype=int)] = True
    eye = np.eye(dimension, dtype=complex)
    return Projector(
        np.diag(support).astype(complex), bases=(eye[:, support], eye[:, ~support])
    )


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

    The whole dim x dim Gaussian is drawn, so the generator's stream does
    not depend on the rank, but only the ``rank`` columns that are kept are
    factored: Householder QR's first k columns depend only on the first k
    inputs.
    """
    if not 0 <= rank <= dimension:
        raise AdmissibilityError(
            f"rank {rank} out of range for dimension {dimension}"
        )
    real = rng.normal(size=(dimension, dimension))
    imag = rng.normal(size=(dimension, dimension))
    basis, _ = np.linalg.qr(real[:, :rank] + 1j * imag[:, :rank])
    matrix = basis @ basis.conj().T
    # clean up rounding so the idempotency gate is comfortable
    matrix = 0.5 * (matrix + matrix.conj().T)
    if not self_adjoint:
        # conjugate by a mild invertible map: still idempotent, no longer
        # hermitian
        mix = np.eye(dimension) + 0.1 * rng.normal(size=(dimension, dimension))
        matrix = mix @ matrix @ np.linalg.inv(mix)
    return Projector(matrix, self_adjoint=None)
