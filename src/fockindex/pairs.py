"""Projector pairs, comparison operators, and relative indices.

Everything here is finite-dimensional: a pair of idempotents (P, R) on the
same space determines the comparison operator T = RP + (I-R)(I-P), and the
relative index of the pair is computed three independent ways — by kernel
dimensions of the restricted map, by the remainder-trace formula through a
parametrix, and by the brute-force rank difference.  The three must agree;
the trace route is exactly parametrix-independent, so arbitrary finite
perturbations of the parametrix change nothing.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
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
    "comparison_operator",
    "relative_index_kernel",
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


@dataclass(frozen=True)
class Projector:
    """A square idempotent, not necessarily orthogonal."""

    matrix: np.ndarray
    self_adjoint: bool | None = None

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatchError(f"projector must be square, got {m.shape}")
        defect = np.abs(m @ m - m).max()
        if defect > _IDEMPOTENT_TOL:
            raise AdmissibilityError(
                f"matrix is not idempotent: max |P^2 - P| = {defect:.3e}"
            )
        object.__setattr__(self, "matrix", m)
        hermitian = np.abs(m - m.conj().T).max() <= _IDEMPOTENT_TOL
        if self.self_adjoint is None:
            object.__setattr__(self, "self_adjoint", bool(hermitian))
        elif self.self_adjoint and not hermitian:
            raise AdmissibilityError("projector declared self-adjoint but is not")

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

    def complement(self) -> "Projector":
        return Projector(np.eye(self.dimension) - self.matrix)


class TraceIndex(NamedTuple):
    """Rounded trace-formula index together with the raw real trace."""

    index: int
    raw: float


def _comparison_matrix(p: np.ndarray, r: np.ndarray) -> np.ndarray:
    eye = np.eye(p.shape[0])
    return r @ p + (eye - r) @ (eye - p)


def comparison_operator(p: Projector, r: Projector, smoothing=None):
    """T = RP + (I-R)(I-P) with a parametrix and its two remainders.

    The parametrix is the pseudo-inverse of T, optionally perturbed by a
    caller-supplied matrix (any finite matrix counts as smoothing here);
    remainders are K1 = I - TU and K2 = I - UT.
    """
    if p.dimension != r.dimension:
        raise DimensionMismatchError(
            f"projectors act on different spaces: {p.dimension} vs {r.dimension}"
        )
    t = _comparison_matrix(p.matrix, r.matrix)
    u = _truncated_pinv(t)
    if smoothing is not None:
        extra = np.asarray(smoothing, dtype=complex)
        if extra.shape != t.shape:
            raise DimensionMismatchError(
                f"smoothing perturbation has shape {extra.shape}, expected {t.shape}"
            )
        u = u + extra
    eye = np.eye(t.shape[0])
    return t, u, eye - t @ u, eye - u @ t


@dataclass(frozen=True)
class ProjectorPair:
    """A projector pair with a parametrix for its comparison operator.

    ``comparison`` is T = RP + (I-R)(I-P); it is formed from ``p`` and ``r``
    unless the caller passes the T it already built.  The remainders are
    checked against it on construction.
    """

    p: Projector
    r: Projector
    parametrix: np.ndarray
    k1: np.ndarray
    k2: np.ndarray
    comparison: np.ndarray | None = None

    def __post_init__(self):
        t = self.comparison
        if t is None:
            t = _comparison_matrix(self.p.matrix, self.r.matrix)
            object.__setattr__(self, "comparison", t)
        eye = np.eye(t.shape[0])
        defect = max(
            np.abs(t @ self.parametrix + self.k1 - eye).max(),
            np.abs(self.parametrix @ t + self.k2 - eye).max(),
        )
        if defect > _IDEMPOTENT_TOL:
            raise AdmissibilityError(
                f"parametrix remainders are inconsistent: defect {defect:.3e}"
            )

    @classmethod
    def from_projectors(cls, p: Projector, r: Projector, smoothing=None):
        t, u, k1, k2 = comparison_operator(p, r, smoothing)
        return cls(p, r, u, k1, k2, t)

    @property
    def dimension(self) -> int:
        return self.p.dimension


def _restricted_kernel_dims(p: Projector, r: Projector) -> tuple:
    """Kernel dimensions of RP: range P -> range R and of its adjoint.

    Four SVDs: one range basis per projector and one rank per direction.
    P = U U* P for the range basis U of P, so rank(RP) = rank(RPU) and the
    forward rank also decides whether RP vanishes.
    """
    basis_p = _range_basis(p.matrix, "first projector")
    basis_r_star = _range_basis(r.matrix.conj().T, "second projector adjoint")
    rp = r.matrix @ p.matrix
    rank_forward = _rank_with_gap(rp @ basis_p, "restricted comparison")
    ker_forward = basis_p.shape[1] - rank_forward
    ker_backward = basis_r_star.shape[1] - _rank_with_gap(
        rp.conj().T @ basis_r_star, "adjoint restricted comparison"
    )
    if basis_p.shape[1] > 0 and basis_r_star.shape[1] > 0 and rank_forward == 0:
        warnings.warn(
            "comparison product RP vanishes although both projectors are "
            "nonzero; the pair is maximally degenerate and the relative "
            "index is a difference of full kernel dimensions",
            stacklevel=4,
        )
    return ker_forward, ker_backward


def _kernel_index(p: Projector, r: Projector) -> int:
    ker_forward, ker_backward = _restricted_kernel_dims(p, r)
    return ker_forward - ker_backward


def relative_index_kernel(pair: ProjectorPair) -> int:
    """Relative index as a difference of restricted kernel dimensions."""
    return _kernel_index(pair.p, pair.r)


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


def relative_index_rank(pair: ProjectorPair) -> int:
    """Brute-force oracle: rank P minus rank R."""
    return pair.p.rank - pair.r.rank


def logarithmic_property(p: Projector, q: Projector, r: Projector) -> dict:
    """Composite relative index versus the sum of the two steps."""
    if not p.dimension == q.dimension == r.dimension:
        raise DimensionMismatchError("projectors act on different spaces")
    basis_p = _range_basis(p.matrix, "first projector")
    basis_r_star = _range_basis(r.matrix.conj().T, "third projector adjoint")
    through = r.matrix @ q.matrix @ p.matrix
    ker_forward = basis_p.shape[1] - _rank_with_gap(
        through @ basis_p, "composite comparison"
    )
    ker_backward = basis_r_star.shape[1] - _rank_with_gap(
        through.conj().T @ basis_r_star, "adjoint composite comparison"
    )
    composite = ker_forward - ker_backward
    first = _kernel_index(p, q)
    second = _kernel_index(q, r)
    return {
        "composite_index": composite,
        "first_step": first,
        "second_step": second,
        "sum_of_steps": first + second,
        "consistent": composite == first + second,
    }


def coordinate_projector(dimension: int, positions) -> Projector:
    """Orthogonal projection onto a set of coordinate axes."""
    diag = np.zeros(dimension)
    diag[np.asarray(positions, dtype=int)] = 1.0
    return Projector(np.diag(diag).astype(complex))


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
    return _kernel_index(hardy, shifted)


def agranovich_dynin_shadow(s1: Projector, s2: Projector, frame=None) -> dict:
    """Difference of two boundary conditions against the corner difference.

    Each corner projector is embedded in a block projector shaped like the
    even boundary model — the corner on the degree-0 slot, a zero block for
    the higher even degrees, and the identity on the odd slot — and both
    are compared against one fixed reference projector.  The difference of
    the two relative indices must equal the corner rank difference, which
    is itself the relative index of the corner pair.
    """
    if s1.dimension != s2.dimension:
        raise DimensionMismatchError(
            f"corner projectors differ in size: {s1.dimension} vs {s2.dimension}"
        )
    corner = s1.dimension
    extra_even, odd = frame if frame is not None else (corner, corner)
    if odd < 1:
        raise AdmissibilityError("block frame needs a nonempty odd slot")
    dim = corner + extra_even + odd

    def embed(s: Projector) -> Projector:
        block = np.zeros((dim, dim), dtype=complex)
        block[:corner, :corner] = s.matrix
        block[corner + extra_even:, corner + extra_even:] = np.eye(odd)
        return Projector(block)

    reference = coordinate_projector(dim, range(corner + extra_even, dim))
    first = relative_index_kernel(
        ProjectorPair.from_projectors(reference, embed(s1))
    )
    second = relative_index_kernel(
        ProjectorPair.from_projectors(reference, embed(s2))
    )
    corner_index = relative_index_kernel(ProjectorPair.from_projectors(s1, s2))
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
    """Haar-random orthogonal projector of the given rank."""
    if not 0 <= rank <= dimension:
        raise AdmissibilityError(
            f"rank {rank} out of range for dimension {dimension}"
        )
    gauss = rng.normal(size=(dimension, dimension)) + 1j * rng.normal(
        size=(dimension, dimension)
    )
    q, _ = np.linalg.qr(gauss)
    basis = q[:, :rank]
    matrix = basis @ basis.conj().T
    # clean up rounding so the idempotency gate is comfortable
    matrix = 0.5 * (matrix + matrix.conj().T)
    if not self_adjoint:
        # conjugate by a mild invertible map: still idempotent, no longer
        # hermitian
        mix = np.eye(dimension) + 0.1 * rng.normal(size=(dimension, dimension))
        matrix = mix @ matrix @ np.linalg.inv(mix)
    return Projector(matrix, self_adjoint=None)
