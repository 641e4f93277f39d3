"""The paper's explicit objects, restated from the library's public names.

No command forms these, so they live here as oracles the tests check the
library against:

- the oscillator basis enumerated by recursive compositions, as tuples;
- the graded basis and its unit vectors;
- the comparison model's blockwise inverse of one right-hand side, with its
  refusal of a right-hand side above oscillator degree ``cutoff - 2``, and
  the seeded guarded right-hand sides it is checked on;
- the deformation-rank probes as whole-sector column matrices;
- the interior symbols ``q`` of orders -1 and -2, from their formulas;
- the order -1 term of the Calderon projector on the contact line.
"""

import numpy as np

from fockindex import models
from fockindex.errors import AdmissibilityError
from fockindex.fock import FockSpaceConfig
from fockindex.spinors import (
    EVEN,
    ODD,
    GradedBasisIndex,
    _check_parity,
    form_subsets,
    graded_dimension,
    graded_index,
)
from fockindex.symbols import HessianData, boundary_isomorphism, closed_form_contact_contour, d1


def multi_indices(num_vars: int, cutoff: int) -> tuple:
    """All multi-indices with |k| <= cutoff in graded lexicographic order."""

    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    out = []
    for degree in range(cutoff + 1):
        out.extend(sorted(compositions(degree, num_vars)))
    return tuple(out)


def graded_basis(config: FockSpaceConfig) -> tuple:
    """Tensor-product enumeration, oscillator-major / form-minor."""
    forms = form_subsets(config.num_vars)
    return tuple(GradedBasisIndex(k, s)
                 for k in multi_indices(config.num_vars, config.cutoff) for s in forms)


def basis_vector(config: FockSpaceConfig, index: GradedBasisIndex) -> np.ndarray:
    vec = np.zeros(graded_dimension(config), dtype=np.complex128)
    vec[graded_index(config, index)] = 1.0
    return vec


def invert_comparison_model(chirality: str, cfg: models.ModelConfig, rhs) -> tuple:
    """Solve the comparison model by the explicit solution formulas.

    ``rhs`` is the pair ``(a, b)`` of even/odd sector vectors, supported on
    oscillator degree ``cutoff - 2`` or lower; one with support above is
    refused, as the formulas are exact only away from the truncation edge.
    Returns ``(u, v)``.  The ``v``-component is read off from ``a`` alone,
    so the (2,2) block of the inverse vanishes identically.
    """
    _check_parity(chirality, "chirality")
    sec = models._sectors(cfg)
    a = np.asarray(rhs[0], dtype=complex)
    b = np.asarray(rhs[1], dtype=complex)
    if a[~sec.guard_even].any() or b[~sec.guard_odd].any():
        raise AdmissibilityError("rhs has support above oscillator degree cutoff-2")
    u, v = models._solve_columns(chirality, cfg, a[:, None], b[:, None])
    return u[:, 0], v[:, 0]


def random_guarded_rhs(rng, cfg: models.ModelConfig) -> tuple:
    """One seeded unit rhs pair on the guarded degrees, as the certificate
    draws each of its right-hand sides."""
    a, b = models._guarded_draws(rng, models._sectors(cfg), 1)
    return a[:, 0], b[:, 0]


def rank_probes(sec) -> tuple:
    """The deformation-rank probes of the sector data ``sec`` as ``(a, b)``
    column matrices: a unit column on each guarded state of the merged block,
    then one seeded draw with the merged block's rows zeroed."""
    cols_even = np.flatnonzero(sec.guard_even & sec.merged_even)
    cols_odd = np.flatnonzero(sec.guard_odd & sec.merged_odd)
    num_even, num_cols = len(cols_even), len(cols_even) + len(cols_odd)
    a = np.zeros((sec.dim_even, num_cols + 1), dtype=complex)
    b = np.zeros((sec.dim_odd, num_cols + 1), dtype=complex)
    a[cols_even, np.arange(num_even)] = 1.0
    b[cols_odd, np.arange(num_even, num_cols)] = 1.0
    a[:, -1:], b[:, -1:] = models._guarded_draws(np.random.default_rng(0), sec, 1)
    a[sec.merged_even, -1] = 0.0
    b[sec.merged_odd, -1] = 0.0
    return a, b


def q_symbol(order: int, chirality: str, xi, hess: HessianData | None = None) -> np.ndarray:
    """The interior symbols at one complex covector ``xi``.

    ``order = -1`` gives ``2 d1 / |xi|^2``; ``order = -2`` the correction
    ``2 i xi1 alpha (-tr(A) d1 / |xi|^4 + 4 <A xi, xi> d1 / |xi|^6
    - 2 d1(A xi) / |xi|^4)``, with ``|xi|^2`` the sum of squares and
    ``<A xi, xi>`` the bilinear pairing, both continued to complex ``xi1``.
    """
    xi = np.asarray(xi, dtype=complex)
    square = np.sum(xi * xi)
    if order == -1:
        return 2.0 * d1(chirality, xi) / square
    a_xi = hess.matrix_a @ xi
    return 2j * xi[0] * hess.alpha * (-hess.trace * d1(chirality, xi) / square**2
                                      + 4.0 * np.sum(a_xi * xi) * d1(chirality, xi) / square**3
                                      - 2.0 * d1(chirality, a_xi) / square**2)


def calderon_symbol_minus1(chirality: str, side: int, hess: HessianData,
                           xi_prime) -> np.ndarray:
    """Order -1 term of the Calderon projector on the contact line: the
    opposite chirality's order -2 contour value, composed with the boundary
    isomorphism."""
    other = ODD if chirality == EVEN else EVEN
    n = np.shape(xi_prime)[-1] // 2
    return closed_form_contact_contour(other, hess, xi_prime) @ boundary_isomorphism(
        chirality, side, n)
