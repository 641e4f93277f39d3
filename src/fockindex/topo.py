"""Integer arithmetic for glued-boundary index formulas.

Signature/Euler bookkeeping for pseudoconvex fillings of contact
3-manifolds, characteristic numbers of the glued 4-manifold, and the
special cases where the general gluing formula collapses to arithmetic:
Stein fillings, deformations of the complex structure, and co-disk
bundles over surfaces.  Everything here is exact integer arithmetic —
non-integral intermediate values signal inadmissible geometric data and
are rejected with a diagnostic rather than returned as rationals.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .errors import AdmissibilityError, IntegralityViolation

__all__ = [
    "DEFAULT_CONTACT_DEGREE",
    "FillingDescriptor",
    "SpinCNumbers",
    "rind_weinstein",
    "rind_3d",
    "glued_double_index",
    "ind_from_c1",
    "ind_from_c2",
    "seiberg_witten_dim",
    "seiberg_witten_dim_reversed",
    "coball_descriptor",
    "fio_index_surfaces",
    "rind_bundle_coefficients",
    "random_spinc_numbers",
]

#: Contact degree of a mapping torus over a 3-dimensional contact boundary.
#: This quantity is accepted as an input-level datum (it vanishes in
#: dimension 3 by an assertion we do not recompute); callers supplying
#: higher-dimensional data must provide their own value.
DEFAULT_CONTACT_DEGREE = 0


def _as_int(name: str, value) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise AdmissibilityError(
            f"{name} must be an exact integer, got {value!r}"
        ) from None


@dataclass(frozen=True)
class FillingDescriptor:
    """Topological data of one pseudoconvex filling of a contact boundary.

    ``chi_prime`` is the alternating sum over q >= 1 of the Dolbeault
    numbers dim H^{0,q}; when left unset it is derived from ``h01`` and
    ``h02``, which is the complex-dimension-2 case (only q = 1, 2
    contribute).  Suppliers of higher-dimensional data must set
    ``chi_prime`` directly.  Stein fillings have no higher Dolbeault
    cohomology, so ``stein=True`` forces all of these to vanish.
    """

    signature: int
    euler: int
    h01: int = 0
    stein: bool = False
    h02: int = 0
    chi_prime: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "signature", _as_int("signature", self.signature))
        object.__setattr__(self, "euler", _as_int("euler", self.euler))
        object.__setattr__(self, "h01", _as_int("h01", self.h01))
        object.__setattr__(self, "h02", _as_int("h02", self.h02))
        if not isinstance(self.stein, bool):
            raise AdmissibilityError(
                f"stein must be true or false, got {self.stein!r}"
            )
        if self.h01 < 0 or self.h02 < 0:
            raise AdmissibilityError("Dolbeault dimensions must be non-negative")
        if self.chi_prime is None:
            object.__setattr__(self, "chi_prime", -self.h01 + self.h02)
        else:
            object.__setattr__(
                self, "chi_prime", _as_int("chi_prime", self.chi_prime)
            )
        if self.stein and (self.h01 or self.h02 or self.chi_prime):
            raise AdmissibilityError(
                "a Stein filling has h01 = h02 = 0 and renormalized "
                "holomorphic Euler characteristic 0"
            )


@dataclass(frozen=True)
class SpinCNumbers:
    """Characteristic numbers of a closed spin-c 4-manifold.

    Any subset may be supplied (``None`` marks an absent value); when all
    four are present they must satisfy the four-manifold relation
    4*c2 = c1^2 - 3*signature - 2*euler.
    """

    c1_squared: int | None = None
    c2: int | None = None
    signature: int | None = None
    euler: int | None = None

    def __post_init__(self):
        for name in ("c1_squared", "c2", "signature", "euler"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, _as_int(name, value))
        present = [
            getattr(self, name)
            for name in ("c1_squared", "c2", "signature", "euler")
        ]
        if all(value is not None for value in present):
            defect = 4 * self.c2 - (
                self.c1_squared - 3 * self.signature - 2 * self.euler
            )
            if defect:
                raise IntegralityViolation(
                    "characteristic numbers violate the four-manifold "
                    "relation 4*c2 = c1^2 - 3*signature - 2*euler",
                    defect,
                )

    def _require(self, *names: str) -> None:
        missing = [name for name in names if getattr(self, name) is None]
        if missing:
            raise AdmissibilityError(
                f"missing characteristic data: {', '.join(missing)}"
            )


def rind_weinstein(
    ind_glued: int, x0: FillingDescriptor, x1: FillingDescriptor
) -> int:
    """Relative index of the two boundary projectors from the glued index.

    The boundary terms of the gluing formula are the renormalized
    holomorphic Euler characteristics of the fillings; for Stein fillings
    both vanish and the glued index passes through unchanged.
    """
    return _as_int("ind_glued", ind_glued) - x0.chi_prime + x1.chi_prime


def glued_double_index(x0: FillingDescriptor, x1: FillingDescriptor) -> int:
    """Index of the glued operator on the extended double, 3-d boundary case.

    Equals (sign[X0] - sign[X1] + chi[X0] - chi[X1]) / 4; divisibility by 4
    is a necessary condition on admissible pairs of fillings.
    """
    total = x0.signature - x1.signature + x0.euler - x1.euler
    quotient, residue = divmod(total, 4)
    if residue:
        raise IntegralityViolation(
            f"signature/Euler combination {total} is not divisible by 4",
            residue,
        )
    return quotient


def rind_3d(x0: FillingDescriptor, x1: FillingDescriptor) -> int:
    """Relative index of the two classical boundary projectors in 3-d."""
    return x0.h01 - x1.h01 + glued_double_index(x0, x1)


def ind_from_c1(nums: SpinCNumbers) -> int:
    """Glued-double index from the canonical class: (c1^2 - signature)/8."""
    nums._require("c1_squared", "signature")
    quotient, residue = divmod(nums.c1_squared - nums.signature, 8)
    if residue:
        raise IntegralityViolation(
            f"c1^2 - signature = {nums.c1_squared - nums.signature} "
            "is not divisible by 8",
            residue,
        )
    return quotient


def ind_from_c2(nums: SpinCNumbers) -> int:
    """Glued-double index rewritten through c2: (2*c2 + signature + euler)/4.

    Agrees with :func:`ind_from_c1` whenever both are computable, because
    the four-manifold relation is enforced at construction.
    """
    nums._require("c2", "signature", "euler")
    total = 2 * nums.c2 + nums.signature + nums.euler
    quotient, residue = divmod(total, 4)
    if residue:
        raise IntegralityViolation(
            f"2*c2 + signature + euler = {total} is not divisible by 4",
            residue,
        )
    return quotient


def seiberg_witten_dim(x1_euler: int) -> int:
    """Formal moduli dimension on the glued double: minus the Euler
    characteristic of the orientation-reversed side."""
    return -_as_int("x1_euler", x1_euler)


def seiberg_witten_dim_reversed(x0_euler: int) -> int:
    """Same after reversing the global orientation, which swaps the sides."""
    return -_as_int("x0_euler", x0_euler)


def coball_descriptor(euler_of_base: int) -> FillingDescriptor:
    """Filling data of the co-disk bundle over a closed oriented surface.

    The disk bundle retracts onto the zero section, whose self-intersection
    is the Euler characteristic of the base, so the signature is its sign;
    co-disk bundles are Stein.
    """
    euler = _as_int("euler_of_base", euler_of_base)
    if euler % 2:
        raise AdmissibilityError(
            f"a closed oriented surface has even Euler characteristic, "
            f"got {euler}"
        )
    if euler > 2:
        raise AdmissibilityError(
            f"no closed oriented surface has Euler characteristic {euler} > 2"
        )
    sign = (euler > 0) - (euler < 0)
    return FillingDescriptor(signature=sign, euler=euler, stein=True)


def fio_index_surfaces(base0_euler: int, base1_euler: int) -> int:
    """Index of the operator induced by a contact diffeomorphism of the
    co-sphere bundles of two surfaces.

    A contact diffeomorphism forces the rational first homology of the two
    bases to agree, hence equal Euler characteristics; the index is then
    computed (not hard-coded) from the two co-disk fillings and always
    comes out zero.
    """
    if base0_euler != base1_euler:
        raise AdmissibilityError(
            "a contact diffeomorphism of co-sphere bundles forces equal "
            f"base Euler characteristics, got {base0_euler} and {base1_euler}"
        )
    return glued_double_index(
        coball_descriptor(base0_euler), coball_descriptor(base1_euler)
    )


def rind_bundle_coefficients(ind_glued: int, bterm0: int, bterm1: int) -> int:
    """Arithmetic shell of the vector-bundle gluing formula.

    With both boundary terms zero (Stein base) the glued index passes
    through, which is the Toeplitz-index reduction.
    """
    return (
        _as_int("ind_glued", ind_glued)
        - _as_int("bterm0", bterm0)
        + _as_int("bterm1", bterm1)
    )


def random_spinc_numbers(rng, span: int = 50) -> SpinCNumbers:
    """A random consistent set of characteristic numbers.

    Draws the glued index, the signature, and the Euler parity freely and
    solves the four-manifold relation for the remaining numbers, so both
    index routes are defined and agree by construction.
    """
    index = int(rng.integers(-span, span + 1))
    signature = int(rng.integers(-span, span + 1))
    half_excess = int(rng.integers(-span, span + 1))
    return SpinCNumbers(
        c1_squared=8 * index + signature,
        c2=2 * index - signature - half_excess,
        signature=signature,
        euler=signature + 2 * half_excess,
    )
