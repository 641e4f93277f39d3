"""Glued-boundary index arithmetic tests."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fockindex.errors import AdmissibilityError, IntegralityViolation
from fockindex.topo import (
    DEFAULT_CONTACT_DEGREE,
    FillingDescriptor,
    SpinCNumbers,
    coball_descriptor,
    fio_index_surfaces,
    glued_double_index,
    ind_from_c1,
    ind_from_c2,
    random_spinc_numbers,
    rind_3d,
    rind_bundle_coefficients,
    rind_weinstein,
    seiberg_witten_dim,
    seiberg_witten_dim_reversed,
)

ints = st.integers(-100, 100)


def test_descriptor_defaults_and_chi_prime_derivation():
    x = FillingDescriptor(signature=1, euler=2)
    assert x.chi_prime == 0 and x.h01 == 0 and not x.stein
    assert FillingDescriptor(0, 0, h01=3).chi_prime == -3
    assert FillingDescriptor(0, 0, h01=3, h02=1).chi_prime == -2
    # explicit chi_prime wins (higher-dimensional data)
    assert FillingDescriptor(0, 0, chi_prime=5).chi_prime == 5


def test_descriptor_validation():
    with pytest.raises(AdmissibilityError):
        FillingDescriptor(0, 0, h01=-1)
    with pytest.raises(AdmissibilityError):
        FillingDescriptor(0, 0, stein=True, h01=2)
    with pytest.raises(AdmissibilityError):
        FillingDescriptor(0, 0, stein=True, chi_prime=-1)
    with pytest.raises(AdmissibilityError):
        FillingDescriptor(0.5, 0)
    stein = FillingDescriptor(1, 2, stein=True)
    assert stein.chi_prime == 0


@pytest.mark.parametrize("value", ["no", 1, 0, None, [True]])
def test_stein_must_be_a_boolean(value):
    with pytest.raises(AdmissibilityError, match="stein must be true or false"):
        FillingDescriptor(1, 2, stein=value)


def test_spinc_relation_enforced():
    # 4*c2 = c1^2 - 3*sign - 2*euler:  4*(-1) = 9 - 3*1 - 2*5
    SpinCNumbers(c1_squared=9, c2=-1, signature=1, euler=5)
    with pytest.raises(IntegralityViolation) as excinfo:
        SpinCNumbers(c1_squared=9, c2=0, signature=1, euler=5)
    assert excinfo.value.residue == 4
    # partial data skips the relation
    SpinCNumbers(c1_squared=10, signature=1)


def test_rind_weinstein_stein_and_identical():
    stein0 = FillingDescriptor(1, 2, stein=True)
    stein1 = FillingDescriptor(-1, 4, stein=True)
    assert rind_weinstein(5, stein0, stein1) == 5
    x = FillingDescriptor(2, 3, h01=1)
    assert rind_weinstein(0, x, x) == 0


def test_rind_weinstein_deformation_case():
    # same underlying space, two complex structures: the glued index
    # vanishes and the relative index is the change in chi_prime
    j0 = FillingDescriptor(1, 3, chi_prime=-2)
    j1 = FillingDescriptor(1, 3, chi_prime=-5)
    assert rind_weinstein(0, j0, j1) == j1.chi_prime - j0.chi_prime == -3


def test_rind_3d_values():
    x = FillingDescriptor(1, 2, h01=1)
    assert rind_3d(x, x) == 0
    s0 = FillingDescriptor(1, 2, stein=True)
    s1 = FillingDescriptor(1, 2, stein=True)
    assert rind_3d(s0, s1) == 0
    t0 = FillingDescriptor(1, 4, stein=True)
    t1 = FillingDescriptor(-1, 2, stein=True)
    assert rind_3d(t0, t1) == 1
    # Dolbeault contribution enters with signs
    u0 = FillingDescriptor(1, 4, h01=2)
    u1 = FillingDescriptor(-1, 2, h01=3)
    assert rind_3d(u0, u1) == 2 - 3 + 1


def test_rind_3d_integrality_gate():
    x0 = FillingDescriptor(1, 2)
    x1 = FillingDescriptor(0, 0)
    with pytest.raises(IntegralityViolation) as excinfo:
        rind_3d(x0, x1)
    assert excinfo.value.residue == 3


def test_glued_double_values():
    x = FillingDescriptor(3, -4)
    assert glued_double_index(x, x) == 0
    assert glued_double_index(
        FillingDescriptor(1, 4), FillingDescriptor(-1, 2)
    ) == 1
    assert glued_double_index(coball_descriptor(-2), coball_descriptor(-2)) == 0
    with pytest.raises(IntegralityViolation):
        glued_double_index(FillingDescriptor(1, 2), FillingDescriptor(0, 0))


@given(s0=ints, s1=ints, chi0=ints, m=ints)
def test_glued_double_antisymmetry(s0, s1, chi0, m):
    chi1 = s0 - s1 + chi0 - 4 * m
    x0 = FillingDescriptor(s0, chi0)
    x1 = FillingDescriptor(s1, chi1)
    assert glued_double_index(x0, x1) == m
    assert glued_double_index(x1, x0) == -m


@given(s0=ints, s1=ints, s2=ints, chi0=ints, m01=ints, m12=ints, h0=st.integers(0, 20), h1=st.integers(0, 20), h2=st.integers(0, 20))
def test_rind_3d_antisymmetry_and_cocycle(s0, s1, s2, chi0, m01, m12, h0, h1, h2):
    chi1 = s0 - s1 + chi0 - 4 * m01
    chi2 = s1 - s2 + chi1 - 4 * m12
    x0 = FillingDescriptor(s0, chi0, h01=h0)
    x1 = FillingDescriptor(s1, chi1, h01=h1)
    x2 = FillingDescriptor(s2, chi2, h01=h2)
    assert rind_3d(x0, x1) == -rind_3d(x1, x0)
    assert rind_3d(x0, x2) == rind_3d(x0, x1) + rind_3d(x1, x2)


def test_ind_from_c1_values():
    assert ind_from_c1(SpinCNumbers(c1_squared=9, signature=1)) == 1
    assert ind_from_c1(SpinCNumbers(c1_squared=-7, signature=-7)) == 0
    with pytest.raises(IntegralityViolation) as excinfo:
        ind_from_c1(SpinCNumbers(c1_squared=10, signature=1))
    assert excinfo.value.residue == 1
    with pytest.raises(AdmissibilityError, match="missing"):
        ind_from_c1(SpinCNumbers(signature=1))


def test_ind_from_c2_values():
    assert ind_from_c2(SpinCNumbers(c2=0, signature=1, euler=3)) == 1
    with pytest.raises(IntegralityViolation) as excinfo:
        ind_from_c2(SpinCNumbers(c2=1, signature=0, euler=1))
    assert excinfo.value.residue == 3
    with pytest.raises(AdmissibilityError, match="missing"):
        ind_from_c2(SpinCNumbers(c1_squared=8, signature=0))


def test_both_index_routes_agree_on_random_consistent_numbers():
    rng = np.random.default_rng(12)
    for _ in range(1000):
        nums = random_spinc_numbers(rng)
        assert ind_from_c1(nums) == ind_from_c2(nums)


@given(index=ints, signature=ints, half_excess=ints)
def test_index_routes_agree_by_elimination(index, signature, half_excess):
    nums = SpinCNumbers(
        c1_squared=8 * index + signature,
        c2=2 * index - signature - half_excess,
        signature=signature,
        euler=signature + 2 * half_excess,
    )
    assert ind_from_c1(nums) == ind_from_c2(nums) == index


def test_seiberg_witten_dims():
    assert seiberg_witten_dim(2) == -2
    assert seiberg_witten_dim(0) == 0
    assert seiberg_witten_dim_reversed(4) == -4


def test_coball_descriptors():
    sphere = coball_descriptor(2)
    assert (sphere.signature, sphere.euler) == (1, 2)
    assert sphere.stein and sphere.chi_prime == 0 and sphere.h01 == 0
    torus = coball_descriptor(0)
    assert (torus.signature, torus.euler) == (0, 0)
    genus2 = coball_descriptor(-2)
    assert (genus2.signature, genus2.euler) == (-1, -2)
    with pytest.raises(AdmissibilityError):
        coball_descriptor(1)
    with pytest.raises(AdmissibilityError):
        coball_descriptor(4)


def test_fio_index_surfaces():
    assert fio_index_surfaces(2, 2) == 0
    assert fio_index_surfaces(0, 0) == 0
    assert fio_index_surfaces(-6, -6) == 0
    with pytest.raises(AdmissibilityError):
        fio_index_surfaces(2, 0)


@given(euler=st.integers(-60, 1))
def test_fio_vanishes_on_all_admissible_surfaces(euler):
    chi = 2 * euler  # any even value <= 2
    assert fio_index_surfaces(chi, chi) == 0


def test_rind_bundle_coefficients():
    assert rind_bundle_coefficients(7, 3, 3) == 7
    assert rind_bundle_coefficients(5, 2, 1) == 4
    # Stein base: both boundary terms vanish
    assert rind_bundle_coefficients(9, 0, 0) == 9


def test_contact_degree_default():
    assert DEFAULT_CONTACT_DEGREE == 0
