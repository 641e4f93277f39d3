"""Projector-pair index tests.

The rank difference is the oracle: every index route (restricted kernels,
remainder traces, brute-force ranks) must produce it, over randomized pairs
and for the structured Toeplitz / block-embedding instances whose expected
values are written down by hand.
"""

import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fockindex.errors import (
    AdmissibilityError,
    DimensionMismatchError,
    IllConditionedKernelError,
    NonIntegerTraceError,
)
from fockindex.pairs import (
    Projector,
    ProjectorPair,
    agranovich_dynin_shadow,
    coordinate_projector,
    kernel_index,
    logarithmic_property,
    random_projector,
    relative_index_rank,
    relative_index_trace,
    toeplitz_winding,
)
from fockindex.pairs import (
    _EPS,
    _IDEMPOTENT_TOL,
    _adjoint,
    _comparison_matrix,
    _gap_checked_rank,
    _idempotency_tolerance,
    _rank_with_gap,
    _remainder,
    _restricted_kernel_dims,
    _truncated_pinv,
)


def test_projector_validation():
    with pytest.raises(AdmissibilityError):
        Projector(np.array([[0.5, 0.0], [0.0, 1.0]]))
    with pytest.raises(DimensionMismatchError):
        Projector(np.zeros((2, 3)))
    p = Projector(np.diag([1.0, 0.0, 1.0]).astype(complex))
    assert p.rank == 2
    assert p.self_adjoint
    assert p.complement().rank == 1
    skew = np.array([[1.0, 1.0], [0.0, 0.0]])  # idempotent, not hermitian
    assert np.abs(skew @ skew - skew).max() == 0.0
    assert not Projector(skew).self_adjoint


def test_identical_projectors_give_zero():
    rng = np.random.default_rng(0)
    p = random_projector(rng, 12, 5)
    pair = ProjectorPair.from_projectors(p, p)
    assert kernel_index(p, p) == 0
    assert np.abs(pair.comparison - np.eye(12)).max() < 1e-12
    assert np.abs(pair.k1).max() < 1e-9 and np.abs(pair.k2).max() < 1e-9
    assert relative_index_trace(pair).index == 0


def test_rank_seven_vs_four_gives_three():
    rng = np.random.default_rng(7)
    p = random_projector(rng, 20, 7)
    r = random_projector(rng, 20, 4)
    pair = ProjectorPair.from_projectors(p, r)
    assert kernel_index(p, r) == 3
    assert relative_index_trace(pair).index == 3
    assert relative_index_rank(p, r) == 3


def test_triple_agreement_and_antisymmetry_seeded():
    rng = np.random.default_rng(2024)
    for _ in range(60):
        dim = int(rng.integers(2, 41))
        p = random_projector(rng, dim, int(rng.integers(0, dim + 1)))
        r = random_projector(rng, dim, int(rng.integers(0, dim + 1)))
        pair = ProjectorPair.from_projectors(p, r)
        expected = relative_index_rank(p, r)
        assert kernel_index(p, r) == expected
        assert relative_index_trace(pair).index == expected
        assert kernel_index(p.complement(), r.complement()) == -expected


def test_non_self_adjoint_pairs_agree():
    rng = np.random.default_rng(31)
    for _ in range(10):
        dim = int(rng.integers(3, 25))
        p = random_projector(rng, dim, int(rng.integers(1, dim)), self_adjoint=False)
        r = random_projector(rng, dim, int(rng.integers(1, dim)), self_adjoint=False)
        assert not p.self_adjoint
        pair = ProjectorPair.from_projectors(p, r)
        expected = relative_index_rank(p, r)
        assert kernel_index(p, r) == expected
        assert relative_index_trace(pair).index == expected


def test_parametrix_perturbation_keeps_trace_index():
    rng = np.random.default_rng(5)
    p = random_projector(rng, 30, 11)
    r = random_projector(rng, 30, 4)
    pair = ProjectorPair.from_projectors(p, r)
    base = relative_index_trace(pair)
    assert base.index == 7
    for _ in range(5):
        noise = rng.normal(size=(30, 30)) + 1j * rng.normal(size=(30, 30))
        pert = pair.with_smoothing(noise)
        with_noise = relative_index_trace(pert)
        assert with_noise.index == base.index
        # the raw values differ microscopically but round identically
        assert abs(with_noise.raw - base.raw) < 1e-6


def test_square_comparison_has_index_zero():
    rng = np.random.default_rng(11)
    for _ in range(10):
        dim = int(rng.integers(2, 30))
        p = random_projector(rng, dim, int(rng.integers(0, dim + 1)))
        r = random_projector(rng, dim, int(rng.integers(0, dim + 1)))
        pair = ProjectorPair.from_projectors(p, r)
        value = np.trace(pair.k2).real - np.trace(pair.k1).real
        assert round(value) == 0
        assert abs(value - round(value)) < 1e-8


def test_exact_inverse_parametrix_means_equal_ranks():
    """An invertible comparison forces rank P = rank R; the remainders of its
    truncated pseudo-inverse, the parametrix of oblique pairs, vanish."""
    rng = np.random.default_rng(13)
    p = random_projector(rng, 16, 6)
    r = random_projector(rng, 16, 6)
    pair = ProjectorPair.from_projectors(p, r)
    u = _truncated_pinv(pair.comparison)
    assert np.abs(_remainder(pair.comparison, u)).max() < 1e-9
    assert np.abs(_remainder(u, pair.comparison)).max() < 1e-9
    assert relative_index_trace(pair).index == 0 == kernel_index(p, r)
    # an oblique pair of equal ranks holds that pseudo-inverse itself
    p, r = (random_projector(rng, 16, 6, self_adjoint=False) for _ in range(2))
    oblique = ProjectorPair.from_projectors(p, r)
    assert np.array_equal(oblique.parametrix, _truncated_pinv(oblique.comparison))
    assert np.abs(oblique.k1).max() < 1e-9
    assert np.abs(oblique.k2).max() < 1e-9
    assert relative_index_trace(oblique).index == 0 == kernel_index(p, r)


def test_degenerate_orthogonal_rank_ones_warn_and_give_zero():
    e0 = coordinate_projector(6, [0])
    e1 = coordinate_projector(6, [1])
    with pytest.warns(UserWarning, match="degenerate") as caught:
        assert kernel_index(e0, e1) == 0
    # the warning names the line that called kernel_index
    assert [warning.filename for warning in caught] == [__file__]


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(1, 64), data=st.data())
def test_rank_by_trace_matches_gap_checked_svd(dim, data):
    rank = data.draw(st.integers(0, dim))
    seed = data.draw(st.integers(0, 2**32 - 1))
    p = random_projector(np.random.default_rng(seed), dim, rank)
    assert p.self_adjoint
    # the column count, the dense SVD rank and the trace oracle agree
    zero = coordinate_projector(dim, [])
    assert p.rank == _rank_with_gap(p.matrix, "projector") == rank
    assert relative_index_rank(p, zero) == rank


def test_rank_off_an_integral_trace_is_refused():
    # validated projectors keep their trace integral, so emulate a drifted
    # matrix on a bare instance
    drifted = Projector._held(
        matrix=np.diag([1.0, 0.5]).astype(complex), image=np.eye(2)[:, :1]
    )
    with pytest.raises(NonIntegerTraceError, match="projector trace"):
        relative_index_rank(drifted, coordinate_projector(2, [0]))


def _count_factorisations(monkeypatch):
    calls = []

    def counting(name, factorise):
        def wrapped(*args, **kwargs):
            calls.append((name, np.shape(args[0]), kwargs.get("mode")))
            return factorise(*args, **kwargs)

        return wrapped

    for name in ("svd", "eigh", "qr"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    return calls


def test_restricted_kernel_dims_factorises_each_projector_once(monkeypatch):
    calls = _count_factorisations(monkeypatch)
    rng = np.random.default_rng(53)
    p = random_projector(rng, 12, 5)
    r = random_projector(rng, 12, 8)
    # one complete QR of the kept columns per projector, and no eigh
    assert calls == [("qr", (12, 5), "complete"), ("qr", (12, 8), "complete")]
    calls.clear()
    assert _restricted_kernel_dims(p, r) == (0, 3)
    # one SVD of the k_R x k_P overlap decides both directions
    assert calls == [("svd", (8, 5), None)]
    calls.clear()
    # the complements swap the bases, so only the overlap's SVD remains
    assert _restricted_kernel_dims(p.complement(), r.complement()) == (3, 0)
    assert calls == [("svd", (4, 7), None)]
    calls.clear()
    assert kernel_index(p, r) == -3 and kernel_index(r, p) == 3
    assert [name for name, _, _ in calls] == ["svd", "svd"]


def test_toeplitz_winding_builds_no_parametrix(monkeypatch):
    calls = _count_factorisations(monkeypatch)
    assert toeplitz_winding(16, 3) == 3
    # two coordinate projectors overlap by their support intersection: no
    # factorisation runs, and the 33 x 33 comparison operator is never
    # formed
    assert calls == []
    # at the largest window a dense 2049 x 2049 complex matrix alone would
    # take 67 MB
    tracemalloc.start()
    try:
        assert toeplitz_winding(1024, 3) == 3
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**22


def test_ill_conditioned_kernel_is_refused():
    # a diagonal idempotent-to-tolerance matrix with an entry in the gap
    # cannot be built (idempotency fails), so corrupt the pair after the
    # fact: feed the kernel computation a projector-like matrix directly
    eps = 1e-10
    m = np.diag([1.0, eps, 0.0]).astype(complex)
    # not idempotent at tolerance, as expected
    with pytest.raises(AdmissibilityError):
        Projector(m)
    # but a genuine near-tangent pair can land in the gap: build projectors
    # onto lines at angle phi where sin(phi) falls inside it
    phi = 1e-10
    v1 = np.array([1.0, 0.0])
    v2 = np.array([np.cos(phi), np.sin(phi)])
    p = Projector(np.outer(v1, v1).astype(complex))
    r = Projector(np.outer(v2, v2).astype(complex))
    with pytest.raises(IllConditionedKernelError):
        kernel_index(p.complement(), r)


def test_comparison_is_formed_once_per_pair(monkeypatch):
    import fockindex.pairs as pairs

    calls = []
    original = pairs._comparison_matrix

    def counting(p, r):
        calls.append(1)
        return original(p, r)

    monkeypatch.setattr(pairs, "_comparison_matrix", counting)
    rng = np.random.default_rng(19)
    p = random_projector(rng, 8, 3)
    r = random_projector(rng, 8, 5)
    built = ProjectorPair.from_projectors(p, r)
    assert len(calls) == 1
    smoothed = built.with_smoothing(np.ones((8, 8)))
    assert len(calls) == 1
    assert smoothed.comparison is built.comparison
    assert np.array_equal(built.comparison, original(p.matrix, r.matrix))


def test_non_integer_trace_is_refused():
    """The integrality rail on the trace route.

    For any pair the trace value is exactly parametrix-independent (it
    collapses to rank P - rank R), because the remainders are derived from
    T and U; so the rail is only reachable through remainders that are not
    those of the pair.  Emulate that with a bare stand-in carrying
    corrupted remainders.
    """
    rng = np.random.default_rng(17)
    p = random_projector(rng, 8, 3)
    r = random_projector(rng, 8, 5)
    good = ProjectorPair.from_projectors(p, r)
    drifted = SimpleNamespace(
        p=good.p, r=good.r, k1=good.k1, k2=good.k2 + 0.01 * np.eye(8)
    )
    with pytest.raises(NonIntegerTraceError):
        relative_index_trace(drifted)


def test_logarithmic_property_on_random_triples():
    rng = np.random.default_rng(23)
    for _ in range(15):
        dim = int(rng.integers(3, 30))
        p = random_projector(rng, dim, int(rng.integers(0, dim + 1)))
        q = random_projector(rng, dim, int(rng.integers(0, dim + 1)))
        r = random_projector(rng, dim, int(rng.integers(0, dim + 1)))
        report = logarithmic_property(p, q, r)
        assert report["consistent"]
        assert report["sum_of_steps"] == report["first_step"] + report["second_step"]
        # the overlap composite against the dense R @ Q @ P rank route
        forward, backward = _dense_kernel_dims(p, r, q)
        assert report["composite_index"] == forward - backward


def test_logarithmic_property_specific_ranks():
    rng = np.random.default_rng(29)
    p = random_projector(rng, 24, 9)
    q = random_projector(rng, 24, 6)
    r = random_projector(rng, 24, 2)
    report = logarithmic_property(p, q, r)
    assert report["first_step"] == 3
    assert report["second_step"] == 4
    assert report["composite_index"] == 7
    # middle equal to an endpoint collapses to the plain relative index
    collapsed = logarithmic_property(p, p, r)
    assert collapsed["composite_index"] == kernel_index(p, r)
    # matching endpoints cancel
    closed = logarithmic_property(p, q, p)
    assert closed["composite_index"] == 0


@pytest.mark.parametrize("k", range(-5, 6))
def test_toeplitz_winding_window64(k):
    assert toeplitz_winding(64, k) == k


def test_toeplitz_winding_rejects_oversized():
    with pytest.raises(AdmissibilityError):
        toeplitz_winding(10, 6)
    with pytest.raises(AdmissibilityError):
        toeplitz_winding(10, -6)
    with pytest.raises(AdmissibilityError):
        toeplitz_winding(0, 0)


@settings(max_examples=25, deadline=None)
@given(window=st.integers(4, 24), k=st.integers(-12, 12))
def test_toeplitz_winding_property(window, k):
    if abs(k) > window / 2:
        with pytest.raises(AdmissibilityError):
            toeplitz_winding(window, k)
    else:
        assert toeplitz_winding(window, k) == k


def test_agranovich_dynin_shadow_ranks():
    rng = np.random.default_rng(41)
    s1 = random_projector(rng, 9, 5)
    s2 = random_projector(rng, 9, 2)
    report = agranovich_dynin_shadow(s1, s2)
    assert report["difference"] == 3
    assert report["rank_difference"] == 3
    assert report["corner_index"] == 3
    assert report["consistent"]
    swapped = agranovich_dynin_shadow(s2, s1)
    assert swapped["difference"] == -3
    same = agranovich_dynin_shadow(s1, s1)
    assert same["difference"] == 0 and same["consistent"]
    with pytest.raises(DimensionMismatchError):
        agranovich_dynin_shadow(s1, random_projector(rng, 5, 2))


def test_agranovich_dynin_seeded_family():
    rng = np.random.default_rng(43)
    for _ in range(12):
        dim = int(rng.integers(2, 12))
        s1 = random_projector(rng, dim, int(rng.integers(0, dim + 1)))
        s2 = random_projector(rng, dim, int(rng.integers(0, dim + 1)))
        report = agranovich_dynin_shadow(s1, s2)
        assert report["consistent"]


# --------------------------------------------------------------------------
# every reused factorisation against the dense SVD route it replaces


def _dense_bases(matrix):
    """Image, coimage, kernel and cokernel of ``matrix`` from one dense SVD."""
    u, svals, vh = np.linalg.svd(matrix)
    rank = _gap_checked_rank(svals, "dense route")
    v = vh.conj().T
    return u[:, :rank], v[:, :rank], v[:, rank:], u[:, rank:]


def _dense_kernel_dims(p, r, q=None):
    """Restricted kernel dimensions of R (Q) P by the dense route."""
    image_p, coimage_r = _dense_bases(p.matrix)[0], _dense_bases(r.matrix)[1]
    product = r.matrix @ p.matrix if q is None else r.matrix @ q.matrix @ p.matrix
    forward = _rank_with_gap(product @ image_p, "restricted comparison")
    backward = _rank_with_gap(product.conj().T @ coimage_r, "adjoint comparison")
    return image_p.shape[1] - forward, coimage_r.shape[1] - backward


def _assert_spans(basis, dense):
    """``basis`` is orthonormal and spans what ``dense`` spans."""
    assert basis.shape == dense.shape
    gram = basis.conj().T @ basis - np.eye(basis.shape[1])
    assert np.abs(gram).max(initial=0.0) < 1e-12
    spanned = basis @ basis.conj().T - dense @ dense.conj().T
    assert np.abs(spanned).max(initial=0.0) < 1e-10


def _assert_four_bases(projector):
    """The four bases against the dense SVD of the projector's matrix."""
    held = (projector.image, projector.coimage, projector.kernel, projector.cokernel)
    for basis, dense in zip(held, _dense_bases(projector.matrix)):
        _assert_spans(basis, dense)
    assert projector.rank == held[0].shape[1]


def _assert_complements(projector):
    """Complement and double complement: bases swapped, both match dense."""
    complement = projector.complement()
    twice = complement.complement()
    for built in (projector, complement, twice):
        _assert_four_bases(built)
    # swapped bit for bit, not re-factored
    assert np.array_equal(complement.image, projector.kernel)
    assert np.array_equal(complement.coimage, projector.cokernel)
    assert np.array_equal(twice.image, projector.image)
    assert np.array_equal(twice.coimage, projector.coimage)
    assert complement.self_adjoint == twice.self_adjoint == projector.self_adjoint


_draws = st.integers(1, 64).flatmap(
    lambda dim: st.tuples(
        st.just(dim),
        st.integers(0, dim),
        st.integers(0, dim),
        st.integers(0, 2**32 - 1),
    )
)


@settings(max_examples=40, deadline=None)
@given(draw=_draws, edge=st.sampled_from(["drawn", "zero", "full"]))
def test_qr_bases_match_the_dense_route(draw, edge):
    dim, rank, _, seed = draw
    rank = {"drawn": rank, "zero": 0, "full": dim}[edge]
    p = random_projector(np.random.default_rng(seed), dim, rank)
    assert p.self_adjoint and p.rank == rank
    _assert_complements(p)
    # the same matrix handed to the constructor: one SVD, self-adjoint
    rebuilt = Projector(p.matrix)
    assert rebuilt.self_adjoint
    _assert_complements(rebuilt)


@settings(max_examples=40, deadline=None)
@given(draw=_draws)
def test_kernel_dims_match_the_dense_route(draw):
    dim, rank_p, rank_r, seed = draw
    rng = np.random.default_rng(seed)
    p = random_projector(rng, dim, rank_p)
    r = random_projector(rng, dim, rank_r)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert _restricted_kernel_dims(p, r) == _dense_kernel_dims(p, r)
        flipped = (p.complement(), r.complement())
        assert _restricted_kernel_dims(*flipped) == _dense_kernel_dims(*flipped)


@settings(max_examples=40, deadline=None)
@given(
    dim=st.integers(1, 64),
    first=st.sets(st.integers(0, 63)),
    second=st.sets(st.integers(0, 63)),
)
def test_coordinate_bases_match_the_dense_route(dim, first, second):
    p = coordinate_projector(dim, sorted(i for i in first if i < dim))
    r = coordinate_projector(dim, sorted(i for i in second if i < dim))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        # two supports overlap by their intersection; against a factored
        # partner the coordinate projector's identity columns take part
        assert _restricted_kernel_dims(p, r) == _dense_kernel_dims(p, r)
        factored = Projector(r.matrix)
        assert _restricted_kernel_dims(p, factored) == _dense_kernel_dims(p, r)
    for projector in (p, r):
        assert projector.rank == projector.support.sum()
        _assert_complements(projector)


@settings(max_examples=40, deadline=None)
@given(draw=_draws, self_adjoint=st.booleans())
def test_column_qr_draw_matches_the_full_qr(draw, self_adjoint):
    dim, rank, _, seed = draw
    drawing = np.random.default_rng(seed)
    drawn = random_projector(drawing, dim, rank, self_adjoint=self_adjoint)
    # the dense route: factor the whole square whose first ``rank`` columns
    # are the drawn ones, keep those columns
    rng = np.random.default_rng(seed)
    real, imag = rng.normal(size=(2, dim, rank))
    other = np.random.default_rng(seed + 1).normal(size=(2, dim, dim - rank))
    gauss = np.hstack((real + 1j * imag, other[0] + 1j * other[1]))
    basis = np.linalg.qr(gauss)[0][:, :rank]
    matrix = basis @ basis.conj().T
    matrix = 0.5 * (matrix + matrix.conj().T)
    if not self_adjoint:
        mix = np.eye(dim) + 0.1 * rng.normal(size=(dim, dim))
        matrix = mix @ matrix @ np.linalg.inv(mix)
    scale = max(1.0, np.abs(matrix).max())
    assert np.abs(drawn.matrix - matrix).max() < 1e-10 * scale
    # the draw takes 2 * dim * rank normals, and dim^2 more for the mix
    counted = np.random.default_rng(seed)
    counted.standard_normal(2 * dim * rank + (0 if self_adjoint else dim**2))
    assert drawing.bit_generator.state == counted.bit_generator.state
    assert drawing.integers(2**62) == rng.integers(2**62)


@settings(max_examples=30, deadline=None)
@given(draw=_draws)
def test_smoothed_pair_matches_a_rebuilt_pair(draw):
    dim, rank_p, rank_r, seed = draw
    rng = np.random.default_rng(seed)
    p = random_projector(rng, dim, rank_p)
    r = random_projector(rng, dim, rank_r)
    noise = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    reused = ProjectorPair.from_projectors(p, r).with_smoothing(noise)
    # the same pair assembled by hand, with T and its parametrix T* (the
    # draws are self-adjoint) formed afresh
    t = 2 * (r.matrix @ p.matrix) + np.eye(dim) - r.matrix - p.matrix
    rebuilt = ProjectorPair(p.matrix, r.matrix, t, t.conj().T + noise)
    for name in ("comparison", "parametrix", "k1", "k2"):
        assert np.array_equal(getattr(reused, name), getattr(rebuilt, name)), name
    assert relative_index_trace(reused) == relative_index_trace(rebuilt)
    assert relative_index_trace(reused).index == rank_p - rank_r
    with pytest.raises(DimensionMismatchError):
        ProjectorPair.from_projectors(p, r).with_smoothing(np.zeros((dim + 1, dim)))


@settings(max_examples=25, deadline=None)
@given(draw=_draws)
def test_oblique_fallback_matches_the_dense_route(draw):
    dim, rank_p, rank_r, seed = draw
    rng = np.random.default_rng(seed)
    p = random_projector(rng, dim, rank_p, self_adjoint=False)
    r = random_projector(rng, dim, rank_r, self_adjoint=False)
    if p.self_adjoint or r.self_adjoint:  # rank 0 or full rank stays hermitian
        return
    _assert_complements(p)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert _restricted_kernel_dims(p, r) == _dense_kernel_dims(p, r)


def test_factor_bases_are_gated(monkeypatch):
    # a QR whose columns drift off orthonormality makes U U* non-idempotent
    exact = np.linalg.qr

    def drifted(*args, **kwargs):
        q, r = exact(*args, **kwargs)
        return q * (1 + 1e-9), r

    monkeypatch.setattr(np.linalg, "qr", drifted)
    with pytest.raises(AdmissibilityError, match=r"U\*U - I"):
        random_projector(np.random.default_rng(3), 6, 2)


# --------------------------------------------------------------------------
# the idempotency gate scales with the rounding of P @ P


def _conjugated(rng, dim, rank, scale):
    """A Haar projector P conjugated by M = I + scale * N(0, 1), oblique.

    M P M^-1 is formed as A (B* A)^-1 B*, for A and B orthonormal bases of
    its range M range(P) and of its adjoint's range M^-* range(P), so its
    idempotency defect rounds with its own norm and not with the condition
    of M (a product through M^-1 missed the gate at cond(M) near 6e4).
    At scale 10 its norm can pass 1e4.
    """
    image = random_projector(rng, dim, rank).image
    mix = np.eye(dim) + scale * rng.normal(size=(dim, dim))
    a = np.linalg.qr(mix @ image)[0]
    b = np.linalg.qr(np.linalg.solve(mix.conj().T, image))[0]
    return Projector(a @ np.linalg.solve(b.conj().T @ a, b.conj().T))


@settings(max_examples=12, deadline=None)
@given(
    dim=st.integers(64, 128),
    scale=st.floats(0.1, 10.0),
    rank_p=st.integers(1, 63),
    rank_r=st.integers(1, 63),
    seed=st.integers(0, 2**32 - 1),
)
# this r has norm 1.7e4, and its SVD's rounding zeros (about 1.8e-12)
# lie above the absolute gap's lower edge
@example(dim=64, scale=10.0, rank_p=20, rank_r=9, seed=2442)
def test_large_oblique_pairs_keep_their_index(dim, scale, rank_p, rank_r, seed):
    rng = np.random.default_rng(seed)
    r = _conjugated(rng, dim, rank_r, scale)
    p = _conjugated(rng, dim, rank_p, scale)
    assert not (p.self_adjoint or r.self_adjoint)
    assert (p.rank, r.rank) == (rank_p, rank_r)
    assert kernel_index(p, r) == rank_p - rank_r


@settings(max_examples=8, deadline=None)
@given(dim=st.integers(128, 512), seed=st.integers(0, 2**32 - 1))
def test_idempotency_gate_admits_large_oblique_draws(dim, seed):
    rng = np.random.default_rng(seed)
    p = random_projector(rng, dim, dim // 2, self_adjoint=False)
    assert not p.self_adjoint
    tolerance = _idempotency_tolerance(p.matrix)
    # a perturbation well above the gate is still refused
    bump = np.zeros((dim, dim), dtype=complex)
    bump[0, 0] = 1e3 * tolerance
    with pytest.raises(AdmissibilityError, match="not idempotent"):
        Projector(p.matrix + bump)


@settings(max_examples=30, deadline=None)
@given(draw=_draws)
def test_idempotency_gate_keeps_its_floor_at_small_dimension(draw):
    dim, rank, _, seed = draw
    for self_adjoint in (True, False):
        p = random_projector(
            np.random.default_rng(seed), dim, rank, self_adjoint=self_adjoint
        )
        assert _idempotency_tolerance(p.matrix) == _IDEMPOTENT_TOL


# a stack of pairs on one space: each side's rank (0, full or drawn) and
# whether it is oblique
_stacked_draws = st.tuples(st.integers(1, 40), st.integers(1, 5)).flatmap(
    lambda sizes: st.tuples(
        st.just(sizes[0]),
        st.lists(
            st.tuples(
                *[st.one_of(st.just(0), st.just(sizes[0]), st.integers(0, sizes[0]))] * 2,
                st.booleans(),
                st.booleans(),
            ),
            min_size=sizes[1],
            max_size=sizes[1],
        ),
        st.integers(0, 2**32 - 1),
    )
)


@settings(max_examples=40, deadline=None)
@given(draw=_stacked_draws)
def test_stacked_dense_routes_equal_the_single_pair_routes(draw):
    dim, sides, seed = draw
    rng = np.random.default_rng(seed)
    drawn = [
        (random_projector(rng, dim, rank_p, self_adjoint=not oblique_p),
         random_projector(rng, dim, rank_r, self_adjoint=not oblique_r))
        for rank_p, rank_r, oblique_p, oblique_r in sides
    ]
    # two homogeneous stacks, the pairs that take T* and those that take the
    # pseudo-inverse: each member has the bits of the same pair on its own
    for oblique in (False, True):
        group = [pair for pair in drawn
                 if oblique != (pair[0].self_adjoint and pair[1].self_adjoint)]
        if not group:
            continue
        p, r = zip(*group)
        stack = ProjectorPair.from_projectors(p, r)
        ranks = relative_index_rank(p, r)
        traced = relative_index_trace(stack)
        for k, (one_p, one_r) in enumerate(group):
            assert ranks[k] == relative_index_rank(one_p, one_r)
            pair = ProjectorPair.from_projectors(one_p, one_r)
            assert np.array_equal(stack.comparison[k], pair.comparison)
            assert np.array_equal(stack.parametrix[k], pair.parametrix)
            single = relative_index_trace(pair)
            assert traced.index[k] == single.index == ranks[k]
            assert traced.raw[k] == single.raw


def test_a_stack_holds_the_only_copy_of_its_matrices():
    # a drawn projector holds its bases; stacking forms its matrix without
    # caching it, and a matrix a projector was built from is stacked as is
    rng = np.random.default_rng(29)
    drawn = [random_projector(rng, 9, rank) for rank in (2, 5)]
    built = [Projector(q.matrix) for q in
             (random_projector(rng, 9, 4), random_projector(rng, 9, 3, self_adjoint=False))]
    for q in drawn:
        assert "matrix" not in vars(q)
    pair = ProjectorPair.from_projectors(drawn, built)
    for k in range(2):
        assert "matrix" not in vars(drawn[k])
        assert np.array_equal(pair.p[k], drawn[k].matrix)
        assert np.array_equal(pair.r[k], built[k].matrix)
    assert relative_index_rank(pair).tolist() == [-2, 2]


def test_the_projectors_choose_the_parametrix_of_a_stack(monkeypatch):
    import fockindex.pairs as pairs

    shapes = []
    original = pairs._truncated_pinv

    def counting(t):
        shapes.append(t.shape)
        return original(t)

    monkeypatch.setattr(pairs, "_truncated_pinv", counting)
    rng = np.random.default_rng(28)
    p = [random_projector(rng, 12, rank) for rank in (0, 3, 7, 12)]
    r = [random_projector(rng, 12, rank) for rank in (5, 3, 12, 1)]
    orthogonal = ProjectorPair.from_projectors(p, r)
    # every projector is self-adjoint: T*, and no SVD
    assert shapes == []
    assert np.array_equal(orthogonal.parametrix, _adjoint(orthogonal.comparison))
    # one oblique member sends the whole stack to the pseudo-inverse
    r[2] = random_projector(rng, 12, 6, self_adjoint=False)
    assert not r[2].self_adjoint
    mixed = ProjectorPair.from_projectors(p, r)
    assert shapes == [(4, 12, 12)]
    assert np.array_equal(mixed.parametrix, original(mixed.comparison))
    for stack, ranks in ((orthogonal, [-5, 0, -5, 11]), (mixed, [-5, 0, 1, 11])):
        traced = relative_index_trace(stack)
        assert isinstance(traced.index, np.ndarray) and isinstance(traced.raw, np.ndarray)
        assert traced.index.tolist() == ranks
    assert relative_index_rank(p, r).tolist() == [-5, 0, 1, 11]
    # one pair gives Python numbers
    single = relative_index_trace(ProjectorPair.from_projectors(p[2], r[2]))
    assert type(single.index) is int and type(single.raw) is float
    assert type(relative_index_rank(p[2], r[2])) is int
    assert single.index == relative_index_rank(p[2], r[2]) == 1
    with pytest.raises(DimensionMismatchError, match="cannot pair 4 projectors with 3"):
        ProjectorPair.from_projectors(p, r[:3])
    with pytest.raises(DimensionMismatchError, match="different spaces"):
        relative_index_rank(p, [*r[:3], random_projector(rng, 11, 2)])


@settings(max_examples=30, deadline=None)
@given(draw=_stacked_draws, scale=st.floats(0.1, 10.0))
# a full-rank side whose mix has condition near 6e4: conjugating through
# the inverse of the mix missed the idempotency gate here
@example(draw=(18, [(18, 1, True, True), (0, 18, False, True)], 550619), scale=1.890625)
def test_one_product_comparison_matches_the_two_product_form(draw, scale):
    dim, sides, seed = draw
    rng = np.random.default_rng(seed)
    # oblique sides from _conjugated, whose norm can pass 1e4
    drawn = [
        [_conjugated(rng, dim, rank, scale) if oblique else random_projector(rng, dim, rank)
         for rank, oblique in ((rank_p, oblique_p), (rank_r, oblique_r))]
        for rank_p, rank_r, oblique_p, oblique_r in sides
    ]
    p = np.array([one_p.matrix for one_p, _ in drawn])
    r = np.array([one_r.matrix for _, one_r in drawn])
    eye = np.eye(dim)
    two_products = r @ p + (eye - r) @ (eye - p)

    def norm(m):
        return np.linalg.norm(m, 2, axis=(-2, -1))

    # each entry of a computed product A B is off by at most about
    # dim * eps * ||A|| ||B||, and each sum by eps times its size
    size = (norm(r) * norm(p) + norm(eye - r) * norm(eye - p)
            + norm(r) + norm(p) + 1)
    bound = 4 * (dim + 3) * _EPS * size
    gap = np.abs(_comparison_matrix(p, r) - two_products).max(axis=(-2, -1))
    assert (gap <= bound).all(), (gap, bound)


def test_adjoint_parametrix_matches_the_library_route():
    """The relindex runner and the library take one trace route.

    For orthogonal P and R, the runner's draws, ``ProjectorPair`` takes T*
    as the parametrix, bit for bit the remainders formed here by hand, and
    ||T|| <= 1 keeps the raw trace within 1e-10 of rank P - rank R.  For
    oblique ones the rounding of I - TT* and I - T*T grows like
    dim * eps * ||T||^2; at dimension 256 ||T|| can pass 1e4 and that
    rounding the integrality gate, which is why oblique pairs take the
    pseudo-inverse.
    """
    rng = np.random.default_rng(26)
    for dim in [*range(1, 80), 256]:
        for self_adjoint in (True, False):
            p, r = (random_projector(rng, dim, int(rng.integers(0, dim + 1)),
                                     self_adjoint=self_adjoint) for _ in range(2))
            expected = p.rank - r.rank
            pair = ProjectorPair.from_projectors(p, r)
            library = relative_index_trace(pair)
            assert library.index == expected, (dim, self_adjoint)
            assert abs(library.raw - expected) <= 1e-10, (dim, self_adjoint)
            t = _comparison_matrix(p.matrix, r.matrix)
            u = t.conj().T
            k1, k2 = _remainder(t, u), _remainder(u, t)
            # the raw trace through T*, without the integrality gate
            raw = (k2 * p.matrix.T).sum().real - (k1 * r.matrix.T).sum().real
            growth = max(1.0, np.linalg.norm(t, 2)) ** 2
            assert abs(raw - expected) <= 1e-10 * growth, (dim, self_adjoint)
            if p.self_adjoint and r.self_adjoint:
                assert np.array_equal(pair.parametrix, u)
                assert np.array_equal(pair.k1, k1) and np.array_equal(pair.k2, k2)
                assert library == (expected, raw)
