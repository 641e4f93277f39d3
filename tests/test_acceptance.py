"""End-to-end acceptance gate.

One test per shipped guarantee, each at its stated tolerance and runtime
budget.  These intentionally re-derive expected values inline (or reuse the
closed forms that the module tests froze) so a regression in any layer
surfaces here as a single failed line.  Run with ``-s`` to see the stamped
summary lines.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest
from children import child_env

from fockindex.errors import AdmissibilityError, IntegralityViolation
from fockindex.fock import (
    FockSpaceConfig,
    annihilation,
    creation,
    identity,
    max_abs_on_guard,
    oscillator_identity_residuals,
)
from fockindex.models import ModelConfig, certify_invertibility
from fockindex.pairs import (
    ProjectorPair,
    agranovich_dynin_shadow,
    kernel_index,
    logarithmic_property,
    random_projector,
    relative_index_rank,
    relative_index_trace,
    toeplitz_winding,
)
from fockindex.spinors import (
    EVEN,
    ODD,
    dirac_plus,
    graded_index,
    sector_indices,
    square_identity_residual,
    vacuum_index,
)
from fockindex.symbols import (
    HessianData,
    calderon_symbol0,
    closed_form_contact_contour,
    closed_form_trace_contour,
    comparison_symbol0,
    contour_integral,
    covector,
    d1,
    q_symbol_integrand,
    random_covector,
    random_hessian,
    sd_matrix,
    symbol_dimension,
    trace_term_integrand,
)
from fockindex.topo import (
    FillingDescriptor,
    SpinCNumbers,
    coball_descriptor,
    fio_index_surfaces,
    ind_from_c1,
    ind_from_c2,
    random_spinc_numbers,
    rind_3d,
    seiberg_witten_dim,
)

CHIRALITIES = (EVEN, ODD)
SIDES = (+1, -1)


def _stamp(num, label, started=None):
    extra = "" if started is None else f" [{time.perf_counter() - started:.2f}s]"
    print(f"criterion {num}: PASS - {label}{extra}")


def _contact_ray(n, contact):
    return covector(0.0, contact, (0.0,) * (2 * (n - 1)))


def test_criterion_1_operator_identities():
    started = time.perf_counter()
    for nv in (1, 2, 3):
        config = FockSpaceConfig(nv, 16)
        eye = identity(config)

        # commutation relations among all ladder pairs, entrywise on the
        # guarded block
        ladders = {j: (creation(config, j), annihilation(config, j)) for j in range(1, nv + 1)}
        for j in range(1, nv + 1):
            for k in range(1, nv + 1):
                c_j, a_j = ladders[j]
                c_k, a_k = ladders[k]
                expected = -2.0 if j == k else 0.0
                mixed = c_j @ a_k - a_k @ c_j - expected * eye
                assert max_abs_on_guard(mixed, config) <= 1e-12
                assert max_abs_on_guard(c_j @ c_k - c_k @ c_j, config) <= 1e-12
                assert max_abs_on_guard(a_j @ a_k - a_k @ a_j, config) <= 1e-12

        # both ladder factorizations of the oscillator
        res_lower, res_upper = oscillator_identity_residuals(config)
        assert res_lower <= 1e-12
        assert res_upper <= 1e-12

        # the coupled operator squares to the graded degree diagonal
        d = dirac_plus(config)
        assert square_identity_residual(d, config) <= 1e-12

        # the vacuum row of the odd-to-even half vanishes exactly
        vac = graded_index(config, vacuum_index(config))
        row = d[[vac], :][:, sector_indices(config, ODD)]
        assert row.nnz == 0 or np.abs(row.data).max() == 0.0

    elapsed = time.perf_counter() - started
    assert elapsed <= 10.0
    _stamp(1, "ladder/oscillator/square/vacuum identities at cutoff 16", started)


def test_criterion_2_model_inverse_formulas():
    started = time.perf_counter()
    case = 0
    for n in (2, 3):
        for alpha, beta in ((1.0, float(n - 1)), (0.7, 1.3)):
            for theta in (0.0, 0.3):
                cfg = ModelConfig(n=n, alpha=alpha, beta=beta, cutoff=12, theta=theta)
                for chirality in CHIRALITIES:
                    case += 1
                    report = certify_invertibility(
                        chirality, cfg, num_rhs=100, seed=1000 + case
                    )
                    assert report["error"] is None
                    assert report["passed"] is True
                    assert report["num_rhs"] == 100
                    assert report["residual_max"] <= 1e-9
                    ranks = report["deformation_block_ranks"]
                    assert max(max(row) for row in ranks) <= 4
                    assert ranks[1][1] == 0
    assert case == 16
    elapsed = time.perf_counter() - started
    assert elapsed <= 60.0
    _stamp(2, "formula-based inverses on 100 guarded rhs per configuration", started)


def test_criterion_3_symbol_identities():
    for n in (2, 3):
        dim = symbol_dimension(n)
        eye = np.eye(dim)
        rng = np.random.default_rng(300 + n)
        for _ in range(100):
            xi = random_covector(rng, n)
            half_sq = 0.5 * np.linalg.norm(xi)**2
            composed = d1(ODD, xi) @ d1(EVEN, xi)
            assert np.abs(composed - half_sq * eye).max() <= 1e-12

            sd = sd_matrix(xi)
            assert np.abs(sd - sd.conj().T).max() <= 1e-12

            xp = random_covector(rng, n, boundary=True)
            for ch in CHIRALITIES:
                plus = calderon_symbol0(ch, +1, xp)
                minus = calderon_symbol0(ch, -1, xp)
                assert np.abs(plus @ plus - plus).max() <= 1e-12
                assert np.abs(minus @ minus - minus).max() <= 1e-12
                assert np.abs(plus + minus - eye).max() <= 1e-12

                # invertible away from the degenerating contact ray
                sv = np.linalg.svd(comparison_symbol0(ch, xp), compute_uv=False)
                assert sv.min() > 1e-12

        # the degeneration on the distinguished ray is exact, and the
        # opposite ray carries the identity
        for scale in (0.5, 1.5, 3.0):
            for ch in CHIRALITIES:
                on_ray = comparison_symbol0(ch, _contact_ray(n, -scale))
                assert np.abs(on_ray).max() == 0.0
                off_ray = comparison_symbol0(ch, _contact_ray(n, scale))
                assert np.abs(off_ray - eye).max() == 0.0
    _stamp(3, "gradient/boundary/comparison symbol identities, 100 covectors per n")


def test_criterion_4_contour_closed_forms():
    instances = 0
    for n in (2, 3):
        rng = np.random.default_rng(400 + n)

        # trace-term contour against its closed form; instance 0 is the
        # constant-curvature model, the rest are free Hessian draws
        for instance in range(5):
            xp = random_covector(rng, n, boundary=True)
            hess = (
                HessianData.kahler(n)
                if instance == 0
                else random_hessian(rng, n, contact_adapted=False)
            )
            closed = closed_form_trace_contour(EVEN, hess, xp)
            scale = np.abs(closed).max()
            for side in SIDES:
                quad = contour_integral(trace_term_integrand(EVEN, xp, hess), side, xp)
                assert np.abs(quad - closed).max() / scale <= 1e-8
            instances += 1

        # contact-line contour, which only exists on the distinguished ray
        for instance in range(5):
            xp = _contact_ray(n, float(rng.uniform(0.5, 2.0)) * (-1.0) ** instance)
            hess = HessianData.kahler(n) if instance == 0 else random_hessian(rng, n)
            for ch in CHIRALITIES:
                closed = closed_form_contact_contour(ch, hess, xp)
                scale = np.abs(closed).max()
                for side in SIDES:
                    quad = contour_integral(q_symbol_integrand(-2, ch, xp, hess), side, xp)
                    assert np.abs(quad - closed).max() / scale <= 1e-8
            instances += 1
    assert instances == 20
    _stamp(4, "contour quadrature matches both closed forms, 20 instances")


def test_criterion_5_relative_index_triple_agreement():
    started = time.perf_counter()
    rng = np.random.default_rng(515)

    for _ in range(200):
        dim = int(rng.integers(2, 41))
        p = random_projector(rng, dim, int(rng.integers(1, dim + 1)))
        r = random_projector(rng, dim, int(rng.integers(1, dim + 1)))
        pair = ProjectorPair.from_projectors(p, r)
        expected = p.rank - r.rank
        assert kernel_index(p, r) == expected
        assert relative_index_trace(pair).index == expected
        assert relative_index_rank(p, r) == expected
        # antisymmetry under swapping the projectors
        assert kernel_index(r, p) == -expected

    # composite step equals the sum of the two steps
    for _ in range(30):
        dim = int(rng.integers(3, 41))
        p, q, r = (
            random_projector(rng, dim, int(rng.integers(1, dim + 1)))
            for _ in range(3)
        )
        assert logarithmic_property(p, q, r)["consistent"]

    # replacing the parametrix never moves the integer
    for _ in range(20):
        dim = int(rng.integers(4, 33))
        p = random_projector(rng, dim, int(rng.integers(1, dim + 1)))
        r = random_projector(rng, dim, int(rng.integers(1, dim + 1)))
        pair = ProjectorPair.from_projectors(p, r)
        base = relative_index_trace(pair).index
        for _ in range(3):
            noise = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            perturbed = pair.with_smoothing(noise)
            assert relative_index_trace(perturbed).index == base

    elapsed = time.perf_counter() - started
    assert elapsed <= 30.0
    _stamp(5, "kernel = trace = rank difference over 200+ seeded pairs", started)


def test_criterion_6_toeplitz_winding():
    for k in range(-5, 6):
        assert toeplitz_winding(64, k) == k
    _stamp(6, "winding recovered for every k in [-5, 5] at window 64")


def test_criterion_7_boundary_condition_shadow():
    rng = np.random.default_rng(718)
    for _ in range(50):
        corner = int(rng.integers(2, 13))
        s1 = random_projector(rng, corner, int(rng.integers(1, corner + 1)))
        s2 = random_projector(rng, corner, int(rng.integers(1, corner + 1)))
        report = agranovich_dynin_shadow(s1, s2)
        assert report["consistent"]
        assert report["difference"] == s1.rank - s2.rank
    _stamp(7, "block-embedding index difference equals corner rank drop, 50 pairs")


def test_criterion_8_topological_calculator():
    started = time.perf_counter()

    # self-pairing always vanishes
    for x in (
        FillingDescriptor(signature=0, euler=2, stein=True),
        FillingDescriptor(signature=3, euler=-4, h01=2, h02=1),
        FillingDescriptor(signature=-1, euler=5, h01=0, h02=4),
    ):
        assert rind_3d(x, x) == 0

    # moduli dimension is minus the Euler characteristic
    for euler in (-6, -2, 0, 2, 10):
        assert seiberg_witten_dim(euler) == -euler

    # disk-bundle fillings for the three smallest base geometries
    for euler, sign in ((2, 1), (0, 0), (-2, -1)):
        ball = coball_descriptor(euler)
        assert (ball.signature, ball.euler) == (sign, euler)
        assert ball.stein and ball.chi_prime == 0

    # the operator pairing over equal surfaces vanishes; unequal bases are
    # refused outright
    for euler in (2, 0, -2, -4):
        assert fio_index_surfaces(euler, euler) == 0
    with pytest.raises(AdmissibilityError):
        fio_index_surfaces(2, 0)

    # both characteristic-number routes agree on 1000 admissible draws
    rng = np.random.default_rng(812)
    for _ in range(1000):
        x = random_spinc_numbers(rng)
        assert ind_from_c1(x) == ind_from_c2(x)

    # each integrality gate fires on its documented counterexample
    with pytest.raises(IntegralityViolation):
        rind_3d(
            FillingDescriptor(signature=1, euler=2),
            FillingDescriptor(signature=0, euler=0),
        )
    with pytest.raises(IntegralityViolation):
        ind_from_c1(SpinCNumbers(c1_squared=10, signature=1))
    with pytest.raises(IntegralityViolation):
        ind_from_c2(SpinCNumbers(c2=1, signature=0, euler=1))

    elapsed = time.perf_counter() - started
    assert elapsed <= 1.0
    _stamp(8, "hand-checkable values, 1000 dual-route draws, gates fire", started)


def test_criterion_9_cli_determinism():
    topo_x0 = json.dumps({"signature": 1, "euler": 2, "stein": True})
    topo_x1 = json.dumps({"signature": 1, "euler": -2, "h01": 0, "h02": 1})
    topo_spinc = json.dumps({"c1_squared": 9, "c2": 0, "signature": 1, "euler": 3})
    suite = [
        ["verify-algebra", "--n", "2", "--cutoff", "12", "--seed", "7"],
        ["verify-symbols", "--n", "2", "--samples", "20",
         "--quadrature-samples", "3", "--seed", "3"],
        ["model-invert", "--n", "2", "--theta", "0.3", "--num-rhs", "8",
         "--seed", "5"],
        ["relindex", "--dim", "16", "--trials", "5", "--seed", "9"],
        ["toeplitz", "--window", "64", "--k", "-2"],
        ["topo", "--x0", topo_x0, "--x1", topo_x1, "--spinc", topo_spinc,
         "--seed", "1"],
    ]
    for args in suite:
        cmd = [sys.executable, "-m", "fockindex.cli", *args]
        first = subprocess.run(cmd, capture_output=True, check=False, env=child_env())
        second = subprocess.run(cmd, capture_output=True, check=False, env=child_env())
        assert first.returncode == 0, first.stderr.decode()
        assert second.returncode == 0
        json.loads(first.stdout.decode())  # well-formed report
        assert first.stdout == second.stdout
    _stamp(9, "two CLI runs per subcommand emit byte-identical reports")
