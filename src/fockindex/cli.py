"""Command-line verification front-end.

Six subcommands bind the library's verification families into reproducible
batch runs: ladder-algebra identities, boundary-symbol identities,
model-operator inversion certificates, relative-index cross-checks,
Toeplitz winding recovery, and the glued-boundary integer formulas.
Reports go to standard output as JSON — byte-identical for identical
requests, including the seed — or as a human-readable text summary
(``--format text``; wall time appears only there, so the JSON bytes stay
reproducible).

Two tables define the front-end: ``_PARAMS`` holds each subcommand's
parameters (the flags, the defaults and the checks on ``--input`` values
are generated from it), and ``_CHECKS`` holds each check's name, anchor and
tolerance.  A runner only computes errors and details; ``run`` judges them
against the check table.

Each runner imports the library layers it uses when it first runs, so
``topo`` loads no numpy, and no subcommand loads scipy: the sparse operators
of ``verify-algebra`` and ``model-invert`` are numpy arrays (``sparse``).

Parameters are checked before anything is built: a value below its row's
minimum or not above its strict bound, a float that is not finite, or a
``relindex`` rank above ``dim`` is a usage error; a value above its row's
maximum, or a graded Fock space above ``_MAX_STATES`` states, is rejected
as too large for the memory budget of a run (about 0.5 GB).

Exit codes: 0 all checks pass, 1 usage error, 2 admissibility rejection
(including a request too large to run, a run that exhausts memory anyway,
or a linear-algebra routine that does not converge), 3 check failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from dataclasses import dataclass
from typing import NamedTuple

from . import topo
from .errors import AdmissibilityError

__all__ = ["RunRequest", "Report", "run", "main"]

# spinors.EVEN and spinors.ODD, spelled out so importing the CLI loads no numpy
_CHIRALITIES = ("even", "odd")


class UsageError(Exception):
    """Malformed request parameters (CLI exit code 1)."""


class _Param(NamedTuple):
    """One parameter of a subcommand, and the values it admits."""

    name: str
    type: type  # int, float, dict (a JSON object), or str with choices
    default: object = None  # None also admits None as a value
    minimum: int | None = None  # below it: a usage error
    maximum: int | None = None  # above it: rejected as too large
    above: float | None = None  # at or below it: a usage error
    choices: tuple = ()
    help: str | None = None


# A sample count below one is refused: a check that ran nothing must not
# pass.  The other minimums are the library's own preconditions (a cutoff
# leaves room for the two-level guard band); each maximum keeps a request
# within about 0.5 GB, measured as peak RSS: verify-symbols at n = 7 peaks
# at 44 MB (n = 8: 61 MB), relindex at dim 1024 at 0.43 GB, and toeplitz
# at window 1024, which forms no dense matrix, at 28 MB.
_PARAMS = {
    "verify-algebra": (
        _Param("n", int, 2, minimum=1, help="number of oscillator variables"),
        _Param("cutoff", int, 16, minimum=4),
    ),
    "verify-symbols": (
        _Param("n", int, 2, minimum=2, maximum=7, help="complex dimension"),
        _Param("samples", int, 100, minimum=1),
        _Param("quadrature_samples", int, 5, minimum=1),
    ),
    "model-invert": (
        _Param("chirality", str, "both", choices=_CHIRALITIES + ("both",)),
        _Param("n", int, 2, minimum=2, help="complex dimension"),
        _Param("alpha", float, 1.0, above=0),
        _Param("beta", float),
        _Param("cutoff", int, 12, minimum=4),
        _Param("theta", float, 0.0),
        _Param("num_rhs", int, 16, minimum=1),
        _Param("tol", float, 1e-9, above=0),
    ),
    "relindex": (
        _Param("dim", int, 24, minimum=1, maximum=1024),
        _Param("trials", int, 20, minimum=1),
        _Param("rank_p", int, minimum=0),
        _Param("rank_r", int, minimum=0),
    ),
    "toeplitz": (
        _Param("window", int, 64, minimum=1, maximum=1024),
        _Param("k", int, 3),
    ),
    "topo": (
        _Param("x0", dict, help="filling descriptor as inline JSON"),
        _Param("x1", dict, help="filling descriptor as inline JSON"),
        _Param("spinc", dict, help="characteristic numbers as inline JSON"),
        _Param("ind_glued", int, 0),
    ),
}

# every subcommand takes a seed, though only sampled checks draw from it
_SEED = _Param("seed", int, 0, minimum=0)

# The graded Fock space of verify-algebra and model-invert has
# 2**v * C(cutoff + v, v) states on v oscillator variables.  A run peaks at
# about 0.35 KB (verify-algebra) to 1.1 KB (model-invert) per state,
# measured at 496 128 states (173 and 557 MB), so this many states is about
# 0.5 GB.  A subcommand's v is its n less the offset here:
_MAX_STATES = 500_000
_STATE_VARIABLE_OFFSET = {"verify-algebra": 0, "model-invert": 1}

# accepted Python types and the name an error message gives them
_KINDS = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    dict: ((dict,), "a JSON object"),
}


class _Check(NamedTuple):
    """One check of a subcommand: how it is reported and judged."""

    subcommand: str
    name: str
    anchor: str
    tolerance: float | str  # bound on the error, or the param that holds it
    sampled: bool = False  # draws from its own child of the request seed


_INVERSE = (
    "closed-form inverse of the comparison model on guarded data, "
    "with finite-rank deformation bookkeeping"
)
_FILLING = "descriptor admissibility"

_CHECKS = (
    _Check("verify-algebra", "ladder-commutators",
           "pairwise commutators of raising and lowering maps are scalar", 1e-12),
    _Check("verify-algebra", "ladder-adjointness",
           "lowering map is the exact adjoint of the raising map", 0.0),
    _Check("verify-algebra", "oscillator-factorization",
           "oscillator from ladder products in both orders", 1e-12),
    _Check("verify-algebra", "square-diagonal",
           "squared chiral operator is diagonal in the total degree", 1e-12),
    _Check("verify-algebra", "vacuum-annihilation",
           "vacuum row and column of the chiral blocks vanish identically", 0.0),
    _Check("verify-symbols", "gradient-factorization",
           "chiral gradient symbols compose to half the squared norm",
           1e-12, sampled=True),
    _Check("verify-symbols", "boundary-projector-algebra",
           "order-zero boundary symbols are complementary idempotents",
           1e-12, sampled=True),
    _Check("verify-symbols", "comparison-degeneration",
           "comparison symbol has scalar singular values, vanishing "
           "exactly on the negative contact ray", 1e-12, sampled=True),
    _Check("verify-symbols", "quadrature-closed-forms",
           "contour quadrature matches the residue closed forms",
           1e-8, sampled=True),
    _Check("model-invert", "inverse-certificate-even", _INVERSE, "tol",
           sampled=True),
    _Check("model-invert", "inverse-certificate-odd", _INVERSE, "tol",
           sampled=True),
    _Check("relindex", "triple-agreement",
           "kernel, trace, and rank routes agree, with antisymmetry "
           "under complementation", 0.0, sampled=True),
    _Check("relindex", "logarithmic-property",
           "composite relative index splits as the sum of the two steps",
           0.0, sampled=True),
    _Check("relindex", "parametrix-invariance",
           "trace-formula integer survives arbitrary smoothing "
           "perturbations of the parametrix", 0.0, sampled=True),
    _Check("toeplitz", "winding-recovery",
           "relative index of the clipped shift recovers the winding number",
           0.0),
    _Check("topo", "filling-x0", _FILLING, 0.0),
    _Check("topo", "moduli-dimension-reversed",
           "formal moduli dimension after orientation reversal", 0.0),
    _Check("topo", "filling-x1", _FILLING, 0.0),
    _Check("topo", "moduli-dimension",
           "formal moduli dimension of the glued double", 0.0),
    _Check("topo", "glued-double-index",
           "signature/Euler quarter-sum with its divisibility gate", 0.0),
    _Check("topo", "relative-index-3d",
           "boundary relative index from filling data", 0.0),
    _Check("topo", "relative-index-glued",
           "glued index corrected by the boundary terms", 0.0),
    _Check("topo", "characteristic-numbers", "four-manifold relation", 0.0),
    _Check("topo", "index-from-canonical-class",
           "eighth of the canonical-class excess, gated to an integer", 0.0),
    _Check("topo", "index-from-second-chern",
           "quarter-sum through the second Chern number, gated", 0.0),
)


def _check_param(param: _Param, value, label: str) -> None:
    if value is None and param.default is None:
        return
    if param.choices:
        admitted, kind = value in param.choices, "one of " + ", ".join(param.choices)
    else:
        accepted, kind = _KINDS[param.type]
        admitted = isinstance(value, accepted) and not isinstance(value, bool)
    if not admitted:
        raise UsageError(
            f"{label} must be {kind}, got {json.dumps(value, default=repr)}"
        )
    if param.type is float and not math.isfinite(value):
        raise UsageError(f"{label} must be finite, got {value}")
    if param.minimum is not None and value < param.minimum:
        raise UsageError(f"{label} must be at least {param.minimum}, got {value}")
    if param.above is not None and value <= param.above:
        raise UsageError(f"{label} must be greater than {param.above}, got {value}")
    if param.maximum is not None and value > param.maximum:
        raise AdmissibilityError(
            f"{label} must be at most {param.maximum}, got {value}; larger "
            "requests exceed the memory budget of a run (about 0.5 GB)"
        )


def _check_size(subcommand: str, params: dict) -> None:
    """Refuse a graded Fock space too large to build, before building it."""
    if subcommand not in _STATE_VARIABLE_OFFSET:
        return
    num_vars = params["n"] - _STATE_VARIABLE_OFFSET[subcommand]
    states = math.comb(params["cutoff"] + num_vars, num_vars) << num_vars
    if states > _MAX_STATES:
        raise AdmissibilityError(
            f"n = {params['n']} with cutoff {params['cutoff']} spans {states} "
            f"graded states, more than {_MAX_STATES} (about 0.5 GB); "
            "lower n or cutoff"
        )


@dataclass(frozen=True)
class RunRequest:
    """One reproducible verification run.

    ``params`` may leave out any parameter: the request holds a new dict
    with the ``_PARAMS`` defaults filled in.  Unknown names, values a row
    does not admit and a ``topo`` request without ``x0`` are refused.
    """

    subcommand: str
    params: dict
    seed: int = 0
    format: str = "json"

    def __post_init__(self):
        if self.subcommand not in _PARAMS:
            raise UsageError(f"unknown subcommand {self.subcommand!r}")
        if self.format not in ("json", "text"):
            raise UsageError(f"unknown format {self.format!r}")
        _check_param(_SEED, self.seed, "seed")
        rows = _PARAMS[self.subcommand]
        unknown = set(self.params) - {param.name for param in rows}
        if unknown:
            raise UsageError(f"unknown {self.subcommand} params: {sorted(unknown)}")
        params = {param.name: param.default for param in rows}
        params.update(self.params)
        for param in rows:
            _check_param(param, params[param.name], param.name)
        if self.subcommand == "topo" and params["x0"] is None:
            raise UsageError("topo needs at least x0 (--x0 or an --input file)")
        if self.subcommand == "relindex":
            for name in ("rank_p", "rank_r"):
                if params[name] is not None and params[name] > params["dim"]:
                    raise UsageError(f"{name} must be at most dim = {params['dim']}, "
                                     f"got {params[name]}")
        _check_size(self.subcommand, params)
        object.__setattr__(self, "params", params)


@dataclass(frozen=True)
class Report:
    """Outcome of a run: echoed request, ordered check records, verdict."""

    request: RunRequest
    checks: tuple
    passed: bool
    wall_time: float

    def to_payload(self) -> dict:
        return {
            "request": {
                "subcommand": self.request.subcommand,
                "seed": self.request.seed,
                "params": dict(sorted(self.request.params.items())),
            },
            "checks": list(self.checks),
            "passed": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), indent=2)

    def to_text(self) -> str:
        lines = [f"{self.request.subcommand} (seed {self.request.seed})"]
        for check in self.checks:
            err = check["max_error"]
            err_text = "" if err is None else f"  max_error {err:.3e}"
            lines.append(
                f"{check['status'].upper():8s} {check['name']}"
                f" [{check['anchor']}]{err_text}"
            )
            if check["status"] == "rejected":
                lines.append(f"         reason: {check['details']['error']}")
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(
            f"overall: {verdict} ({len(self.checks)} checks, "
            f"{self.wall_time:.3f} s)"
        )
        return "\n".join(lines)

    @property
    def rejected(self) -> bool:
        return any(check["status"] == "rejected" for check in self.checks)


def _fixed(value) -> float:
    """Floats at fixed precision so report bytes are reproducible."""
    return float(f"{float(value):.12e}")


def _record(params: dict, check: _Check, error, details=None, verdict=True) -> dict:
    """Judge one emitted check against its table row.

    ``error`` is the measured error, or the ``AdmissibilityError`` that
    rejected the check.  A runner may add a ``verdict`` of its own (a
    library certificate) that must hold besides the tolerance.
    """
    if isinstance(error, AdmissibilityError):
        status, error, details = "rejected", None, {"error": str(error)}
    else:
        tolerance = check.tolerance
        if isinstance(tolerance, str):
            tolerance = params[tolerance]
        status = "pass" if verdict and error <= tolerance else "fail"
    return {
        "name": check.name,
        "anchor": check.anchor,
        "status": status,
        "max_error": None if error is None else _fixed(error),
        "details": details or {},
    }


def _child_seeds(seed: int, count: int) -> list:
    """Integer seeds split off a root sequence in a fixed order."""
    import numpy as np

    children = np.random.SeedSequence(seed).spawn(count)
    return [int(child.generate_state(1)[0]) for child in children]


# --------------------------------------------------------------------------
# runners: each gets its subcommand's table rows and one child seed per
# sampled row, and yields (row, error, details) per check that applies


def _max_abs(values) -> float:
    return float(abs(values).max())


def _run_verify_algebra(params: dict, seeds: list, checks: tuple):
    """ladder and vacuum identities"""
    import numpy as np

    from . import fock, spinors

    commutators, adjointness, factorization, square, vacuum = checks
    config = fock.FockSpaceConfig(params["n"], params["cutoff"])

    eye = fock.identity(config)
    labels = range(1, config.num_vars + 1)
    # each ladder map is built once; the lowering maps are built on their
    # own, so the adjointness check compares two constructions
    raising = [fock.creation(config, j) for j in labels]
    lowering = [fock.annihilation(config, j) for j in labels]
    worst = 0.0
    for j, up in enumerate(raising):
        for k, down in enumerate(lowering):
            comm = up @ down - down @ up
            expected = -2.0 if j == k else 0.0
            diff = comm - expected * eye
            worst = max(worst, fock.max_abs_on_guard(diff, config))
    details = {"num_vars": config.num_vars, "cutoff": config.cutoff}
    yield commutators, worst, details

    worst = 0.0
    for up, down in zip(raising, lowering):
        diff = up.adjoint() - down
        if diff.nnz:
            worst = max(worst, _max_abs(diff.data))
    yield adjointness, worst

    yield factorization, max(fock.oscillator_identity_residuals(config, raising))

    dirac = spinors.dirac_plus(config, raising)
    yield square, spinors.square_identity_residual(dirac, config)

    # the vacuum row on the odd columns and the vacuum column on the odd rows
    vac = spinors.graded_index(config, spinors.vacuum_index(config))
    odd = spinors.sector_indices(config, spinors.ODD)
    row, col = dirac[[vac], :][:, odd], dirac[odd, :][:, [vac]]
    yield vacuum, _max_abs(np.concatenate(([0.0], row.data, col.data)))


# A covector stack holds at most this many symbol-matrix entries, so the
# memory of a verify-symbols request does not grow with --samples.
_STACK_ENTRIES = 2**14


def _run_verify_symbols(params: dict, seeds: list, checks: tuple):
    """boundary symbol identities"""
    import numpy as np

    from . import symbols

    gradient, projectors, degeneration, quadrature = checks
    n, samples = params["n"], params["samples"]
    dim = symbols.symbol_dimension(n)
    eye = np.eye(dim)
    stack_size = max(1, _STACK_ENTRIES // dim**2)

    def stacks(seed, boundary):
        # a stack holds the covectors of one draw per covector, so the
        # samples do not depend on the stack size
        rng = np.random.default_rng(seed)
        for start in range(0, samples, stack_size):
            count = min(stack_size, samples - start)
            yield symbols.random_covectors(rng, n, count, boundary=boundary)

    worst = 0.0
    for xi in stacks(seeds[0], boundary=False):
        half_sq = 0.5 * symbols.norm(xi)[:, None, None] ** 2
        odd = symbols.d1(symbols.ODD, xi)
        even = symbols.d1(symbols.EVEN, xi)
        worst = max(
            worst,
            _max_abs(odd @ even - half_sq * eye),
            _max_abs(even @ odd - half_sq * eye),
        )
    yield gradient, worst, {"samples": samples, "n": n}

    worst = 0.0
    for xp in stacks(seeds[1], boundary=True):
        for ch in _CHIRALITIES:
            plus = symbols.calderon_symbol0(ch, +1, xp)
            minus = symbols.calderon_symbol0(ch, -1, xp)
            worst = max(
                worst,
                _max_abs(plus @ plus - plus),
                _max_abs(minus @ minus - minus),
                _max_abs(plus + minus - eye),
            )
    yield projectors, worst, {"samples": samples}

    worst = 0.0
    for xp in stacks(seeds[2], boundary=True):
        ell, perp = symbols.boundary_norm(xp), symbols.perp_norm(xp)
        expected = np.sqrt((ell + xp[:, n]) ** 2 + perp**2) / (2 * ell)
        for ch in _CHIRALITIES:
            symbol = symbols.comparison_symbol0(ch, xp)
            sv = np.linalg.svd(symbol, compute_uv=False)
            worst = max(worst, _max_abs(sv - expected[:, None]))
    zero_perp = (0.0,) * (2 * (n - 1))
    ray = symbols.covector(0.0, -1.5, zero_perp)
    anti_ray = symbols.covector(0.0, 1.5, zero_perp)
    for ch in _CHIRALITIES:
        worst = max(
            worst,
            _max_abs(symbols.comparison_symbol0(ch, ray)),
            _max_abs(symbols.comparison_symbol0(ch, anti_ray) - eye),
        )
    yield degeneration, worst, {"samples": samples}

    rng = np.random.default_rng(seeds[3])
    quad_samples = params["quadrature_samples"]
    # errors and their estimates relative to the closed forms, the projector's absolute
    worst_rel = worst_est = 0.0
    for instance in range(quad_samples):
        xp = symbols.random_covector(rng, n, boundary=True)
        hess = (
            symbols.HessianData.kahler(n)
            if instance == 0
            else symbols.random_hessian(rng, n, contact_adapted=False)
        )
        for ch in _CHIRALITIES:
            closed = symbols.closed_form_trace_contour(ch, hess, xp)
            scale = _max_abs(closed)
            integrand = symbols.trace_term_integrand(ch, xp, hess)
            for side in (+1, -1):
                quad, est = symbols.contour_integral(integrand, side, xp, return_error=True)
                worst_rel = max(worst_rel, _max_abs(quad - closed) / scale)
                worst_est = max(worst_est, est / scale)
        integrand = symbols.q_symbol_integrand(-1, symbols.ODD, xp)
        quad, est = symbols.contour_integral(integrand, +1, xp, return_error=True)
        composed = quad @ symbols.boundary_isomorphism(symbols.EVEN, +1, n)
        direct = symbols.calderon_symbol0(symbols.EVEN, +1, xp)
        worst_rel = max(worst_rel, _max_abs(composed - direct))
        worst_est = max(worst_est, est)
        contact = symbols.covector(0.0, float(rng.uniform(0.5, 2.0)), zero_perp)
        hess_contact = symbols.random_hessian(rng, n)
        for ch in _CHIRALITIES:
            closed = symbols.closed_form_contact_contour(ch, hess_contact, contact)
            scale = _max_abs(closed)
            integrand = symbols.q_symbol_integrand(-2, ch, contact, hess_contact)
            quad, est = symbols.contour_integral(integrand, -1, contact, return_error=True)
            worst_rel = max(worst_rel, _max_abs(quad - closed) / scale)
            worst_est = max(worst_est, est / scale)
    yield quadrature, worst_rel, {"instances": quad_samples, "includes_kahler": True,
                                  "quadrature_error_estimate": _fixed(worst_est)}


def _run_model_invert(params: dict, seeds: list, checks: tuple):
    """model inverse certificates"""
    from . import models

    chiralities = (
        _CHIRALITIES if params["chirality"] == "both" else (params["chirality"],)
    )
    config = models.ModelConfig(
        n=params["n"],
        alpha=params["alpha"],
        beta=params["beta"],
        cutoff=params["cutoff"],
        theta=params["theta"],
        tol=params["tol"],
    )
    rows = dict(zip(_CHIRALITIES, checks))
    for chirality, child in zip(chiralities, seeds):
        report = models.certify_invertibility(
            chirality, config, num_rhs=params["num_rhs"], seed=child
        )
        if report["error"] is not None:
            yield rows[chirality], AdmissibilityError(report["error"])
            continue
        details = {
            "chirality": chirality,
            "smallest_singular_value": _fixed(report["smallest_singular_value"]),
            "deformation_block_ranks": report["deformation_block_ranks"],
            "num_rhs": report["num_rhs"],
        }
        yield rows[chirality], report["residual_max"], details, report["passed"]


def _draw_rank(rng, dim: int, fixed) -> int:
    if fixed is not None:
        return fixed
    return int(rng.integers(0, dim + 1))


def _run_relindex(params: dict, seeds: list, checks: tuple):
    """relative index cross-checks"""
    import numpy as np

    from . import pairs

    agreement, logarithmic, invariance = checks
    dim, trials = params["dim"], params["trials"]
    details = {"trials": trials, "dimension": dim}

    rng = np.random.default_rng(seeds[0])
    mismatches = 0
    for _ in range(trials):
        p = pairs.random_projector(rng, dim, _draw_rank(rng, dim, params["rank_p"]))
        r = pairs.random_projector(rng, dim, _draw_rank(rng, dim, params["rank_r"]))
        pair = pairs.ProjectorPair.from_projectors(p, r)
        expected = pairs.relative_index_rank(p, r)
        agree = (
            pairs.kernel_index(p, r) == expected
            and pairs.relative_index_trace(pair).index == expected
            and pairs.kernel_index(p.complement(), r.complement()) == -expected
        )
        mismatches += 0 if agree else 1
    yield agreement, float(mismatches), details

    rng = np.random.default_rng(seeds[1])
    mismatches = 0
    for _ in range(trials):
        p = pairs.random_projector(rng, dim, _draw_rank(rng, dim, None))
        q = pairs.random_projector(rng, dim, _draw_rank(rng, dim, None))
        r = pairs.random_projector(rng, dim, _draw_rank(rng, dim, None))
        if not pairs.logarithmic_property(p, q, r)["consistent"]:
            mismatches += 1
    yield logarithmic, float(mismatches), details

    rng = np.random.default_rng(seeds[2])
    mismatches = 0
    for _ in range(trials):
        p = pairs.random_projector(rng, dim, _draw_rank(rng, dim, params["rank_p"]))
        r = pairs.random_projector(rng, dim, _draw_rank(rng, dim, params["rank_r"]))
        pair = pairs.ProjectorPair.from_projectors(p, r)
        base = pairs.relative_index_trace(pair)
        noise = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        perturbed = pair.with_smoothing(noise)
        if pairs.relative_index_trace(perturbed).index != base.index:
            mismatches += 1
    yield invariance, float(mismatches), details


def _run_toeplitz(params: dict, seeds: list, checks: tuple):
    """winding number recovery"""
    from . import pairs

    (winding,) = checks
    window, k = params["window"], params["k"]
    try:
        value = pairs.toeplitz_winding(window, k)
    except AdmissibilityError as exc:
        yield winding, exc
        return
    details = {"window": window, "k": k, "value": value}
    yield winding, float(abs(value - k)), details


def _build(kind, payload: dict, what: str):
    """A topo dataclass from a JSON object whose field names are checked."""
    fields = dataclasses.fields(kind)
    unknown = set(payload) - {field.name for field in fields}
    if unknown:
        raise UsageError(f"unknown {what} fields: {sorted(unknown)}")
    required = [f.name for f in fields if f.default is dataclasses.MISSING]
    if not set(required) <= set(payload):
        needed = " and ".join(map(repr, required))
        raise UsageError(f"a {what} needs at least {needed}")
    return kind(**payload)


def _quantity(check: _Check, formula, *args) -> tuple:
    try:
        return check, 0.0, {"value": int(formula(*args))}
    except AdmissibilityError as exc:
        return check, exc


def _run_topo(params: dict, seeds: list, checks: tuple):
    """glued-boundary integer formulas"""
    (filling_x0, reversed_dim, filling_x1, glued_dim, glued_index, rind_3d,
     rind_glued, characteristic, from_c1, from_c2) = checks
    try:
        x0 = _build(topo.FillingDescriptor, params["x0"], "filling")
    except AdmissibilityError as exc:
        yield filling_x0, exc
        return
    yield filling_x0, 0.0, {"chi_prime": x0.chi_prime, "stein": x0.stein}
    yield _quantity(reversed_dim, topo.seiberg_witten_dim_reversed, x0.euler)

    if params["x1"] is not None:
        try:
            x1 = _build(topo.FillingDescriptor, params["x1"], "filling")
        except AdmissibilityError as exc:
            yield filling_x1, exc
            return
        yield filling_x1, 0.0, {"chi_prime": x1.chi_prime, "stein": x1.stein}
        yield _quantity(glued_dim, topo.seiberg_witten_dim, x1.euler)
        yield _quantity(glued_index, topo.glued_double_index, x0, x1)
        yield _quantity(rind_3d, topo.rind_3d, x0, x1)
        yield _quantity(rind_glued, topo.rind_weinstein, params["ind_glued"], x0, x1)

    if params["spinc"] is not None:
        try:
            nums = _build(topo.SpinCNumbers, params["spinc"], "characteristic")
        except AdmissibilityError as exc:
            yield characteristic, exc
            return
        yield _quantity(from_c1, topo.ind_from_c1, nums)
        yield _quantity(from_c2, topo.ind_from_c2, nums)


# --------------------------------------------------------------------------
# dispatch and entry point

_RUNNERS = {
    "verify-algebra": _run_verify_algebra,
    "verify-symbols": _run_verify_symbols,
    "model-invert": _run_model_invert,
    "relindex": _run_relindex,
    "toeplitz": _run_toeplitz,
    "topo": _run_topo,
}


def run(request: RunRequest) -> Report:
    """Run a request's checks and judge each against the check table."""
    started = time.perf_counter()
    rows = tuple(c for c in _CHECKS if c.subcommand == request.subcommand)
    sampled = sum(row.sampled for row in rows)
    seeds = _child_seeds(request.seed, sampled) if sampled else []
    checks = tuple(
        _record(request.params, *emitted)
        for emitted in _RUNNERS[request.subcommand](request.params, seeds, rows)
    )
    return Report(
        request=request,
        checks=checks,
        passed=all(check["status"] == "pass" for check in checks),
        wall_time=time.perf_counter() - started,
    )


def _flag(param: _Param) -> str:
    return "--" + param.name.replace("_", "-")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fockindex",
        description="reproducible verification runs over the fockindex library",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for subcommand, params in _PARAMS.items():
        p = sub.add_parser(subcommand, help=_RUNNERS[subcommand].__doc__)
        for param in params:
            p.add_argument(
                _flag(param),
                type=str if param.type is dict else param.type,
                choices=param.choices or None,
                help=param.help,
            )
        p.add_argument("--seed", type=int, default=_SEED.default)
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument(
            "--input", help="JSON file supplying params (explicit flags override it)"
        )
    return parser


def _request_from_args(args: argparse.Namespace) -> RunRequest:
    """The request from the ``--input`` file overlaid with explicit flags."""
    subcommand = args.subcommand
    params = {}
    if args.input is not None:
        try:
            with open(args.input) as handle:
                supplied = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read --input file: {exc}") from exc
        if not isinstance(supplied, dict):
            raise UsageError("--input must hold a JSON object of params")
        params.update(supplied)
    for param in _PARAMS[subcommand]:
        value = getattr(args, param.name)
        if value is None:
            continue
        if param.type is dict:
            try:
                value = json.loads(value)
            except json.JSONDecodeError as exc:
                raise UsageError(f"{_flag(param)} is not valid JSON: {exc}") from exc
            _check_param(param, value, _flag(param))
        params[param.name] = value
    return RunRequest(
        subcommand=subcommand,
        params=params,
        seed=args.seed,
        format=args.format,
    )


def _attach_float_values(argv: list) -> list:
    """``--theta -1e-3`` as ``--theta=-1e-3``: argparse reads a negative
    number with an exponent as a flag, and a float option takes a value."""
    floats = {_flag(p) for params in _PARAMS.values() for p in params if p.type is float}
    joined = []
    for token in argv:
        if joined and joined[-1] in floats and token.startswith("-"):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(_attach_float_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return 0 if not exc.code else 1
    try:
        request = _request_from_args(args)
        report = run(request)
    except AdmissibilityError as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print(
            f"rejected: this {args.subcommand} request ran out of memory; "
            "lower the sizes",
            file=sys.stderr,
        )
        return 2
    except (UsageError, ValueError) as exc:
        numpy = sys.modules.get("numpy")
        if numpy is not None and isinstance(exc, numpy.linalg.LinAlgError):
            # numpy's own message names a LAPACK routine, not the request
            print(
                f"rejected: a linear-algebra routine did not converge on this "
                f"{args.subcommand} request; try other parameters",
                file=sys.stderr,
            )
            return 2
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(report.to_json() if request.format == "json" else report.to_text())
    if report.rejected:
        return 2
    return 0 if report.passed else 3


if __name__ == "__main__":
    sys.exit(main())
