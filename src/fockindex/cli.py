"""Command-line verification front-end.

Six subcommands bind the library's verification families into reproducible
batch runs: ladder-algebra identities, boundary-symbol identities,
model-operator inversion certificates, relative-index cross-checks,
Toeplitz winding recovery, and the glued-boundary integer formulas.
Reports go to standard output as JSON — byte-identical for identical
requests, including the seed — or as a human-readable text summary
(``--format text``; wall time appears only there, so the JSON bytes stay
reproducible).

Each runner imports the library layers it uses when it first runs, so
``topo`` loads neither numpy nor scipy, and only ``verify-algebra`` and
``model-invert`` load scipy.

Exit codes: 0 all checks pass, 1 usage error, 2 admissibility rejection,
3 check failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass

from . import topo
from .errors import AdmissibilityError

__all__ = ["RunRequest", "Report", "run", "main"]

_SUBCOMMANDS = (
    "verify-algebra",
    "verify-symbols",
    "model-invert",
    "relindex",
    "toeplitz",
    "topo",
)
# spinors.EVEN and spinors.ODD, spelled out so importing the CLI loads no numpy
_CHIRALITIES = ("even", "odd")
_TIGHT = 1e-12
_QUADRATURE_RTOL = 1e-8


class UsageError(Exception):
    """Malformed request parameters (CLI exit code 1)."""


@dataclass(frozen=True)
class RunRequest:
    """One reproducible verification run."""

    subcommand: str
    params: dict
    seed: int = 0
    format: str = "json"

    def __post_init__(self):
        if self.subcommand not in _SUBCOMMANDS:
            raise UsageError(f"unknown subcommand {self.subcommand!r}")
        if self.format not in ("json", "text"):
            raise UsageError(f"unknown format {self.format!r}")


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


def _record(name, anchor, max_error=None, tolerance=None, details=None, status=None):
    if status is None:
        status = "pass" if max_error <= tolerance else "fail"
    return {
        "name": name,
        "anchor": anchor,
        "status": status,
        "max_error": None if max_error is None else _fixed(max_error),
        "details": details or {},
    }


def _rejected(name, anchor, exc) -> dict:
    return _record(
        name, anchor, status="rejected", details={"error": str(exc)}
    )


def _require_positive(params: dict, *names) -> None:
    """Reject counts below one: a check that runs nothing must not pass."""
    for name in names:
        if params[name] < 1:
            raise ValueError(f"{name} must be at least 1, got {params[name]}")


def _child_seeds(seed: int, count: int) -> list:
    """Integer seeds split off a root sequence in a fixed order."""
    import numpy as np

    children = np.random.SeedSequence(seed).spawn(count)
    return [int(child.generate_state(1)[0]) for child in children]


# --------------------------------------------------------------------------
# verify-algebra


def _run_verify_algebra(params: dict, seed: int) -> list:
    import numpy as np

    from .fock import (
        FockSpaceConfig,
        annihilation,
        commutator,
        creation,
        identity,
        max_abs_on_guard,
        oscillator_identity_residuals,
    )
    from .spinors import (
        dirac_plus_even,
        dirac_plus_odd,
        square_identity_residual,
        vacuum_szego,
    )

    config = FockSpaceConfig(params["n"], params["cutoff"])
    checks = []

    eye = identity(config)
    labels = range(1, config.num_vars + 1)
    raising = {j: creation(config, j) for j in labels}
    lowering = {j: annihilation(config, j) for j in labels}
    worst = 0.0
    for j in labels:
        for k in labels:
            comm = commutator(raising[j], lowering[k])
            expected = -2.0 if j == k else 0.0
            diff = comm.matrix - expected * eye.matrix
            worst = max(worst, max_abs_on_guard(diff, config))
    checks.append(
        _record(
            "ladder-commutators",
            "pairwise commutators of raising and lowering maps are scalar",
            worst,
            _TIGHT,
            {"num_vars": config.num_vars, "cutoff": config.cutoff},
        )
    )

    worst = 0.0
    for j in labels:
        diff = raising[j].matrix.conj().T - lowering[j].matrix
        if diff.nnz:
            worst = max(worst, float(np.abs(diff.data).max()))
    checks.append(
        _record(
            "ladder-adjointness",
            "lowering map is the exact adjoint of the raising map",
            worst,
            0.0,
        )
    )

    res_lower, res_upper = oscillator_identity_residuals(config)
    checks.append(
        _record(
            "oscillator-factorization",
            "oscillator from ladder products in both orders",
            max(res_lower, res_upper),
            _TIGHT,
        )
    )

    checks.append(
        _record(
            "square-diagonal",
            "squared chiral operator is diagonal in the total degree",
            square_identity_residual(config),
            _TIGHT,
        )
    )

    pi0 = vacuum_szego(config).matrix
    lower_prod = pi0 @ dirac_plus_odd(config).matrix
    raise_prod = dirac_plus_even(config).matrix @ pi0
    worst = max(
        float(np.abs(lower_prod.data).max()) if lower_prod.nnz else 0.0,
        float(np.abs(raise_prod.data).max()) if raise_prod.nnz else 0.0,
    )
    checks.append(
        _record(
            "vacuum-annihilation",
            "vacuum row and column of the chiral blocks vanish identically",
            worst,
            0.0,
        )
    )
    return checks


# --------------------------------------------------------------------------
# verify-symbols


def _run_verify_symbols(params: dict, seed: int) -> list:
    import numpy as np

    from .symbols import (
        EVEN,
        ODD,
        Covector,
        HessianData,
        boundary_isomorphism,
        calderon_symbol0,
        closed_form_contact_contour,
        closed_form_trace_contour,
        comparison_symbol0,
        contour_integral,
        d1,
        q_symbol_integrand,
        random_covector,
        random_hessian,
        symbol_dimension,
        trace_term_integrand,
    )

    _require_positive(params, "samples", "quadrature_samples")
    n, samples = params["n"], params["samples"]
    seeds = _child_seeds(seed, 4)
    checks = []
    dim = symbol_dimension(n)
    eye = np.eye(dim)

    rng = np.random.default_rng(seeds[0])
    worst = 0.0
    for _ in range(samples):
        xi = random_covector(rng, n)
        half_sq = 0.5 * xi.norm**2
        odd, even = d1(ODD, xi).matrix, d1(EVEN, xi).matrix
        oe = odd @ even
        eo = even @ odd
        worst = max(
            worst,
            float(np.abs(oe - half_sq * eye).max()),
            float(np.abs(eo - half_sq * eye).max()),
        )
    checks.append(
        _record(
            "gradient-factorization",
            "chiral gradient symbols compose to half the squared norm",
            worst,
            _TIGHT,
            {"samples": samples, "n": n},
        )
    )

    rng = np.random.default_rng(seeds[1])
    worst = 0.0
    for _ in range(samples):
        xp = random_covector(rng, n, boundary=True)
        for ch in _CHIRALITIES:
            plus = calderon_symbol0(ch, +1, xp).matrix
            minus = calderon_symbol0(ch, -1, xp).matrix
            worst = max(
                worst,
                float(np.abs(plus @ plus - plus).max()),
                float(np.abs(minus @ minus - minus).max()),
                float(np.abs(plus + minus - eye).max()),
            )
    checks.append(
        _record(
            "boundary-projector-algebra",
            "order-zero boundary symbols are complementary idempotents",
            worst,
            _TIGHT,
            {"samples": samples},
        )
    )

    rng = np.random.default_rng(seeds[2])
    worst = 0.0
    for _ in range(samples):
        xp = random_covector(rng, n, boundary=True)
        ell = xp.boundary_norm
        expected = np.sqrt((ell + xp.xi_contact) ** 2 + xp.perp_norm**2) / (2 * ell)
        for ch in _CHIRALITIES:
            sv = np.linalg.svd(comparison_symbol0(ch, xp).matrix, compute_uv=False)
            worst = max(worst, float(np.abs(sv - expected).max()))
    ray = Covector(0.0, -1.5, (0.0,) * (2 * (n - 1)))
    anti_ray = Covector(0.0, 1.5, (0.0,) * (2 * (n - 1)))
    for ch in _CHIRALITIES:
        worst = max(worst, float(np.abs(comparison_symbol0(ch, ray).matrix).max()))
        worst = max(
            worst,
            float(np.abs(comparison_symbol0(ch, anti_ray).matrix - eye).max()),
        )
    checks.append(
        _record(
            "comparison-degeneration",
            "comparison symbol has scalar singular values, vanishing "
            "exactly on the negative contact ray",
            worst,
            _TIGHT,
            {"samples": samples},
        )
    )

    rng = np.random.default_rng(seeds[3])
    quad_samples = params["quadrature_samples"]
    worst_rel = 0.0
    for instance in range(quad_samples):
        xp = random_covector(rng, n, boundary=True)
        hess = (
            HessianData.kahler(n)
            if instance == 0
            else random_hessian(rng, n, contact_adapted=False)
        )
        for ch in _CHIRALITIES:
            closed = closed_form_trace_contour(ch, hess, xp)
            scale = float(np.abs(closed).max())
            for side in (+1, -1):
                quad = contour_integral(trace_term_integrand(ch, xp, hess), side, xp)
                worst_rel = max(
                    worst_rel, float(np.abs(quad.matrix - closed).max()) / scale
                )
        source = ODD
        quad = contour_integral(q_symbol_integrand(-1, source, xp), +1, xp)
        composed = quad.matrix @ boundary_isomorphism(EVEN, +1, n).matrix
        direct = calderon_symbol0(EVEN, +1, xp).matrix
        worst_rel = max(worst_rel, float(np.abs(composed - direct).max()))
        contact = Covector(
            0.0, float(rng.uniform(0.5, 2.0)), (0.0,) * (2 * (n - 1))
        )
        hess_contact = random_hessian(rng, n)
        for ch in _CHIRALITIES:
            closed = closed_form_contact_contour(ch, hess_contact, contact)
            scale = float(np.abs(closed).max())
            quad = contour_integral(
                q_symbol_integrand(-2, ch, contact, hess_contact), -1, contact
            )
            worst_rel = max(
                worst_rel, float(np.abs(quad.matrix - closed).max()) / scale
            )
    checks.append(
        _record(
            "quadrature-closed-forms",
            "contour quadrature matches the residue closed forms",
            worst_rel,
            _QUADRATURE_RTOL,
            {"instances": quad_samples, "includes_kahler": True},
        )
    )
    return checks


# --------------------------------------------------------------------------
# model-invert


def _run_model_invert(params: dict, seed: int) -> list:
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
    checks = []
    for chirality, child in zip(chiralities, _child_seeds(seed, len(chiralities))):
        report = models.certify_invertibility(
            chirality, config, num_rhs=params["num_rhs"], seed=child
        )
        name = f"inverse-certificate-{chirality}"
        anchor = (
            "closed-form inverse of the comparison model on guarded data, "
            "with finite-rank deformation bookkeeping"
        )
        if report["error"] is not None:
            checks.append(_rejected(name, anchor, report["error"]))
            continue
        details = {
            "chirality": chirality,
            "smallest_singular_value": _fixed(report["smallest_singular_value"]),
            "deformation_block_ranks": report["deformation_block_ranks"],
            "num_rhs": report["num_rhs"],
        }
        checks.append(
            _record(
                name,
                anchor,
                report["residual_max"],
                config.tol,
                details,
                status="pass" if report["passed"] else "fail",
            )
        )
    return checks


# --------------------------------------------------------------------------
# relindex


def _draw_rank(rng, dim: int, fixed) -> int:
    if fixed is not None:
        return fixed
    return int(rng.integers(0, dim + 1))


def _run_relindex(params: dict, seed: int) -> list:
    import numpy as np

    from . import pairs

    _require_positive(params, "dim", "trials")
    dim, trials = params["dim"], params["trials"]
    seeds = _child_seeds(seed, 3)
    checks = []

    rng = np.random.default_rng(seeds[0])
    mismatches = 0
    for _ in range(trials):
        p = pairs.random_projector(rng, dim, _draw_rank(rng, dim, params["rank_p"]))
        r = pairs.random_projector(rng, dim, _draw_rank(rng, dim, params["rank_r"]))
        pair = pairs.ProjectorPair.from_projectors(p, r)
        expected = pairs.relative_index_rank(pair)
        flipped = pairs.ProjectorPair.from_projectors(p.complement(), r.complement())
        agree = (
            pairs.relative_index_kernel(pair) == expected
            and pairs.relative_index_trace(pair).index == expected
            and pairs.relative_index_kernel(flipped) == -expected
        )
        mismatches += 0 if agree else 1
    checks.append(
        _record(
            "triple-agreement",
            "kernel, trace, and rank routes agree, with antisymmetry "
            "under complementation",
            float(mismatches),
            0.0,
            {"trials": trials, "dimension": dim},
        )
    )

    rng = np.random.default_rng(seeds[1])
    mismatches = 0
    for _ in range(trials):
        p = pairs.random_projector(rng, dim, _draw_rank(rng, dim, None))
        q = pairs.random_projector(rng, dim, _draw_rank(rng, dim, None))
        r = pairs.random_projector(rng, dim, _draw_rank(rng, dim, None))
        if not pairs.logarithmic_property(p, q, r)["consistent"]:
            mismatches += 1
    checks.append(
        _record(
            "logarithmic-property",
            "composite relative index splits as the sum of the two steps",
            float(mismatches),
            0.0,
            {"trials": trials, "dimension": dim},
        )
    )

    rng = np.random.default_rng(seeds[2])
    mismatches = 0
    for _ in range(trials):
        p = pairs.random_projector(rng, dim, _draw_rank(rng, dim, params["rank_p"]))
        r = pairs.random_projector(rng, dim, _draw_rank(rng, dim, params["rank_r"]))
        base = pairs.relative_index_trace(pairs.ProjectorPair.from_projectors(p, r))
        noise = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        pert = pairs.ProjectorPair.from_projectors(p, r, smoothing=noise)
        if pairs.relative_index_trace(pert).index != base.index:
            mismatches += 1
    checks.append(
        _record(
            "parametrix-invariance",
            "trace-formula integer survives arbitrary smoothing "
            "perturbations of the parametrix",
            float(mismatches),
            0.0,
            {"trials": trials, "dimension": dim},
        )
    )
    return checks


# --------------------------------------------------------------------------
# toeplitz


def _run_toeplitz(params: dict, seed: int) -> list:
    from . import pairs

    window, k = params["window"], params["k"]
    name, anchor = (
        "winding-recovery",
        "relative index of the clipped shift recovers the winding number",
    )
    try:
        value = pairs.toeplitz_winding(window, k)
    except AdmissibilityError as exc:
        return [_rejected(name, anchor, exc)]
    return [
        _record(
            name,
            anchor,
            float(abs(value - k)),
            0.0,
            {"window": window, "k": k, "value": value},
        )
    ]


# --------------------------------------------------------------------------
# topo


def _descriptor(payload: dict) -> topo.FillingDescriptor:
    allowed = {"signature", "euler", "h01", "stein", "h02", "chi_prime"}
    unknown = set(payload) - allowed
    if unknown:
        raise UsageError(f"unknown filling fields: {sorted(unknown)}")
    if not {"signature", "euler"} <= set(payload):
        raise UsageError("a filling needs at least 'signature' and 'euler'")
    return topo.FillingDescriptor(**payload)


def _spinc(payload: dict) -> topo.SpinCNumbers:
    allowed = {"c1_squared", "c2", "signature", "euler"}
    unknown = set(payload) - allowed
    if unknown:
        raise UsageError(f"unknown characteristic fields: {sorted(unknown)}")
    return topo.SpinCNumbers(**payload)


def _topo_quantity(checks: list, name: str, anchor: str, compute) -> None:
    try:
        value = compute()
    except AdmissibilityError as exc:
        checks.append(_rejected(name, anchor, exc))
    else:
        checks.append(_record(name, anchor, 0.0, 0.0, {"value": int(value)}))


def _run_topo(params: dict, seed: int) -> list:
    checks = []
    try:
        x0 = _descriptor(params["x0"])
    except AdmissibilityError as exc:
        return [_rejected("filling-x0", "descriptor admissibility", exc)]
    checks.append(
        _record(
            "filling-x0",
            "descriptor admissibility",
            0.0,
            0.0,
            {"chi_prime": x0.chi_prime, "stein": x0.stein},
        )
    )
    _topo_quantity(
        checks,
        "moduli-dimension-reversed",
        "formal moduli dimension after orientation reversal",
        lambda: topo.seiberg_witten_dim_reversed(x0.euler),
    )

    x1 = None
    if params["x1"] is not None:
        try:
            x1 = _descriptor(params["x1"])
        except AdmissibilityError as exc:
            checks.append(_rejected("filling-x1", "descriptor admissibility", exc))
            return checks
        checks.append(
            _record(
                "filling-x1",
                "descriptor admissibility",
                0.0,
                0.0,
                {"chi_prime": x1.chi_prime, "stein": x1.stein},
            )
        )
        _topo_quantity(
            checks,
            "moduli-dimension",
            "formal moduli dimension of the glued double",
            lambda: topo.seiberg_witten_dim(x1.euler),
        )
        _topo_quantity(
            checks,
            "glued-double-index",
            "signature/Euler quarter-sum with its divisibility gate",
            lambda: topo.glued_double_index(x0, x1),
        )
        _topo_quantity(
            checks,
            "relative-index-3d",
            "boundary relative index from filling data",
            lambda: topo.rind_3d(x0, x1),
        )
        _topo_quantity(
            checks,
            "relative-index-glued",
            "glued index corrected by the boundary terms",
            lambda: topo.rind_weinstein(params["ind_glued"], x0, x1),
        )

    if params["spinc"] is not None:
        try:
            nums = _spinc(params["spinc"])
        except AdmissibilityError as exc:
            checks.append(
                _rejected("characteristic-numbers", "four-manifold relation", exc)
            )
            return checks
        _topo_quantity(
            checks,
            "index-from-canonical-class",
            "eighth of the canonical-class excess, gated to an integer",
            lambda: topo.ind_from_c1(nums),
        )
        _topo_quantity(
            checks,
            "index-from-second-chern",
            "quarter-sum through the second Chern number, gated",
            lambda: topo.ind_from_c2(nums),
        )
    return checks


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
    """Dispatch a request to its owning module and assemble the report."""
    started = time.perf_counter()
    checks = _RUNNERS[request.subcommand](request.params, request.seed)
    passed = all(check["status"] == "pass" for check in checks)
    return Report(
        request=request,
        checks=tuple(checks),
        passed=passed,
        wall_time=time.perf_counter() - started,
    )


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fockindex",
        description="reproducible verification runs over the fockindex library",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument(
            "--input",
            default=None,
            help="JSON file supplying params (explicit flags override it)",
        )

    p = sub.add_parser("verify-algebra", help="ladder and vacuum identities")
    p.add_argument("--n", type=int, default=None, help="number of oscillator variables")
    p.add_argument("--cutoff", type=int, default=None)
    common(p)

    p = sub.add_parser("verify-symbols", help="boundary symbol identities")
    p.add_argument("--n", type=int, default=None, help="complex dimension")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--quadrature-samples", type=int, default=None)
    common(p)

    p = sub.add_parser("model-invert", help="model inverse certificates")
    p.add_argument("--chirality", choices=("even", "odd", "both"), default=None)
    p.add_argument("--n", type=int, default=None, help="complex dimension")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--cutoff", type=int, default=None)
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--num-rhs", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    common(p)

    p = sub.add_parser("relindex", help="relative index cross-checks")
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--rank-p", type=int, default=None)
    p.add_argument("--rank-r", type=int, default=None)
    common(p)

    p = sub.add_parser("toeplitz", help="winding number recovery")
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    common(p)

    p = sub.add_parser("topo", help="glued-boundary integer formulas")
    p.add_argument("--x0", default=None, help="filling descriptor as inline JSON")
    p.add_argument("--x1", default=None, help="filling descriptor as inline JSON")
    p.add_argument("--spinc", default=None, help="characteristic numbers as inline JSON")
    p.add_argument("--ind-glued", type=int, default=None)
    common(p)

    return parser


_DEFAULTS = {
    "verify-algebra": {"n": 2, "cutoff": 16},
    "verify-symbols": {"n": 2, "samples": 100, "quadrature_samples": 5},
    "model-invert": {
        "chirality": "both",
        "n": 2,
        "alpha": 1.0,
        "beta": None,
        "cutoff": 12,
        "theta": 0.0,
        "num_rhs": 16,
        "tol": 1e-9,
    },
    "relindex": {"dim": 24, "trials": 20, "rank_p": None, "rank_r": None},
    "toeplitz": {"window": 64, "k": 3},
    "topo": {"x0": None, "x1": None, "spinc": None, "ind_glued": 0},
}

_JSON_PARAMS = {"topo": ("x0", "x1", "spinc")}


def _request_from_args(args: argparse.Namespace) -> RunRequest:
    subcommand = args.subcommand
    params = dict(_DEFAULTS[subcommand])
    if args.input is not None:
        try:
            with open(args.input) as handle:
                supplied = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read --input file: {exc}") from exc
        if not isinstance(supplied, dict):
            raise UsageError("--input must hold a JSON object of params")
        unknown = set(supplied) - set(params)
        if unknown:
            raise UsageError(f"unknown params in --input: {sorted(unknown)}")
        params.update(supplied)
    for key in params:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            params[key] = flag_value
    for key in _JSON_PARAMS.get(subcommand, ()):
        if isinstance(params[key], str):
            try:
                params[key] = json.loads(params[key])
            except json.JSONDecodeError as exc:
                raise UsageError(f"--{key} is not valid JSON: {exc}") from exc
    if subcommand == "topo" and params["x0"] is None:
        raise UsageError("topo needs at least --x0 (or an --input file)")
    return RunRequest(
        subcommand=subcommand,
        params=params,
        seed=args.seed,
        format=args.format,
    )


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else 1
    try:
        request = _request_from_args(args)
        report = run(request)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AdmissibilityError as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(report.to_json() if request.format == "json" else report.to_text())
    if report.rejected:
        return 2
    return 0 if report.passed else 3


if __name__ == "__main__":
    sys.exit(main())
