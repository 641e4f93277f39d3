"""Workload definitions and output checks for the fockindex benchmark.

Every request is built here with its full parameter dict, so the benchmark
depends only on the public request format (``cli.RunRequest``), the CLI
flags of the README examples, and the report JSON.  A request is a tuple
``(key, subcommand, params, seed)``; ``key`` names its reference entry in
``reference.json``.
"""

from __future__ import annotations

import inspect
import itertools
import json
import random
from pathlib import Path

WORKLOADS = ("cli-cold", "model-sweep", "checks-mix")

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Detail fields that count samples; a zero means the check checked nothing.
SAMPLE_COUNT_FIELDS = ("samples", "trials", "instances", "num_rhs")

X0 = {"signature": 1, "euler": 2, "stein": True}
X1 = {"signature": 1, "euler": -2, "h02": 1}

# The six example invocations of the README, as arguments to cli.main.
README_INVOCATIONS = {
    "readme/verify-algebra": ["verify-algebra", "--n", "2", "--cutoff", "16",
                              "--seed", "7"],
    "readme/verify-symbols": ["verify-symbols", "--n", "2", "--samples", "100",
                              "--seed", "3"],
    "readme/model-invert": ["model-invert", "--chirality", "both", "--n", "2",
                            "--theta", "0.3", "--seed", "5"],
    "readme/relindex": ["relindex", "--dim", "24", "--trials", "20",
                        "--seed", "9"],
    "readme/toeplitz": ["toeplitz", "--window", "64", "--k", "3"],
    "readme/topo": ["topo", "--x0", json.dumps(X0), "--x1", json.dumps(X1)],
}

# A cold request: a fresh interpreter calling the CLI entry point.
COLD_MAIN = ("import sys; from fockindex.cli import main; "
             "sys.exit(main(sys.argv[1:]))")

MODEL_SIZES = ((3, 16), (4, 7), (5, 4))
THETA_RANGE = (0.05, 0.6)


def model_params(n, cutoff, theta):
    return {"chirality": "both", "n": n, "alpha": 1.0, "beta": None,
            "cutoff": cutoff, "theta": theta, "num_rhs": 16, "tol": 1e-9}


# The checks-mix cycle: (key, subcommand, params).
CHECKS_MIX = (
    ("mix/verify-algebra", "verify-algebra", {"n": 3, "cutoff": 20}),
    ("mix/verify-symbols", "verify-symbols",
     {"n": 2, "samples": 100, "quadrature_samples": 5}),
    ("mix/relindex", "relindex",
     {"dim": 32, "trials": 20, "rank_p": None, "rank_r": None}),
    ("mix/toeplitz", "toeplitz", {"window": 128, "k": 3}),
    ("mix/topo", "topo", {"x0": X0, "x1": X1, "spinc": None, "ind_glued": 0}),
)


def cycle_length(workload):
    """Number of distinct reference keys a workload cycles through."""
    return {"cli-cold": len(README_INVOCATIONS),
            "model-sweep": len(MODEL_SIZES),
            "checks-mix": len(CHECKS_MIX)}[workload]


def _seed(rng):
    return rng.randrange(2**31)


def requests(workload, seed):
    """Endless request stream for a workload, fixed by ``seed``."""
    rng = random.Random(seed)
    if workload == "cli-cold":
        keys = sorted(README_INVOCATIONS)
        while True:
            rng.shuffle(keys)
            yield from ((key, None, None, None) for key in keys)
    elif workload == "model-sweep":
        for n, cutoff in itertools.cycle(MODEL_SIZES):
            theta = rng.uniform(*THETA_RANGE)
            yield (f"sweep/n{n}-cutoff{cutoff}", "model-invert",
                   model_params(n, cutoff, theta), _seed(rng))
    elif workload == "checks-mix":
        for key, subcommand, params in itertools.cycle(CHECKS_MIX):
            yield key, subcommand, dict(params), _seed(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")


class VacuousCheck(Exception):
    """A report holds a check that ran zero samples."""


def exact_fields(payload):
    """The report fields that must match the reference exactly.

    Check names and statuses, and every detail that is not a float (sample
    counts, indices, winding values, block ranks, topological values).
    Floats are judged by the report's own ``passed``.
    """
    checks = []
    for check in payload["checks"]:
        details = {k: v for k, v in check["details"].items()
                   if not isinstance(v, float)}
        checks.append({"name": check["name"], "status": check["status"],
                       "details": details})
    return {"passed": payload["passed"], "checks": checks}


def check_report(key, report_bytes, reference):
    """Return None if the report is right, else a reason; raise if vacuous."""
    payload = json.loads(report_bytes)
    for check in payload["checks"]:
        for field in SAMPLE_COUNT_FIELDS:
            if check["details"].get(field) == 0:
                raise VacuousCheck(f"{key}: check {check['name']} ran zero "
                                   f"{field}")
    if payload["passed"] is not True:
        return f"{key}: report not passed"
    if exact_fields(payload) != reference[key]:
        return f"{key}: exact fields differ from the reference"
    return None


def load_reference():
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)


def problem_sizes(payload):
    """Problem sizes behind a request, from its report's echoed params.

    Uses public library names only; a size the library can no longer give
    is recorded as unavailable rather than failing the run.
    """
    from fockindex import fock, spinors, symbols

    subcommand = payload["request"]["subcommand"]
    params = payload["request"]["params"]
    try:
        if subcommand in ("verify-algebra", "model-invert"):
            config = fock.FockSpaceConfig(params["n"], params["cutoff"])
            return {
                "fock_dim": config.dimension,
                "graded_dim": spinors.graded_dimension(config),
                "even_sector_dim": len(spinors.sector_indices(config, "even")),
                "odd_sector_dim": len(spinors.sector_indices(config, "odd")),
            }
        if subcommand == "verify-symbols":
            nodes = inspect.signature(symbols.contour_integral).parameters.get(
                "num_points")
            return {"symbol_dim": symbols.symbol_dimension(params["n"]),
                    "nodes_per_contour": getattr(nodes, "default", None)}
        if subcommand == "relindex":
            return {"projector_dim": params["dim"], "trials": params["trials"]}
        if subcommand == "toeplitz":
            return {"window": params["window"]}
        return {}
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        return {"unavailable": repr(exc)}
