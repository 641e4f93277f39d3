"""Self-test of the benchmark tracer.

    python3 perfbench/selftest.py

Run from the root of a checkout.  For one small request per subcommand it
checks, both for a cold CLI process (``tracer.py`` against a plain
``fockindex.cli.main`` process) and in-process (the tracer installed over
already loaded modules):

* the traced and untraced reports are the same bytes, with the same exit
  code;
* the layers' self times, ``cli.self_s`` included, add up to the traced
  request time measured around the root span;
* the layers the subcommand is known to use recorded calls, so a wrapper
  that silently failed to install shows.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# (argv, in-process params, layers that must record calls, owner first)
SMALL = (
    (["verify-algebra", "--n", "2", "--cutoff", "6", "--seed", "1"],
     {"n": 2, "cutoff": 6}, ("fock", "spinors")),
    (["verify-symbols", "--n", "2", "--samples", "4",
      "--quadrature-samples", "1", "--seed", "2"],
     {"n": 2, "samples": 4, "quadrature_samples": 1}, ("symbols", "linalg")),
    (["model-invert", "--chirality", "both", "--n", "2", "--cutoff", "6",
      "--theta", "0.3", "--num-rhs", "2", "--seed", "3"],
     dict(workloads.model_params(2, 6, 0.3), num_rhs=2),
     ("models", "spinors", "linalg")),
    (["relindex", "--dim", "8", "--trials", "3", "--seed", "4"],
     {"dim": 8, "trials": 3, "rank_p": None, "rank_r": None},
     ("pairs", "linalg")),
    (["toeplitz", "--window", "16", "--k", "2"],
     {"window": 16, "k": 2}, ("pairs",)),
    (["topo", "--x0", json.dumps(workloads.X0), "--x1", json.dumps(workloads.X1)],
     {"x0": workloads.X0, "x1": workloads.X1, "spinc": None, "ind_glued": 0},
     ("topo",)),
)


def layer_sum(totals):
    return sum(v for k, v in totals.items() if k.endswith(".self_s"))


def check_trace(label, totals, request_s, layers, problems):
    if abs(layer_sum(totals) - totals["request_s"]) > 1e-9 * request_s + 1e-9:
        problems.append(f"{label}: self times sum to {layer_sum(totals)}, "
                        f"root span is {totals['request_s']}")
    gap = request_s - layer_sum(totals)
    if not 0.0 <= gap <= 1e-3 + 0.01 * request_s:
        problems.append(f"{label}: self times sum to {layer_sum(totals)} s, "
                        f"traced request took {request_s} s")
    for layer in layers:
        if not totals.get(f"{layer}.calls"):
            problems.append(f"{label}: no {layer} calls recorded")


def cold(problems):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for argv, _params, layers in SMALL:
        plain = subprocess.run([sys.executable, "-c", workloads.COLD_MAIN, *argv],
                               capture_output=True, env=env, timeout=120,
                               check=False)
        started = time.perf_counter()
        traced = subprocess.run([sys.executable, str(HERE / "tracer.py"), *argv],
                                capture_output=True, env=env, timeout=120,
                                check=False)
        wall = time.perf_counter() - started
        label = f"cold {argv[0]}"
        if (plain.returncode, plain.stdout) != (traced.returncode, traced.stdout):
            problems.append(f"{label}: traced report differs from untraced")
            continue
        line = next(line for line in traced.stderr.decode().splitlines()
                    if line.startswith(tracing.MARKER))
        trace = json.loads(line[len(tracing.MARKER):])
        totals = tracing.summarize(trace["spans"], {0: trace["evals"]})
        # The process also starts and exits outside the root span, so only
        # the identity and the upper bound hold against its wall time.
        check_trace(label, totals, totals["request_s"], layers, problems)
        if totals["request_s"] > wall:
            problems.append(f"{label}: root span longer than the process")


def in_process(problems):
    sys.path.insert(0, str(SRC))
    from fockindex import cli

    def report(argv, params):
        request = cli.RunRequest(subcommand=argv[0], params=params,
                                 seed=int(dict(zip(argv[1::2], argv[2::2]))
                                          .get("--seed", 0)))
        return cli.run(request).to_json().encode()

    untraced = [report(argv, params) for argv, params, _ in SMALL]
    tracer = tracing.Tracer()
    tracer.install()
    for request_id, ((argv, params, layers), expected) in enumerate(
            zip(SMALL, untraced)):
        label = f"in-process {argv[0]}"
        tracer.spans.clear()
        tracer.evals.clear()
        started = time.perf_counter()
        try:
            with tracer.root(request_id):
                data = report(argv, params)
        except Exception as exc:  # a wrapper that breaks a call is a finding
            problems.append(f"{label}: traced request raised {exc!r}")
            continue
        request_s = time.perf_counter() - started
        if data != expected:
            problems.append(f"{label}: traced report differs from untraced")
        # Caches warmed by the untraced pass may skip lower layers, so only
        # the subcommand's own layer must record calls here.
        check_trace(label, tracing.summarize(tracer.spans, tracer.evals), request_s,
                    layers[:1], problems)


def main():
    problems = []
    cold(problems)
    in_process(problems)
    for problem in problems:
        print(f"FAIL {problem}")
    print(f"selftest: {len(SMALL)} subcommands, cold and in-process, "
          f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
