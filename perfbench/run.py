"""fockindex benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload model-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  With ``--trace 0`` it measures set-up
``SETUP_REPEATS`` times (a fresh worker each time), then runs the closed loop
for ``--seconds`` in the last worker and reports the end-to-end metrics.
With ``--trace 1`` it runs an untraced and a traced worker for half the time
each, times imports with ``python -X importtime``, and reports the per-layer
metrics.  Human-readable lines come first; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every request was correct.
See ``README.md`` in this directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_REPEATS = 3
READY_TIMEOUT_S = 60.0
RESULT_TIMEOUT_S = 170.0
TAIL_BEYOND = 10

END_TO_END = (
    ("setup_s", "s"),
    ("request_s.p50", "s"),
    ("request_s.tail", "s"),
    ("requests_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

# Per-request means from the traced run, then the run-level figures.
PER_LAYER = (
    ("models.self_s", "s/req"),
    ("models.calls", "count/req"),
    ("models.pinv.calls", "count/req"),
    ("models.pinv.s", "s/req"),
    ("models.svd.calls", "count/req"),
    ("models.svd.s", "s/req"),
    ("models.dense_bytes.computed", "B/req"),
    ("spinors.self_s", "s/req"),
    ("spinors.calls", "count/req"),
    ("fock.self_s", "s/req"),
    ("fock.calls", "count/req"),
    ("symbols.self_s", "s/req"),
    ("symbols.calls", "count/req"),
    ("symbols.contour_integral.calls", "count/req"),
    ("symbols.contour_integral.s", "s/req"),
    ("symbols.integrand.evals", "count/req"),
    ("pairs.self_s", "s/req"),
    ("pairs.calls", "count/req"),
    ("pairs.svd.calls", "count/req"),
    ("pairs.svd.s", "s/req"),
    ("topo.self_s", "s/req"),
    ("topo.calls", "count/req"),
    ("linalg.self_s", "s/req"),
    ("cli.self_s", "s/req"),
    ("cli.to_json_s", "s/req"),
)
RUN_LEVEL = (
    ("import.total_s", "s"),
    ("import.numpy_s", "s"),
    ("import.scipy_s", "s"),
    ("import.fockindex_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


class BenchmarkError(Exception):
    """The benchmark could not produce a valid result."""


def worker_env():
    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": str(ROOT / "src"),
        "OPENBLAS_NUM_THREADS": threads,
        "OMP_NUM_THREADS": threads,
        "MKL_NUM_THREADS": threads,
    })
    return env


class Worker:
    """A worker process, started and timed until it reports ready."""

    def __init__(self, workload, seed, traced):
        command = [sys.executable, str(HERE / "worker.py"),
                   "--workload", workload, "--seed", str(seed)]
        if traced:
            command.append("--traced")
        started = time.perf_counter()
        self.proc = subprocess.Popen(command, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True,
                                     env=worker_env(), cwd=ROOT)
        try:
            line = self._readline(READY_TIMEOUT_S)
        except BenchmarkError:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started
        if line.strip() != "ready":
            self.stop()
            raise BenchmarkError(f"worker did not start (exit code "
                                 f"{self.proc.returncode})")

    def _readline(self, timeout):
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        if not ready:
            raise BenchmarkError(f"worker silent for {timeout} s")
        return self.proc.stdout.readline()

    def command(self, text, timeout=RESULT_TIMEOUT_S):
        """Send one command; return the worker's JSON result, if any."""
        try:
            self.proc.stdin.write(text + "\n")
            self.proc.stdin.flush()
            line = self._readline(timeout) if text != "quit" else ""
        finally:
            self.stop()
        if self.proc.returncode != 0:
            raise BenchmarkError(f"worker exited with {self.proc.returncode}")
        return json.loads(line) if line else None

    def stop(self):
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            stream.close()


def run_loop(workload, seed, seconds, traced=False):
    worker = Worker(workload, seed, traced)
    result = worker.command(f"go {seconds}")
    result["setup_s"] = worker.setup_s
    return result


def tail(latencies):
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    rank = len(ordered) - TAIL_BEYOND - 1
    if rank < 0:
        raise BenchmarkError(f"only {len(ordered)} samples, no tail")
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def end_to_end(workload, seed, seconds):
    setups = []
    for _ in range(SETUP_REPEATS - 1):
        worker = Worker(workload, seed, traced=False)
        setups.append(worker.setup_s)
        worker.command("quit")
    result = run_loop(workload, seed, seconds)
    setups.append(result["setup_s"])
    latencies = result["latencies"]
    tail_s, tail_pct = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setups),
        "request_s.p50": statistics.median(latencies),
        "request_s.tail": tail_s,
        "requests_per_s": statistics.median(
            result["cycle_length"] / seconds for seconds in result["cycle_s"]),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    notes = {
        "setup_s.samples": setups,
        "request_s.samples": len(latencies),
        "cycles": len(result["cycle_s"]),
        "request_s.tail_percentile": round(tail_pct, 1),
        "failed_frac": result["failed"] / result["attempted"],
    }
    return result, metrics, END_TO_END, notes


def import_times():
    """Mean import self time by package over one cold process per README
    invocation, from ``python -X importtime``."""
    sums = {"total": 0.0, "numpy": 0.0, "scipy": 0.0, "fockindex": 0.0}
    for argv in workloads.README_INVOCATIONS.values():
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", workloads.COLD_MAIN,
             *argv],
            capture_output=True, text=True, env=worker_env(), cwd=ROOT,
            timeout=120, check=False)
        if done.returncode != 0:
            raise BenchmarkError(f"importtime run of {argv[0]} failed")
        for line in done.stderr.splitlines():
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            self_us, _cumulative, name = line[len("import time:"):].split("|")
            seconds = int(self_us) / 1e6
            package = name.strip().split(".")[0]
            sums["total"] += seconds
            if package in sums:
                sums[package] += seconds
    count = len(workloads.README_INVOCATIONS)
    return {f"import.{k}_s": v / count for k, v in sums.items()}


def per_layer(workload, seed, seconds):
    untraced = run_loop(workload, seed, seconds / 2)
    result = run_loop(workload, seed, seconds / 2, traced=True)
    trace = result["trace"]
    requests = int(trace.get("requests", 0))
    if requests == 0:
        raise BenchmarkError("the traced run recorded no request")
    self_total = sum(v for k, v in trace.items() if k.endswith(".self_s"))
    if abs(self_total - trace["request_s"]) > 1e-6 * max(1.0, self_total):
        raise BenchmarkError(f"layer self times sum to {self_total} s, "
                             f"traced requests took {trace['request_s']} s")
    metrics = {name: trace.get(name, 0.0) / requests for name, _ in PER_LAYER}
    metrics.update(import_times())
    p50_untraced = statistics.median(untraced["latencies"])
    metrics["trace.overhead_frac"] = (
        statistics.median(result["latencies"]) - p50_untraced) / p50_untraced
    for name in ("attempted", "failed", "failures"):
        result[name] += untraced[name]
    notes = {"traced_requests": requests,
             "traced_request_s.mean": trace["request_s"] / requests,
             "untraced_request_s.p50": p50_untraced}
    return result, metrics, PER_LAYER + RUN_LEVEL, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fockindex" / "cli.py").is_file():
        print(f"error: no fockindex sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    measure = per_layer if args.trace else end_to_end
    try:
        result, metrics, units, notes = measure(args.workload, args.seed,
                                                args.seconds)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    tag = f"{args.workload} seed {args.seed} trace {args.trace}"
    for name, unit in units:
        print(f"{tag}: {name} = {metrics[name]:.6g} {unit}")
    for name, value in notes.items():
        print(f"{tag}: {name} = {value}")
    print(f"{tag}: attempted = {result['attempted']}, "
          f"failed = {result['failed']}")
    for failure in result["failures"]:
        print(f"{tag}: FAILED {failure}")
    print(f"{tag}: sizes = {json.dumps(result['sizes'], sort_keys=True)}")
    print(f"{tag}: facts = {json.dumps(result['facts'], sort_keys=True)}")

    correct = result["failed"] == 0
    summary = {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units},
    }
    OUT.mkdir(exist_ok=True)
    record = dict(summary, notes=notes, sizes=result["sizes"],
                  facts=result["facts"], failures=result["failures"])
    with open(OUT / f"result-{args.workload}-seed{args.seed}"
                    f"-trace{args.trace}.json", "w") as handle:
        json.dump(record, handle, indent=1)
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
