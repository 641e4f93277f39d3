"""One benchmark client: a closed loop of requests in one process.

Started by ``run.py``, never by hand.  The worker imports ``fockindex.cli``
(with the tracer installed first when ``--traced`` is given), builds its
request stream from the seed, issues one untimed warm-up request per
reference key (in-process workloads only), and prints ``ready``.  It then
reads one command from standard input: ``quit``, or ``go <seconds>``, on
which it issues requests one after another until ``seconds`` have passed,
at least ``MIN_SAMPLES`` have completed and the last cycle of request keys is
whole, and prints one JSON line of raw results.

A ``cli-cold`` request is a fresh interpreter that calls
``fockindex.cli.main`` with one README invocation (through ``tracer.py`` when
traced).  The other workloads call ``cli.run`` and ``Report.to_json`` in
this process.  Every report is checked by ``workloads.check_report``; the
first request of each key is issued again after the loop (or compared when
the loop repeats it) and must give the same bytes.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

MIN_SAMPLES = 11
MAX_LOOP_SECONDS = 120.0
CHILD_TIMEOUT_S = 120.0


class InProcessClient:
    def __init__(self, cli, tracer):
        self.cli = cli
        self.tracer = tracer

    def issue(self, request, request_id):
        _key, subcommand, params, seed = request
        run_request = self.cli.RunRequest(subcommand=subcommand, params=params,
                                          seed=seed)
        if self.tracer is None:
            return self.cli.run(run_request).to_json().encode()
        with self.tracer.root(request_id):
            return self.cli.run(run_request).to_json().encode()


class ColdClient:
    def __init__(self, traced):
        self.traced = traced
        self.totals = {}
        self.spans = []
        self.installed = None

    def issue(self, request, request_id):
        argv = workloads.README_INVOCATIONS[request[0]]
        if self.traced:
            command = [sys.executable, str(HERE / "tracer.py"), *argv]
        else:
            command = [sys.executable, "-c", workloads.COLD_MAIN, *argv]
        done = subprocess.run(command, capture_output=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"exit code {done.returncode}: "
                               f"{done.stderr.decode()[-300:]}")
        if self.traced and request_id is not None:
            self._collect(done.stderr.decode())
        return done.stdout

    def _collect(self, stderr):
        line = next(line for line in stderr.splitlines()
                    if line.startswith(tracing.MARKER))
        trace = json.loads(line[len(tracing.MARKER):])
        self.installed = trace["installed"]
        self.spans.append(trace["spans"])
        totals = tracing.summarize(trace["spans"], {0: trace["evals"]})
        for name, value in totals.items():
            self.totals[name] = self.totals.get(name, 0.0) + value


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def machine_facts(installed):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": blas_threads(),
        "wrappers_installed": installed,
    }


def main():
    try:
        return _run()
    except workloads.VacuousCheck as exc:
        print(f"vacuous check: {exc}", file=sys.stderr)
        return 3


def _run():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()
    in_process = args.workload != "cli-cold"

    tracer = None
    if args.traced and in_process:
        tracer = tracing.Tracer()
        tracer.install()
    sys.path.insert(0, str(SRC))
    from fockindex import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported fockindex from {cli.__file__}, not {SRC}")
    reference = workloads.load_reference()
    stream = workloads.requests(args.workload, args.seed)
    client = (InProcessClient(cli, tracer) if in_process
              else ColdClient(args.traced))
    first = {}
    failures = []
    attempted = 0

    def one(request, request_id):
        nonlocal attempted
        attempted += 1
        key = request[0]
        try:
            data = client.issue(request, request_id)
        except Exception as exc:  # any raise is a failed request
            failures.append(f"{key}: raised {exc!r}")
            return
        reason = workloads.check_report(key, data, reference)
        if reason is None and key in first and first[key][0] == request:
            if first[key][1] != data:
                reason = f"{key}: same request gave different bytes"
            first[key] = (request, data, True)
        if reason is not None:
            failures.append(reason)
        first.setdefault(key, (request, data, False))

    if in_process:
        for _ in range(workloads.cycle_length(args.workload)):
            one(next(stream), None)
        first.clear()
    if tracer is not None:
        tracer.spans.clear()
        tracer.evals.clear()
    print("ready", flush=True)

    command = sys.stdin.readline().split()
    if not command or command[0] != "go":
        return 0
    seconds = float(command[1])

    cycle = workloads.cycle_length(args.workload)
    latencies = []
    started = time.perf_counter()
    cycle_ends = [started]
    for request_id, request in enumerate(stream, 1):
        t0 = time.perf_counter()
        one(request, request_id)
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        elapsed = t1 - started
        whole_cycles = len(latencies) % cycle == 0
        if whole_cycles:
            cycle_ends.append(t1)
        if elapsed >= MAX_LOOP_SECONDS or (whole_cycles and elapsed >= seconds
                                           and len(latencies) >= MIN_SAMPLES):
            break

    for key, (request, data, repeated) in list(first.items()):
        if not repeated:
            one(request, None)

    usage = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    result = {
        "latencies": latencies,
        "cycle_s": [end - start for start, end in zip(cycle_ends, cycle_ends[1:])],
        "cycle_length": cycle,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:10],
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
        "sizes": {key: workloads.problem_sizes(json.loads(entry[1]))
                  for key, entry in sorted(first.items())},
    }
    if tracer is not None:
        result["trace"] = tracing.summarize(tracer.spans, tracer.evals)
        installed = tracer.installed
        _write_spans(args, tracer.spans)
    elif args.traced:
        result["trace"] = client.totals
        installed = client.installed
        _write_spans(args, client.spans)
    else:
        installed = None
    result["facts"] = machine_facts(installed)
    print(json.dumps(result), flush=True)
    return 0


def _write_spans(args, spans):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    with open(path, "w") as handle:
        json.dump(spans, handle)


if __name__ == "__main__":
    sys.exit(main())
