"""Write ``reference.json``: the exact report fields of every request key.

    python3 perfbench/make_reference.py

Run from the root of a checkout, and only when a change alters the exact
report fields on purpose.  For every key of every workload it issues the
first requests of several seeds and refuses to write unless they all give
the same exact fields and every report passed, so the stored fields depend
on the request shape only, never on the seed or the drawn theta.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import workloads

SEEDS = range(4)


def main():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from fockindex import cli

    found = {}

    def record(key, report_json):
        fields = workloads.exact_fields(json.loads(report_json))
        if not fields["passed"]:
            raise SystemExit(f"{key}: report did not pass")
        if found.setdefault(key, fields) != fields:
            raise SystemExit(f"{key}: exact fields depend on the seed")

    for key, argv in workloads.README_INVOCATIONS.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"{key}: exit code {code}")
        record(key, out.getvalue())
    for workload in ("model-sweep", "checks-mix"):
        count = workloads.cycle_length(workload)
        for seed in SEEDS:
            stream = workloads.requests(workload, seed)
            for _ in range(count):
                key, subcommand, params, request_seed = next(stream)
                report = cli.run(cli.RunRequest(subcommand=subcommand,
                                                params=params,
                                                seed=request_seed))
                record(key, report.to_json())
    with open(workloads.REFERENCE_PATH, "w") as handle:
        json.dump(dict(sorted(found.items())), handle, indent=1)
        handle.write("\n")
    print(f"wrote {len(found)} keys to {workloads.REFERENCE_PATH}")


if __name__ == "__main__":
    main()
