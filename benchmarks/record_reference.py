#!/usr/bin/env python3
"""Record reference.json: per-row xi^2 of the tiny pass at the default seed.

    python3 benchmarks/record_reference.py

run.py compares every run's warm-up pass against these values.  Re-record
only when a change to the numbers is intended and justified.  mc_sampling
has no entry: its rows follow the RNG stream, which may legitimately change;
its check is the stream-independent mixture-mean test instead.
"""

import json
import shutil
import sys

import run


def main():
    workloads = run.load_workloads()
    workdir = run.OUT_DIR / "record-reference"
    reference = {}
    try:
        for name in ("oracle_sweep", "figure_grids"):
            workload = workloads.WORKLOADS[name](workloads.DEFAULT_SEED, "tiny", workdir)
            _, _, results = run.run_pass(workload.calls)
            reference[name] = {}
            for call, (value, error, *_) in zip(workload.calls, results):
                outcome = call.check(value) if error is None else None
                if outcome is None or outcome.problems:
                    sys.exit(f"error: {name} {call.label} failed: {error or outcome.problems}")
                reference[name][call.label] = outcome.xi
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = run.HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
