#!/usr/bin/env python3
"""spinsq benchmark: time the package's batch jobs end to end and layer by layer.

    python3 benchmarks/run.py --workload oracle_sweep --seed 3 --seconds 36 --trace 0
    python3 benchmarks/run.py --workload all --seed 3 --seconds 36 --trace 0

Runs one workload (or ``all`` of them, one process each) on the package
under ``src/`` of this checkout, in one thread, and checks every output.
Stdout carries a metadata line, a table of metrics with units, and as its
last line one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics of BENCHMARK.json with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.  The exit code is
non-zero when any check fails.  Workloads, metrics and the layer they are
meant to move are described in README.md.
"""

import os

# One BLAS thread in this process and in the set-up probes it starts; this
# must happen before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]

#: fresh interpreters timed per run for setup_s (the median is reported)
SETUP_REPEATS = {"full": 7, "tiny": 2}

#: iterations of the calibration loop (see calibrate)
CAL_ITERATIONS = 100_000

#: seconds the calibration loop takes on the reference host.  Every timing
#: of the end-to-end metrics is scaled by CAL_REF_S over the calibration time
#: measured around it, so a host that slows down under other tenants' load
#: reports the same figures.  On a 2-core 2.1 GHz Xeon VM the loop takes
#: 5.3 ms unloaded and 8 to 11 ms when the host is busy.
CAL_REF_S = 0.005


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny: the same passes at seconds-long size, for self-tests",
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_workloads():
    """Import spinsq from this checkout's src/ (never an installed copy)."""
    sys.path.insert(0, str(SRC))
    try:
        import spinsq.cli  # noqa: F401  (set-up time covers the CLI's imports)
    except ImportError as exc:
        sys.exit(f"error: cannot import spinsq from {SRC}: {exc}")
    import spinsq

    if Path(spinsq.__file__).resolve().parent != SRC / "spinsq":
        sys.exit(f"error: spinsq imported from {spinsq.__file__}, not from {SRC}")
    import workloads

    return workloads


# ---------------------------------------------------------------------------
# running and checking passes
# ---------------------------------------------------------------------------

def calibrate():
    """Seconds a fixed pure-Python loop takes now: the host's current speed.

    The loop touches no spinsq code, so a change to the package never moves
    it; only the host does (load from other tenants, frequency changes).
    """
    start = time.perf_counter()
    total = 0
    for i in range(CAL_ITERATIONS):
        total += i * i
    return time.perf_counter() - start


def at_reference_speed(seconds, cal_before, cal_after):
    """Scale a time measured between two calibrations to the reference host."""
    return seconds * CAL_REF_S * 2.0 / (cal_before + cal_after)


def run_pass(calls, calibrated=False):
    """Run one pass; returns (start, wall seconds, [(value, error, seconds, scaled)]).

    ``scaled`` is the call's time at reference host speed when ``calibrated``
    (the calibration loop runs before the first call and after each call, so
    each call sits between two calibrations), else the raw time.
    """
    results = []
    t0 = time.perf_counter()
    cal = calibrate() if calibrated else None
    for call in calls:
        start = time.perf_counter()
        try:
            value, error = call.run(), None
        except Exception as exc:  # counted as a failed call; the run goes on
            value, error = None, exc
            traceback.print_exc()
        seconds = time.perf_counter() - start
        scaled = seconds
        if calibrated:
            cal_after = calibrate()
            scaled = at_reference_speed(seconds, cal, cal_after)
            cal = cal_after
        results.append((value, error, seconds, scaled))
    return t0, time.perf_counter() - t0, results


class Ledger:
    """Checks each call's output and keeps the counts the metrics need."""

    def __init__(self, workloads_module):
        self.w = workloads_module
        self.status = []  # [workload, label, ok] per attempted call
        self.problems = []

    def check(self, workload, results, reference=None):
        """Check one pass; returns (xi values produced, clamped outcomes, bytes)."""
        xi = clamped = out_bytes = 0
        for call, (value, error, *_) in zip(workload.calls, results):
            if error is not None:
                outcome = self.w.Outcome([], problems=[f"raised {error!r}"])
            else:
                outcome = call.check(value)
            problems = list(outcome.problems)
            if reference is not None:
                problems += self._compare(call.label, outcome.xi, reference.get(call.label))
            self.status.append([workload, call.label, not problems])
            self._report(workload, call.label, problems)
            xi += len(outcome.xi)
            clamped += outcome.clamped
            out_bytes += outcome.out_bytes
        return xi, clamped, out_bytes

    def finish(self, workload):
        for problem, labels in workload.finish():
            self._report(workload, "finish", [problem])
            for entry in self.status:
                if entry[0] is workload and entry[1] in labels:
                    entry[2] = False

    def _compare(self, label, values, expected):
        if expected is None:
            return [f"no reference values for {label!r}"]
        if len(values) != len(expected):
            return [f"{len(values)} values, reference has {len(expected)}"]
        bad = sum(
            abs(v - e) > self.w.REFERENCE_RTOL * abs(e) for v, e in zip(values, expected)
        )
        return [f"{bad} values differ from the reference"] if bad else []

    def _report(self, workload, label, problems):
        for problem in problems:
            self.problems.append(f"{workload.name} {label}: {problem}")
            print(f"check failed: {workload.name} {label}: {problem}", file=sys.stderr)

    @property
    def attempted(self):
        return len(self.status)

    @property
    def failed(self):
        return sum(not ok for _, _, ok in self.status)


def measure(workload, seconds, ledger, tracer=None):
    """Run whole passes until the next one would end after ``seconds``.

    With a tracer, plain and traced passes alternate (at least one of each),
    so that the tracing overhead is measured on the same inputs.
    """
    passes = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        enough = len(passes) >= (2 if tracer else 1)
        if enough:
            mean_wall = statistics.fmean(p["wall"] for p in passes)
            if time.perf_counter() - start + mean_wall > seconds:
                return passes
        record = {"traced": traced}
        if traced:
            with tracer:
                t0, wall, results = run_pass(workload.calls)
            # fold the spans now; only the first traced pass keeps them
            spans = [tuple(span) for span in tracer.spans]  # tuples drop out of GC scans
            tracer.spans.clear()
            record["layers"] = tracing.per_name(spans)
            record["uncovered"] = tracing.uncovered_fraction(spans, t0, t0 + wall)
            record["counters"] = dict(tracer.counters)
            tracer.counters.clear()
            if not any(p["traced"] for p in passes):
                record["spans"] = spans
        else:
            # plain passes of a traced run stay uncalibrated, like the traced
            # ones, so that trace.overhead_frac compares like with like
            t0, wall, results = run_pass(workload.calls, calibrated=tracer is None)
        xi, clamped, out_bytes = ledger.check(workload, results)
        record.update(wall=wall, call_s=[r[2] for r in results], scaled_s=[r[3] for r in results],
                      xi=xi, clamped=clamped, out_bytes=out_bytes)
        passes.append(record)


def setup_seconds(args, workdir):
    """Seconds from starting a fresh interpreter until the inputs are built.

    Returns (raw, scaled to reference host speed by calibrations run in this
    process just before and just after the probe).
    """
    cmd = [
        sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", args.workload,
        "--seed", str(args.seed), "--size", args.size, "--workdir", str(workdir),
    ]
    cal_before = calibrate()
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.communicate(timeout=120)
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed, at_reference_speed(elapsed, cal_before, calibrate())


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def median_and_tail(seconds):
    """Median and the highest percentile with at least ten calls beyond it, in ms."""
    ordered = sorted(seconds)
    tail = ordered[-11] if len(ordered) > 10 else ordered[-1]
    return statistics.median(ordered) * 1e3, tail * 1e3


def end_to_end(passes, setup):
    """End-to-end metrics; every timing is at reference host speed."""
    scaled = [s for p in passes for s in p["scaled_s"]]
    raw = [s for p in passes for s in p["call_s"]]
    xi = sum(p["xi"] for p in passes)
    p50, tail = median_and_tail(scaled)
    metrics = {
        # over the summed call time of the run: a median of per-pass rates
        # would jump between the fast and slow phases of a shared machine
        "xi_evals_per_s": xi / math.fsum(scaled),
        "call_ms_p50": p50,
        "call_ms_tail": tail,
        "setup_s": statistics.median(s for _, s in setup),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw_p50, raw_tail = median_and_tail(raw)
    meta = {
        "calls_timed": len(scaled),
        "tail_percentile": round(100.0 * max(len(scaled) - 10, 0) / len(scaled), 3),
        "setup_samples_s": [s for _, s in setup],
        # the same figures as measured, before scaling to reference speed
        "raw": {
            "xi_evals_per_s": xi / math.fsum(raw),
            "call_ms_p50": raw_p50,
            "call_ms_tail": raw_tail,
            "setup_s": statistics.median(elapsed for elapsed, _ in setup),
            "host_slowdown": math.fsum(raw) / math.fsum(scaled),
        },
    }
    return metrics, meta


def per_layer(passes, tracer):
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    n = len(traced)
    totals, counters = {}, {}
    for p in traced:
        for name, (calls, own) in p["layers"].items():
            total = totals.setdefault(name, [0, 0.0])
            total[0] += calls
            total[1] += own
        for key, value in p["counters"].items():
            counters[key] = counters.get(key, 0) + value
    metrics = {}
    for layer, functions in tracing.LAYERS.items():
        for fn in functions:
            name = f"{layer}.{fn}"
            if name in tracer.absent:
                continue
            calls, own = totals.get(name, (0, 0.0))
            metrics[f"{name}.calls"] = calls / n
            metrics[f"{name}.self_s"] = own / n
    elements = counters.get("backaction.kernel_elements", 0)
    kernel_s = counters.get("backaction.kernel_s", 0.0)
    metrics.update({
        "backaction.kernel_elements": elements / n,
        "backaction.kernel_elements_per_s": elements / kernel_s if kernel_s else 0.0,
        "dicke.jx_zero": counters.get("dicke.jx_zero", 0) / n,
        "squeezing.jx_zero": counters.get("squeezing.jx_zero", 0) / n,
        "oracle.clamped_outcomes": sum(p["clamped"] for p in traced) / n,
        "cli.output_bytes": sum(p["out_bytes"] for p in traced) / n,
        "trace.overhead_frac": statistics.median(p["wall"] for p in traced)
        / statistics.median(p["wall"] for p in plain) - 1.0,
        "trace.uncovered_frac": statistics.median(p["uncovered"] for p in traced),
    })
    return metrics, {"traced_passes": n, "absent": tracer.absent}


def write_spans(args, spans):
    """Write the first traced pass's spans, times relative to its first span.

    One file per workload, replaced by each traced run of it.
    """
    OUT_DIR.mkdir(exist_ok=True)
    t0 = spans[0][2] if spans else 0.0
    path = OUT_DIR / f"spans-{args.workload}.json"
    with open(path, "w") as fh:
        json.dump({"seed": args.seed, "columns": ["name", "parent", "start_s", "end_s"],
                   "spans": [[n, p, s - t0, e - t0] for n, p, s, e in spans]}, fh)
    return str(path.relative_to(ROOT))


def environment():
    import numpy
    import scipy

    src_lines = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    return {
        "git_commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "src_lines": src_lines,
    }


def git_commit():
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
        return lines[1]
    return None  # not a git checkout of this tree


def print_result(name, metrics, ledger, meta):
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    print(json.dumps({"metadata": meta}, default=str))
    for metric, value in metrics.items():
        print(f"{name:<14} {metric:<48} {value:>16.6g} {units[metric]}")
    print(f"{name:<14} {'failed_frac':<48} {meta['failed_frac']:>16.6g} "
          f"({ledger.failed} of {ledger.attempted} calls)")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }))


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def run_workload(args, workloads, workdir):
    build = workloads.WORKLOADS[args.workload]
    ledger = Ledger(workloads)

    # Warm-up that is also the reference check: the tiny pass at the default
    # seed, compared row by row with values recorded at the seed commit.
    reference = json.loads((HERE / "reference.json").read_text()).get(args.workload)
    ref = build(workloads.DEFAULT_SEED, "tiny", workdir / "reference")
    ledger.check(ref, run_pass(ref.calls)[2], reference)
    ledger.finish(ref)

    workload = build(args.seed, args.size, workdir / "run")
    meta = {"workload": args.workload, "seed": args.seed, "default_seed": workloads.DEFAULT_SEED,
            "size": args.size, "seconds": args.seconds, "trace": args.trace,
            "calls_per_pass": len(workload.calls), **environment()}
    if args.trace:
        tracer = tracing.Tracer()
        passes = measure(workload, args.seconds, ledger, tracer)
        metrics, extra = per_layer(passes, tracer)
        first = next(p for p in passes if p["traced"])
        extra["spans_file"] = write_spans(args, first["spans"])
    else:
        setup = [setup_seconds(args, workdir / f"probe{i}") for i in range(SETUP_REPEATS[args.size])]
        passes = measure(workload, args.seconds, ledger)
        metrics, extra = end_to_end(passes, setup)
    ledger.finish(workload)
    meta.update(extra, passes=len(passes), failed_frac=ledger.failed / ledger.attempted,
                problems=ledger.problems[:20])
    print_result(args.workload, metrics, ledger, meta)
    return 0 if ledger.failed == 0 else 1


def run_all(args):
    """Each workload in its own process, one after the other."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"error: workload {name} printed no result (exit {proc.returncode})", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv=None):
    args = parse_args(argv)
    for var in [v for v in os.environ if v.startswith("SPINSQ_")]:
        del os.environ[var]  # the CLI must read only the benchmark's configs
    if args.workload == "all":
        return run_all(args)
    workloads = load_workloads()
    if args.setup_probe:
        workloads.WORKLOADS[args.workload](args.seed, args.size, Path(args.workdir))
        print("ready", flush=True)
        return 0
    workdir = OUT_DIR / f"run-{os.getpid()}"
    try:
        return run_workload(args, workloads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
