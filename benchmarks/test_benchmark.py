"""Self-tests of the benchmark harness; outside the package's test paths.

    python3 -m pytest benchmarks -q
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import binom

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import spinsq  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

NESTED = [
    ["root", -1, 0.0, 10.0],
    ["a", 0, 1.0, 4.0],
    ["a.child", 1, 2.0, 3.0],
    ["b", 0, 3.0, 6.0],  # overlaps a: [1, 6] is covered once
    ["c", 0, 9.0, 12.0],  # ends after its parent: clipped to [9, 10]
    ["next", -1, 11.0, 12.0],
]


def test_self_time_is_duration_minus_covered_children():
    assert tracing.self_times(NESTED) == pytest.approx([4.0, 2.0, 1.0, 3.0, 3.0, 1.0])


def test_uncovered_fraction_counts_gaps_between_top_level_spans():
    assert tracing.uncovered_fraction(NESTED, 0.0, 12.0) == pytest.approx(1.0 / 12.0)


def test_timings_scale_by_the_calibrations_around_them():
    ref = run.CAL_REF_S
    # a host at half speed: its calibrations take twice the reference time
    assert run.at_reference_speed(0.3, 2 * ref, 2 * ref) == pytest.approx(0.15)
    assert run.at_reference_speed(0.3, ref, 3 * ref) == pytest.approx(0.15)


def test_tracer_wraps_every_binding_and_restores_them():
    original = spinsq.squeezing.xi_closed_form
    ens = spinsq.EnsembleSpec(n_atoms=100, phi=0.01)
    probe = spinsq.ProbeConfig(i0=100.0)
    with tracing.Tracer() as tracer:
        bindings = {spinsq.xi_closed_form, spinsq.oracle.xi_closed_form, spinsq.cli.xi_closed_form}
        assert bindings == {spinsq.squeezing.xi_closed_form} != {original}
        spinsq.xi_closed_form(ens, probe, spinsq.most_probable_outcome(probe))
    assert spinsq.cli.xi_closed_form is original is spinsq.xi_closed_form
    assert [(name, parent) for name, parent, *_ in tracer.spans] == [
        ("squeezing.xi_closed_form", -1),
        ("backaction.expansion_coeffs", 0),
        ("squeezing.closed_form_moments", 0),
    ]
    assert tracer.absent == []


def test_tracer_reports_a_removed_function_as_absent(monkeypatch):
    monkeypatch.delattr(spinsq.cli, "cmd_plan")
    with tracing.Tracer() as tracer:
        pass
    assert tracer.absent == ["cli.cmd_plan"]


def test_mixture_moments_match_a_direct_sum_over_the_dicke_ladder():
    n, phi, i0, x_t = 400, 7.07e-3, 100.0, 0.8
    m = np.arange(n + 1) - n / 2
    w = binom.pmf(np.arange(n + 1), n, 0.5)
    lam_a = 4 * i0 * np.cos(x_t - m * phi) ** 2
    lam_b = 4 * i0 * np.sin(x_t + m * phi) ** 2
    means, variances = workloads._mixture_moments(n, phi, i0, x_t)
    for lam, mean, var in zip((lam_a, lam_b), means, variances):
        assert mean == pytest.approx(w @ lam, rel=1e-12)
        assert var == pytest.approx(w @ lam + w @ lam**2 - (w @ lam) ** 2, rel=1e-9)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_meets_the_output_contract(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(math.isfinite(v) for v in values.values())
    if not trace:
        assert all(v > 0 for v in values.values())
        return
    # each workload isolates its layers
    assert (values["backaction.posterior_weights.calls"] > 0) == (workload == "oracle_sweep")
    assert (values["cli.main.calls"] > 0) == (workload == "figure_grids")
    assert (values["oracle.sample_outcome.calls"] > 0) == (workload == "mc_sampling")
