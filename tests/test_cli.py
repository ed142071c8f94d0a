import configparser
import csv
import importlib.util
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spinsq import ProbeConfig, cli, most_probable_outcome, squeezing
from spinsq.cli import EXIT_CONFIG, EXIT_GATE, EXIT_NUMERIC, EXIT_OK, EXIT_OUTPUT, main


def run_main(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    meta, data_lines = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            meta[key] = value
        elif line:
            data_lines.append(line)
    rows = list(csv.reader(data_lines))
    return meta, rows[0], rows[1:]


def write_config(tmp_path, text):
    path = tmp_path / "config.ini"
    path.write_text(text)
    return str(path)


ONE_POINT_REPORT = (
    "[oracle-report]\nn_atoms = 100\ni0 = 50\nproduct = 4\nx_t = 0.7853981633974483\n"
)
SMALL_FIG3 = "[fig3]\nn_atoms = 400\ni0 = 100\nd = 4\neta = 0.5\ngrid_points = 3\nx_t = 0.7853981633974483\n"


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "spinsq.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    for cmd in ("fig3", "fig4", "table1", "oracle-report", "sample", "plan"):
        assert cmd in proc.stdout


def _write_outputs(root, model="reidc", xi="0.25", rows=2, codes="fig4.csv 0\n"):
    """A tools/cli_outputs.py-like directory: one CSV and one JSON output of
    ``rows`` rows, whose first row holds ``model`` and ``xi``, and exit codes."""
    cells = [[model, "10.0", xi], ["alkali", "20.0", "0.5"]][:rows]
    root.mkdir()
    (root / "fig4.csv").write_text(
        "# command = fig4\n# eta_points = 2\nmodel,d,xi_prime_sq\n"
        + "".join(",".join(row) + "\n" for row in cells)
    )
    (root / "fig4.json").write_text(json.dumps({
        "metadata": {"command": "fig4", "eta_points": 2},
        "columns": ["model", "d", "xi_prime_sq"],
        "rows": [[m, float(d), float(x)] for m, d, x in cells],
    }))
    (root / "exit_codes.txt").write_text(codes)
    return str(root)


def _compare_outputs(before, after):
    tool = Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py"
    return subprocess.run(
        [sys.executable, str(tool), before, after], capture_output=True, text=True
    )


def test_compare_outputs_tool_counts_numeric_changes_per_column(tmp_path):
    before = _write_outputs(tmp_path / "before")
    after = _write_outputs(tmp_path / "after", xi="0.2500000000000001")
    proc = _compare_outputs(before, after)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = {tuple(line.split()[:2]): line for line in proc.stdout.splitlines()}
    for name in ("fig4.csv", "fig4.json"):
        assert lines[name, "xi_prime_sq"].split()[2:] == ["1", "/", "2", "max", "rel", "4.4e-16"]
        assert lines[name, "model"].split()[2:] == ["0", "/", "2", "max", "rel", "-"]
        assert lines[name, "#"].split()[3:5] == ["0", "/"]
    assert "identical" in lines["exit_codes.txt", "(lines)"]


@pytest.mark.parametrize(
    "change",
    [{"model": "other"}, {"rows": 1}, {"codes": "fig4.csv 3\n"}, {"xi": "inf"}, None],
    ids=["text_cell", "row_count", "exit_code", "non_finite", "missing_file"],
)
def test_compare_outputs_tool_fails_on_anything_but_a_numeric_change(tmp_path, change):
    # a text cell, a row count, an exit code, a non-finite cell, a missing file
    before = _write_outputs(tmp_path / "before")
    after = _write_outputs(tmp_path / "after", **(change or {}))
    if change is None:
        (tmp_path / "after" / "fig4.json").unlink()
    assert _compare_outputs(before, after).returncode == 1


#: run in a fresh interpreter: the default non-oracle subcommands load no
#: scipy module, and oracle-report, an exact path, loads scipy.special
SCIPY_GUARD = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])

def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

from spinsq import cli
assert not scipy_modules(), ("import spinsq.cli", scipy_modules())
for command in ("fig3", "fig4", "table1", "plan", "sample"):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([command]) == 0, command
    assert not scipy_modules(), (command, scipy_modules())
from spinsq import EnsembleSpec, ProbeConfig, intensity_moments_exact
intensity_moments_exact(EnsembleSpec(n_atoms=400, phi=1e-3), ProbeConfig(i0=100.0))
assert not scipy_modules(), ("intensity_moments_exact", scipy_modules())
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["oracle-report"]) == 0
assert "scipy.special" in sys.modules
"""


def test_only_exact_paths_import_scipy():
    src = Path(cli.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_GUARD, str(src)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


#: run in a fresh interpreter: importing the CLI and sampling load no orjson
#: module, and rendering a fig3 loads it
ORJSON_GUARD = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])

from spinsq import cli
from spinsq import EnsembleSpec, ProbeConfig, conditional_xi_distribution
assert "orjson" not in sys.modules, "import spinsq.cli"
conditional_xi_distribution(EnsembleSpec(n_atoms=400, phi=7.07e-3), ProbeConfig(i0=100.0), 50, seed=0)
assert "orjson" not in sys.modules, "conditional_xi_distribution"
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["fig3"]) == 0
assert "orjson" in sys.modules, "fig3"
"""


def test_only_rendering_imports_orjson():
    src = Path(cli.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", ORJSON_GUARD, str(src)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_cli_outputs_tool_writes_every_output(tmp_path):
    # tools/cli_outputs.py writes the files that a before/after diff compares;
    # its COMMANDS and EXTRA_RUNS say which files and which exit codes
    tool = Path(__file__).resolve().parent.parent / "tools" / "cli_outputs.py"
    spec = importlib.util.spec_from_file_location("cli_outputs", tool)
    cli_outputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cli_outputs)
    expected = {command: 0 for command in cli_outputs.COMMANDS}
    expected.update({stem: entry[2] for stem, entry in cli_outputs.EXTRA_RUNS.items()})
    proc = subprocess.run(
        [sys.executable, str(tool), str(tmp_path)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    logs = ("exit_codes.txt", "stderr.txt")
    outputs = sorted(p.name for p in tmp_path.iterdir() if p.name not in logs)
    assert outputs == sorted(f"{stem}.{fmt}" for stem in expected for fmt in ("csv", "json"))
    assert (tmp_path / "stderr.txt").is_file()
    codes = (tmp_path / "exit_codes.txt").read_text().splitlines()
    assert sorted(line.split()[0] for line in codes) == outputs
    for line in codes:
        name, code = line.split()
        assert int(code) == expected[name.rsplit(".", 1)[0]], line
        # a configuration error is refused before any output is written
        assert ((tmp_path / name).stat().st_size == 0) == (code == "2"), line


def test_fig3_center_matches_most_probable_law(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL_FIG3)
    code, out, _ = run_main(["--config", cfg, "fig3"], capsys)
    assert code == EXIT_OK
    meta, header, rows = parse_csv(out)
    assert header == ["x_t", "i_alpha", "i_beta", "xi_sq"]
    assert len(rows) == 9
    # eta d = 2 means xi^2 = 1/3 at the central (most probable) outcome
    xi = {(float(r[1]), float(r[2])): float(r[3]) for r in rows}
    center = min(xi, key=lambda k: abs(k[0] - 200.0) + abs(k[1] - 200.0))
    assert xi[center] == pytest.approx(1.0 / 3.0, rel=1e-10)
    # the center is the minimum over the grid
    assert all(v >= xi[center] - 1e-12 for v in xi.values())


def test_fig3_singular_phase_nudged(tmp_path, capsys):
    # the nudge is a warning like any other: on stderr and in the metadata,
    # each message once, so a repeated phase gives one note
    note = "x_t = 0.0 is within 1e-06 of a singular phase; nudged to 2e-06"
    for x_t in ("0.0", "0 0"):
        cfg = write_config(
            tmp_path,
            f"[fig3]\nn_atoms = 100\ni0 = 50\nd = 4\neta = 0.5\ngrid_points = 2\nx_t = {x_t}\n",
        )
        code, out, err = run_main(["--config", cfg, "fig3"], capsys)
        assert code == EXIT_OK
        assert err == f"warning: {note}\n"
        meta, _, rows = parse_csv(out)
        assert meta["warnings"] == note
        assert {r[0] for r in rows} == {"2e-06"}


def test_fig3_outside_second_order_regime_exits_3(tmp_path, capsys):
    # eta d = 12.8 at I0 = 1 gives phi^2 N = 6.4 >> 0.1; the closed form
    # would print xi^2 from 0.07 to 103
    cfg = write_config(tmp_path, "[fig3]\ni0 = 1\nn_atoms = 1000\ngrid_points = 3\n")
    code, out, err = run_main(["--config", cfg, "fig3"], capsys)
    assert code == EXIT_NUMERIC
    assert out == ""
    assert "numeric error" in err and "phi^2 * N" in err


def test_fig3_one_grid_point_is_the_most_probable_outcome(tmp_path, capsys):
    # one row per phase at the mean outcome, where W = 0 and lambda = 4 I0 at
    # any phase, so xi^2 = 1/(1 + eta d), nudged phases included
    cfg = write_config(tmp_path, "[fig3]\ngrid_points = 1\n")
    code, out, _ = run_main(["--config", cfg, "fig3"], capsys)
    assert code == EXIT_OK
    _, _, rows = parse_csv(out)
    phases = ["2e-06", repr(math.pi / 8), repr(math.pi / 4), "1.5707983267948966"]
    assert [r[0] for r in rows] == phases
    for x_t, i_alpha, i_beta, xi_sq in (map(float, r) for r in rows):
        mean = most_probable_outcome(ProbeConfig(i0=1e11, x_t=x_t))
        assert (i_alpha, i_beta) == (mean.i_alpha, mean.i_beta)
        assert xi_sq == pytest.approx(1.0 / (1.0 + 0.32 * 40.0), rel=0, abs=1e-12)


def test_fig4_curves(tmp_path, capsys):
    cfg = write_config(tmp_path, "[fig4]\neta_points = 10\ngrid_d = 10 20\n")
    code, out, _ = run_main(["--config", cfg, "--format", "json", "fig4"], capsys)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["columns"] == ["model", "d", "eta", "xi_prime_sq"]
    models = {row[0] for row in doc["rows"]}
    assert models == {"reidc", "alkali", "reidc2d"}
    # spot value: reidc at d=40
    row = next(r for r in doc["rows"] if r[0] == "reidc" and r[1] == 40.0)
    eta = row[2]
    assert row[3] == pytest.approx(1 / ((1 - eta) ** 2 * (1 + eta * 40)), rel=1e-12)


def test_fig4_one_eta_point_is_eta_max(tmp_path, capsys):
    # one row per curve, at eta = eta_max exactly
    keys = "eta_points = 1\neta_max = 0.3\nreidc_d = 10\nalkali_d = 16\ngrid_d = 4\n"
    cfg = write_config(tmp_path, "[fig4]\n" + keys)
    code, out, _ = run_main(["--config", cfg, "fig4"], capsys)
    assert code == EXIT_OK
    _, _, rows = parse_csv(out)
    assert [r[:3] for r in rows] == [["reidc", "10.0", "0.3"], ["alkali", "16.0", "0.3"],
                                     ["reidc2d", "4.0", "0.3"]]


def test_fig4_evaluates_each_curve_in_one_call(tmp_path, capsys, monkeypatch):
    # one xi_noisy call per (model, d) curve over the whole eta grid; on the
    # default grid it holds the bits of the per-eta scalar calls
    calls = []

    def counted(eta, d, model):
        calls.append((eta, d, model))
        return squeezing.xi_noisy(eta, d, model)

    monkeypatch.setattr(cli, "xi_noisy", counted)
    cfg = write_config(tmp_path, "[fig4]\ngrid_d = 10 20\n")
    code, out, _ = run_main(["--config", cfg, "--format", "json", "fig4"], capsys)
    assert code == EXIT_OK
    assert len(calls) == 2 + 3 + 2
    rows = json.loads(out)["rows"]
    assert len(rows) == 200 * len(calls)
    for (eta, d, model), start in zip(calls, range(0, len(rows), 200)):
        expected = [squeezing.xi_noisy(e, d, model) for e in eta.tolist()]
        assert [row[3] for row in rows[start : start + 200]] == expected


def test_table1_csv_roundtrip(capsys):
    code, out, _ = run_main(["table1"], capsys)
    assert code == EXIT_OK
    _, header, rows = parse_csv(out)
    assert header[0] == "material"
    assert len(rows) == 2
    by_name = {r[0]: r for r in rows}
    eu = by_name["Eu3+:Y2SiO5"]
    # repr round trip preserves every bit
    assert float(eu[2]) == 4.0 / 15.0
    assert float(eu[6]) == 20.0
    pr = by_name["Pr3+:Y2SiO5"]
    assert float(pr[6]) == 80.0
    assert float(pr[8]) == pytest.approx(8.049278146722568, rel=1e-15)


def test_oracle_report_default_passes_gate(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "[oracle-report]\nn_atoms = 100 400\ni0 = 100\nproduct = 1\nx_t = 0.7853981633974483\n",
    )
    code, out, _ = run_main(["--config", cfg, "oracle-report"], capsys)
    assert code == EXIT_OK
    meta, _, rows = parse_csv(out)
    assert meta["pass_flat_gate"] == "True"
    assert float(meta["max_rel_err"]) < 0.05
    assert len(rows) == 2
    assert all(math.isfinite(float(v)) for row in rows for v in row)


def test_oracle_report_records_python_warnings_in_metadata(tmp_path, capsys):
    # product 4 at N = 100, I0 = 10: phi^2 N = 0.2 > PHI2N_WARN, which
    # intensity_moments_approx warns about
    cfg = write_config(
        tmp_path,
        "[oracle-report]\nn_atoms = 100\ni0 = 10\nproduct = 4\nx_t = 0.7853981633974483\n",
    )
    _, out, err = run_main(["--config", cfg, "oracle-report"], capsys)
    meta, _, rows = parse_csv(out)
    assert len(rows) == 1
    assert meta["warnings"] == (
        "phi^2 * N = 0.2 exceeds 0.1; second-order results may be inaccurate"
    )
    assert "warning: phi^2 * N = 0.2" in err


@pytest.mark.parametrize(
    "text, message",
    [
        # 0 divided phi = sqrt(product / (2 I0 N)) by zero, a negative value
        # took a negative root; both messages named no key
        ("i0 = 0\n", "i0 must be finite and > 0, got 0.0"),
        ("i0 = -5\n", "i0 must be finite and > 0, got -5.0"),
        ("i0 = 100 nan\n", "i0 must be finite and > 0, got nan"),
        ("product = -1\n", "product must be finite and >= 0, got -1.0"),
        ("product = 1 inf\n", "product must be finite and >= 0, got inf"),
    ],
)
def test_oracle_report_names_an_i0_or_product_outside_its_domain(tmp_path, capsys, text, message):
    cfg = write_config(tmp_path, "[oracle-report]\n" + text)
    code, out, err = run_main(["--config", cfg, "oracle-report"], capsys)
    assert code == EXIT_NUMERIC
    assert out == ""
    assert err.splitlines() == [f"numeric error: {message}"]


@pytest.mark.parametrize(
    "offsets, value",
    [
        ("nan", "nan"), ("inf", "inf"), ("-inf", "-inf"), ("1 nan", "nan"),
        ("nan 2 inf -inf", "-inf, inf, nan"),
    ],
)
def test_oracle_report_refuses_a_non_finite_offset(tmp_path, capsys, offsets, value):
    # nan named i_alpha[0] or i_beta[0] by the set order of its offset pairs,
    # and -inf clamped the readings to 0 and ran to the gate (exit 4); the
    # message names each distinct non-finite value once, in sorted order
    cfg = write_config(tmp_path, f"[oracle-report]\noffsets = {offsets}\n")
    code, out, err = run_main(["--config", cfg, "oracle-report"], capsys)
    assert code == EXIT_NUMERIC
    assert out == ""
    assert err.splitlines() == [f"numeric error: offsets must be finite, got {value}"]


def test_oracle_report_product_zero_gives_unit_xi(tmp_path, capsys):
    cfg = write_config(tmp_path, "[oracle-report]\nn_atoms = 30\ni0 = 10\nproduct = 0\n")
    code, out, _ = run_main(["--config", cfg, "--format", "json", "oracle-report"], capsys)
    assert code == EXIT_OK
    doc = json.loads(out)
    columns = doc["columns"]
    assert len(doc["rows"]) == 3
    for row in doc["rows"]:
        values = dict(zip(columns, row))
        assert values["xi_oracle"] == pytest.approx(1.0, rel=1e-12)
        assert values["xi_closed"] == pytest.approx(1.0, rel=1e-12)


def test_oracle_report_gate_failure_exits_4(tmp_path, capsys):
    for text, max_rel_err in (
        # off-mean offsets at large phi sqrt(N) exceed the flat gate
        (
            "[oracle-report]\nn_atoms = 1000\ni0 = 50\nproduct = 4\n"
            "x_t = 0.7853981633974483\noffsets = 0 1 -1\n",
            None,
        ),
        # the -3 sigma row at N = 2 has xi_oracle = inf and rel_err = nan,
        # which fails both gates
        (
            "[oracle-report]\nn_atoms = 2\ni0 = 4\nproduct = 4\n"
            "x_t = 0.39269908169872414\noffsets = -3\n",
            "inf",
        ),
    ):
        cfg = write_config(tmp_path, text)
        code, out, _ = run_main(["--config", cfg, "oracle-report"], capsys)
        assert code == EXIT_GATE, text
        meta, _, _ = parse_csv(out)
        assert meta["pass_flat_gate"] == "False"
        if max_rel_err:
            assert meta["max_rel_err"] == max_rel_err
            assert meta["pass_adaptive_gate"] == "False"


def test_sample_deterministic_under_seed(tmp_path, capsys):
    cfg = write_config(tmp_path, "[sample]\nn_samples = 20\n")
    _, out1, _ = run_main(["--config", cfg, "--seed", "7", "sample"], capsys)
    _, out2, _ = run_main(["--config", cfg, "--seed", "7", "sample"], capsys)
    _, out3, _ = run_main(["--config", cfg, "--seed", "8", "sample"], capsys)
    assert out1 == out2
    assert out1 != out3
    meta, header, rows = parse_csv(out1)
    assert header == ["i_alpha", "i_beta", "xi_sq"]
    assert len(rows) == 20
    assert meta["rng_algorithm"] == "numpy.random.PCG64"
    assert meta["seed"] == "7"
    assert "xi_sq_q50" in meta


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
def test_seed_outside_u64_exits_2(capsys, seed):
    code, out, err = run_main([f"--seed={seed}", "table1"], capsys)
    assert code == EXIT_CONFIG
    assert out == ""
    assert err.splitlines() == ["error: seed must fit in an unsigned 64-bit integer"]


def test_largest_u64_seed_runs(tmp_path, capsys):
    cfg = write_config(tmp_path, "[sample]\nn_samples = 5\n")
    code, out, err = run_main(["--config", cfg, "--seed=18446744073709551615", "sample"], capsys)
    assert code == EXIT_OK
    assert err == ""
    assert parse_csv(out)[0]["seed"] == "18446744073709551615"


def test_plan_subcommand(tmp_path, capsys):
    cfg = write_config(tmp_path, "[plan]\nmaterial = pr\n")
    code, out, _ = run_main(["--config", cfg, "--format", "json", "plan"], capsys)
    assert code == EXIT_OK
    doc = json.loads(out)
    row = dict(zip(doc["columns"], doc["rows"][0]))
    assert row["material"] == "Pr3+:Y2SiO5"
    assert row["detuning_over_gamma"] == pytest.approx(80.0, rel=1e-12)
    assert row["flagged"] is False


def test_plan_unknown_material_exits_2(tmp_path, capsys):
    # named like any other enumerated key, with the shipped presets' names
    cfg = write_config(tmp_path, "[plan]\nmaterial = unobtainium\n")
    code, _, err = run_main(["--config", cfg, "plan"], capsys)
    assert code == EXIT_CONFIG
    assert err.splitlines() == [
        "error: config [plan] material = 'unobtainium': not one of ['eu', 'pr']"
    ]


def test_missing_config_exits_2(capsys):
    code, _, err = run_main(["--config", "/no/such/file.ini", "table1"], capsys)
    assert code == EXIT_CONFIG
    assert "not found" in err


def test_bad_config_value_exits_2(tmp_path, capsys):
    # count keys take whole numbers >= 1 (n_samples >= 0); anything else is a
    # configuration error, not an empty table, a truncated value or exit 3
    for command, text in (
        ("sample", "[sample]\nn_samples = many\n"),
        ("sample", "[sample]\nn_samples = -1\n"),
        ("sample", "[sample]\nn_atoms = 0\n"),
        ("fig3", "[fig3]\ngrid_points = 0\n"),
        ("fig3", "[fig3]\ngrid_points = -2\n"),
        ("fig3", "[fig3]\ngrid_points = 2.5\n"),
        ("fig3", "[fig3]\nn_atoms = nan\n"),
        ("fig4", "[fig4]\neta_points = 0\n"),
        ("fig4", "[fig4]\neta_points = -1\n"),
        ("oracle-report", "[oracle-report]\nn_atoms = 10.5\n"),
        ("oracle-report", "[oracle-report]\nn_atoms = 100 0\n"),
        ("plan", "material = eu\n"),  # no section header
        ("sample", "[sample]\nd = 1\n"),  # a key that sample does not read
        ("fig3", "[fig3]\ngird_points = 5\n"),  # a typo
        # an empty list would print no rows, and pass oracle-report's gate
        ("fig3", "[fig3]\nx_t =\n"),
        ("oracle-report", "[oracle-report]\nn_atoms =\n"),
        ("oracle-report", "[oracle-report]\ni0 =\n"),
        ("oracle-report", "[oracle-report]\nproduct = ,\n"),
        ("oracle-report", "[oracle-report]\nx_t =\n"),
        # values are read as written: a % is no interpolation syntax
        ("fig3", "[fig3]\ngrid_points = 5%\n"),
        ("fig3", "[fig3]\nx_t = %(foo)s\n"),
    ):
        cfg = write_config(tmp_path, text)
        code, out, err = run_main(["--config", cfg, command], capsys)
        assert code == EXIT_CONFIG, text
        assert out == ""
        assert "error:" in err and "numeric" not in err
        assert len(err.splitlines()) == 1, err
        if text.rstrip(" ,\n").endswith("=") or "%" in text:
            assert text.split("\n")[1].split()[0] in err, err


def test_config_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "config.ini"
    path.write_bytes(b"[fig3]\nx_t = \xff\n")
    code, out, err = run_main(["--config", str(path), "fig3"], capsys)
    assert code == EXIT_CONFIG
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err


def test_empty_fig4_d_list_leaves_that_model_out(tmp_path, capsys):
    cfg = write_config(tmp_path, "[fig4]\neta_points = 2\nalkali_d =\ngrid_d =\n")
    code, out, _ = run_main(["--config", cfg, "fig4"], capsys)
    assert code == EXIT_OK
    _, _, rows = parse_csv(out)
    assert [r[0] for r in rows] == ["reidc"] * 4


def test_closed_stdout_exits_5_without_a_traceback(tmp_path):
    # the reader closes the pipe after one line (spinsq fig3 | head -1); the
    # output is far larger than a pipe buffer, so the writer sees it closed
    cfg = write_config(tmp_path, "[fig3]\ngrid_points = 61\n")
    src = Path(cli.__file__).resolve().parent.parent
    proc = subprocess.Popen(
        [sys.executable, "-m", "spinsq.cli", "--config", cfg, "fig3"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=src,
    )
    assert proc.stdout.readline().startswith(b"# ")
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_OUTPUT
    # the default phases 0 and pi/2 are nudged before any output is written
    assert err == (
        "warning: x_t = 0.0 is within 1e-06 of a singular phase; nudged to 2e-06\n"
        "warning: x_t = 1.5707963267948966 is within 1e-06 of a singular phase; "
        "nudged to 1.5707983267948966\n"
        "error: stdout closed before the output was complete\n"
    )


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs the /dev/full device")
@pytest.mark.parametrize(
    "options, line",
    [
        ([], "error: stdout could not be written: [Errno 28] No space left on device"),
        (
            ["--out", "/dev/full"],
            "error: cannot write --out /dev/full: [Errno 28] No space left on device",
        ),
    ],
    ids=["stdout", "out"],
)
def test_failed_output_write_exits_5_without_a_traceback(options, line):
    # spinsq table1 > /dev/full, and spinsq --out /dev/full table1: each
    # write fails with ENOSPC once the output is flushed
    src = Path(cli.__file__).resolve().parent.parent
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "spinsq.cli", *options, "table1"],
            stdout=full, stderr=subprocess.PIPE, text=True, cwd=src,
        )
    assert proc.returncode == EXIT_OUTPUT
    assert proc.stderr.splitlines() == [line]


def test_unread_config_key_exits_2_unless_in_default(tmp_path, capsys):
    # a key of the subcommand's own section that is not in cli.KEYS would be
    # ignored, and missing from the metadata; [DEFAULT] keys reach every
    # subcommand, so they are exempt
    for command, text, key in (
        ("sample", "[sample]\nn_samples = 5\nd = nan\n", "d"),
        ("fig3", "[fig3]\ngird_points = 5\n", "gird_points"),
        # oracle-report's gate and <Jx> mode are fixed; at this point the
        # shortcut <Jx> misses the oracle by 8%, which a 50% gate would pass
        ("oracle-report", ONE_POINT_REPORT + "gate = 0.5\n", "gate"),
        ("oracle-report", ONE_POINT_REPORT + "jx_mode = shortcut\n", "jx_mode"),
    ):
        cfg = write_config(tmp_path, text)
        code, out, err = run_main(["--config", cfg, command], capsys)
        assert code == EXIT_CONFIG, text
        assert out == ""
        assert f"[{command}]: unknown key(s) {key} " in err
    cfg = write_config(tmp_path, "[DEFAULT]\nd = nan\n[sample]\nn_samples = 5\n")
    code, out, _ = run_main(["--config", cfg, "sample"], capsys)
    assert code == EXIT_OK
    assert "# n_samples = 5.0" in out and "# d =" not in out


@pytest.mark.parametrize("section", ["", "[sample]\n"], ids=["no_section", "empty_section"])
def test_default_section_reaches_a_subcommand_without_its_section(tmp_path, capsys, section):
    # [DEFAULT] keys reach the subcommand whether or not its section exists
    text = "[DEFAULT]\nn_samples = 5\n" + section
    cfg = write_config(tmp_path, text)
    code, out, _ = run_main(["--config", cfg, "sample"], capsys)
    assert code == EXIT_OK
    meta, _, rows = parse_csv(out)
    assert len(rows) == 5
    assert meta["n_samples"] == "5.0"


def test_unknown_key_is_refused_before_the_subcommand_runs(tmp_path, capsys, monkeypatch):
    # i0 = -1 alone exits 3; with a typo beside it the typo is found first
    cfg = write_config(tmp_path, "[fig3]\ni0 = -1\n")
    assert run_main(["--config", cfg, "fig3"], capsys)[0] == EXIT_NUMERIC
    cfg = write_config(tmp_path, "[fig3]\ni0 = -1\ntypo_key = 1\n")
    code, out, err = run_main(["--config", cfg, "fig3"], capsys)
    assert code == EXIT_CONFIG
    assert out == ""
    assert err.splitlines() == [
        "error: config [fig3]: unknown key(s) typo_key "
        "(keys: i0, d, eta, n_atoms, x_t, grid_points, jx_mode)"
    ]
    calls = []
    monkeypatch.setattr(cli, "cmd_fig3", lambda *args: calls.append(args))
    assert run_main(["--config", cfg, "fig3"], capsys)[0] == EXIT_CONFIG
    assert calls == []


def test_readme_config_table_lists_every_key():
    # one row per cli.KEYS entry, in its order, with its kind
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = readme.split("| subcommand | key | kind | default |\n|---|---|---|---|\n")[1]
    rows = [line.split(" | ")[:3] for line in table.split("\n\n")[0].splitlines()]
    assert [[cell.strip("|` ") for cell in row] for row in rows] == [
        [command, key, kind if isinstance(kind, str) else "` or `".join(kind)]
        for command, keys in cli.KEYS.items()
        for key, (kind, _) in keys.items()
    ]
    assert len(rows) == 29


#: materials files the CLI cannot load: file name -> text
BAD_MATERIALS = {
    "no_header.txt": "molar_mass = 152.0\n",
    "no_molar_mass.txt": "[eu]\ndoping = 1e-3\nabsorption = 2.0\n",
    "bad_molar_mass.txt": "[eu]\nmolar_mass = abc\ndoping = 1e-3\nabsorption = 2.0\n",
    "typo_key.txt": (
        "[eu]\nmolar_mass = 152.0\ndoping = 1e-3\nabsorption = 2.0\nusable_ration = 1e-4\n"
    ),
    "inf_molar_mass.txt": "[eu]\nmolar_mass = inf\ndoping = 1e-3\nabsorption = 2.0\n",
    "inf_mode_area.txt": (
        "[eu]\nmolar_mass = 152.0\ndoping = 1e-3\nabsorption = 2.0\nmode_area = inf\n"
    ),
    "inf_optical_depth.txt": (
        "[eu]\nmolar_mass = 152.0\ndoping = 1e-3\nabsorption = 2.0\noptical_depth = inf\n"
    ),
}


@pytest.mark.parametrize(
    "command, materials, out",
    [
        ("table1", "missing.txt", None),
        ("table1", "no_header.txt", None),
        ("table1", "no_molar_mass.txt", None),
        ("plan", "bad_molar_mass.txt", None),
        ("plan", "typo_key.txt", None),
        ("plan", "inf_molar_mass.txt", None),
        *(
            (command, name, None)
            for command in ("table1", "plan")
            for name in ("inf_mode_area.txt", "inf_optical_depth.txt")
        ),
        ("plan", None, "missing_dir/plan.csv"),
    ],
)
def test_unloadable_materials_or_out_exits_2(tmp_path, capsys, command, materials, out):
    # a materials file that cannot be read or holds an invalid preset, and an
    # --out file that cannot be opened, are configuration errors: one
    # "error:" line, no traceback, not exit 1 or 3
    args = []
    if materials:
        for name, text in BAD_MATERIALS.items():
            (tmp_path / name).write_text(text)
        text = f"[{command}]\nmaterials = {tmp_path / materials}\n"
        args += ["--config", write_config(tmp_path, text)]
    if out:
        args += ["--out", str(tmp_path / out)]
    code, stdout, err = run_main(args + [command], capsys)
    assert code == EXIT_CONFIG
    assert stdout == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


@pytest.mark.parametrize(
    "command, text",
    [
        ("fig3", "[fig3]\njx_mode = exactt\n"),
        ("sample", "[sample]\nmethod = secnd_order\n"),
        # oracle-report reads no jx_mode: any value of it is refused
        ("oracle-report", "[oracle-report]\njx_mode = nope\n"),
    ],
)
def test_bad_enumerated_config_value_exits_2(tmp_path, capsys, command, text):
    cfg = write_config(tmp_path, text)
    code, out, err = run_main(["--config", cfg, command], capsys)
    assert code == EXIT_CONFIG
    assert out == ""
    assert "error:" in err and "numeric" not in err


def test_numeric_domain_error_exits_3(tmp_path, capsys):
    # n_atoms beyond the exact-kernel cap in the exact sampling path
    cfg = write_config(
        tmp_path,
        "[sample]\nn_atoms = 4000\nn_samples = 1\nmethod = exact\nphi = 1e-5\n",
    )
    code, _, err = run_main(["--config", cfg, "sample"], capsys)
    assert code == EXIT_NUMERIC
    assert "numeric error" in err


@pytest.mark.parametrize(
    "command, text, match",
    [
        # the error names x_t, not the sampler's Poisson mean that it spoils
        ("sample", "[sample]\nx_t = nan\n", "x_t must be finite"),
        # a Poisson mean ~2e19, past the largest that numpy draws: numpy's
        # text, then the i0 and the mean it gave
        (
            "sample",
            "[sample]\ni0 = 1e19\nphi = 1e-12\n",
            "lam value too large: i0 = 1e+19 gives Poisson means up to 2e+19",
        ),
        ("fig3", "[fig3]\nx_t = 0.5 inf\n", "x_t must be finite"),
        # a mode area that is not finite, and an N that overflows
        ("plan", "[plan]\nmode_area = inf\n", "is not finite"),
        ("plan", "[plan]\nmode_area = 1e300\n", "is not finite"),
        # 2 N I0 overflows, so phi would be 0 and every outcome NaN
        ("fig3", "[fig3]\nn_atoms = 1e300\ngrid_points = 101\n", "phi = 0.0 is not finite"),
        # a non-finite optical depth in any fig4 curve list
        *(
            ("fig4", f"[fig4]\n{key} = 10 {value}\n", "d must be finite")
            for key in ("reidc_d", "alkali_d", "grid_d")
            for value in ("nan", "inf")
        ),
    ],
)
def test_non_finite_input_or_result_exits_3(tmp_path, capsys, command, text, match):
    cfg = write_config(tmp_path, text)
    code, out, err = run_main(["--config", cfg, command], capsys)
    assert code == EXIT_NUMERIC
    assert out == ""
    assert "numeric error" in err and match in err
    assert len(err.splitlines()) == 1


def test_sample_outside_second_order_regime_exits_3(tmp_path, capsys):
    # phi^2 N = 100 >> 0.1: the closed form would print xi^2 ~ 1e46
    cfg = write_config(tmp_path, "[sample]\nphi = 0.5\nn_atoms = 400\n")
    code, out, err = run_main(["--config", cfg, "sample"], capsys)
    assert code == EXIT_NUMERIC
    assert out == ""
    assert "numeric error" in err and "phi^2 * N" in err


@pytest.mark.parametrize(
    "exc, line",
    [
        # numpy's _ArrayMemoryError, as [sample] n_samples = 1e12 raises it
        (MemoryError("Unable to allocate 7.28 TiB for an array with shape "
                     "(1000000000000,) and data type int64"),
         "numeric error: Unable to allocate 7.28 TiB for an array with shape "
         "(1000000000000,) and data type int64"),
        (MemoryError(), "numeric error: MemoryError"),
    ],
)
def test_failed_allocation_exits_3(capsys, monkeypatch, exc, line):
    # raised in place of a real allocation: on a host that overcommits
    # memory an oversized np.empty can succeed and then get touched
    def cmd_sample(values, meta, seed):
        raise exc

    monkeypatch.setattr(cli, "cmd_sample", cmd_sample)
    code, out, err = run_main(["sample"], capsys)
    assert code == EXIT_NUMERIC
    assert out == ""
    assert err.splitlines() == [line]


def test_fig3_oversized_grid_exits_3_before_building_it(tmp_path, capsys):
    # 4 x (1e300)^2 rows pass no allocation, and the columns come before the
    # offset list, whose 1e300 entries would fill memory first
    cfg = write_config(tmp_path, "[fig3]\ngrid_points = 1e300\n")
    code, out, err = run_main(["--config", cfg, "fig3"], capsys)
    assert code == EXIT_NUMERIC
    assert out == ""
    assert err.splitlines() == ["numeric error: Maximum allowed dimension exceeded"]


@pytest.mark.parametrize(
    "d_lists", ["", "reidc_d =\nalkali_d =\ngrid_d =\n"], ids=["default_d", "no_curves"]
)
def test_fig4_oversized_eta_grid_exits_3_before_building_it(tmp_path, capsys, d_lists):
    # with no curves the zero-row output arrays allocate, so only the eta
    # grid can refuse the count
    cfg = write_config(tmp_path, "[fig4]\neta_points = 1e300\n" + d_lists)
    code, out, err = run_main(["--config", cfg, "fig4"], capsys)
    assert code == EXIT_NUMERIC
    assert out == ""
    assert err.splitlines() == ["numeric error: Maximum allowed size exceeded"]


def test_environment_sets_nothing(tmp_path, capsys, monkeypatch):
    # the flags are the only source of the seed and the format
    cfg = write_config(tmp_path, "[sample]\nn_samples = 5\n")
    _, plain, _ = run_main(["--config", cfg, "sample"], capsys)
    monkeypatch.setenv("SPINSQ_FORMAT", "json")
    monkeypatch.setenv("SPINSQ_SEED", "11")
    code, out, _ = run_main(["--config", cfg, "sample"], capsys)
    assert code == EXIT_OK
    assert out == plain


def test_out_file(tmp_path, capsys):
    out_path = tmp_path / "result.csv"
    code, stdout, _ = run_main(["--out", str(out_path), "table1"], capsys)
    assert code == EXIT_OK
    assert stdout == ""
    meta, header, rows = parse_csv(out_path.read_text())
    assert len(rows) == 2


# -- output rendering ---------------------------------------------------------

#: columns whose values compare equal but print differently, or need quoting
TRICKY_COLUMNS = {
    "signed_zero": np.array([0.0, -0.0, 0.0, -0.0, -0.0, 0.0, 1.0, -1.0]),
    "signed_zero_list": [0.0, -0.0, -0.0, 0.0, 0.0, -0.0, 0.0, -0.0],
    "mixed": [0, 0.0, 1, 1.0, True, False, -0.0, 0],
    "special": [math.nan, math.inf, 1e16, 1e-05, 5e-324, np.float64(0.1), -math.inf, 1e16],
    "special_array": np.array([math.nan, math.inf, 1e16, 1e-05, 5e-324, 0.1, -math.inf, 1e16]),
    "text": ["a,b", 'say "hi"', "", "plain", "a,b", "two\nlines", " lead", "plain"],
}
TRICKY_META = {"zeta": 1.5, "alpha": "x, y", "flag": True}


def reference_text(columns, metadata, fmt):
    """Row by row through json.dumps or csv.writer plus repr."""
    rows = list(zip(*columns.values()))
    if fmt == "json":
        doc = {"metadata": metadata, "columns": list(columns), "rows": rows}
        return json.dumps(doc, indent=2, default=float) + "\n"
    buf = io.StringIO()
    for key in sorted(metadata):
        buf.write(f"# {key} = {metadata[key]}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])
    return buf.getvalue()


@pytest.mark.parametrize("block_rows", [1, 3, 8192])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n_rows", [0, 8])
def test_render_matches_row_by_row_reference(monkeypatch, block_rows, fmt, n_rows):
    monkeypatch.setattr(cli, "_BLOCK_ROWS", block_rows)
    columns = {name: values[:n_rows] for name, values in TRICKY_COLUMNS.items()}
    for table in (columns, {"special": columns["special"]}):
        text = "".join(cli._render(table, TRICKY_META, fmt))
        assert text == reference_text(table, TRICKY_META, fmt)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "lengths", [(8, 7), (7, 8), (6, 7)], ids=["first_longer", "first_shorter", "past_last_block"]
)
def test_render_refuses_columns_of_unequal_length(monkeypatch, fmt, lengths):
    # (6, 7) with 3-row blocks: the extra row lies past the first column's
    # last block, where no block would meet it
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 3)
    columns = {
        "signed_zero": TRICKY_COLUMNS["signed_zero"][: lengths[0]],
        "text": TRICKY_COLUMNS["text"][: lengths[1]],
    }
    with pytest.raises(ValueError, match="unequal length"):
        "".join(cli._render(columns, TRICKY_META, fmt))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sample_columns_render_as_the_reference(fmt):
    # cmd_sample's columns are strided views of its (n, 3) table, over
    # three render blocks here
    config = configparser.ConfigParser()
    config.read_string(f"[sample]\nn_samples = {2 * cli._BLOCK_ROWS + 5}\n")
    columns, meta, code = cli.cmd_sample(*cli.read_config(config, "sample"), seed=5)
    assert code == EXIT_OK
    assert not any(col.flags.c_contiguous for col in columns.values())
    text = "".join(cli._render(columns, meta, fmt))
    assert text == reference_text(columns, meta, fmt)


def _float_samples():
    """Random float64 bit patterns, log-uniform values over +-[1e-6, 1e18]
    and the edges of the band where orjson's text equals repr."""
    rng = np.random.default_rng(22)
    int64 = np.iinfo(np.int64)
    bits = rng.integers(int64.min, int64.max, size=10**5, dtype=np.int64, endpoint=True)
    specials = [math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324, 2.2e-308]
    magnitudes = np.exp(rng.uniform(math.log(1e-6), math.log(1e18), size=10**5))
    edges = [
        np.nextafter(edge, toward) for edge in (1e-4, 1e16) for toward in (0.0, edge, np.inf)
    ]
    edges = np.array(edges + [0.0, 5e-324, 2e-06])
    return {
        "bit_patterns": np.concatenate([bits.view(np.float64), specials]),
        "log_uniform": magnitudes * rng.choice([-1.0, 1.0], size=magnitudes.size),
        "band_edges": np.concatenate([edges, -edges]),
    }


#: the cell separators of the two formats, and no separator (a row's last cell)
SUFFIXES = ["", ",", ",\n      "]


@pytest.mark.parametrize("cell", [cli._csv_text, cli._json_text], ids=["csv", "json"])
@pytest.mark.parametrize("sample", ["bit_patterns", "log_uniform", "band_edges"])
def test_cell_texts_of_float_arrays_equal_each_cell(cell, sample):
    values = _float_samples()[sample]
    for suffix in SUFFIXES:
        assert cli._cell_texts(values, cell, suffix) == [cell(v) + suffix for v in values.tolist()]


def _branch_columns(n=16):
    """float64 columns of n rows (n a multiple of 8) for each branch of
    _cell_texts: few distinct values (a text per distinct value, gathered)
    or more than n/2 (formatted in row order), each with in-band and
    out-of-band values, and strided views."""
    half = np.arange(n // 2) + 0.5
    nan_payload = np.array([0x7FF8000000000001], dtype=np.int64).view(np.float64)[0]
    return {
        "constant": np.full(n, 0.25),
        "repeat_runs": np.repeat([0.5, 1.5, 2.5, 3.5], n // 4),
        "tile": np.tile([0.1, 0.2, 0.3, 0.4], n // 4),
        "half_distinct": np.tile(half, 2),
        "half_plus_one_distinct": np.concatenate([half, [n + 0.5], np.full(n // 2 - 1, 0.5)]),
        "zeros_and_nans": np.tile([0.0, -0.0, math.nan, nan_payload, -math.nan, 1.0, 0.0, -0.0], n // 8),
        "out_of_band_few": np.tile([1e16, 2e-06, math.inf, -1e20], n // 4),
        "out_of_band_distinct": np.geomspace(1e-8, 1e24, n) * np.tile([1.0, -1.0], n // 2),
        "strided_distinct": (np.arange(2 * n) / 7.0)[::2],
        "strided_constant": np.tile([1 / 3, 2 / 3], n)[::2],
    }


@pytest.mark.parametrize("suffix", SUFFIXES, ids=["none", "csv_sep", "json_sep"])
@pytest.mark.parametrize("cell", [cli._csv_text, cli._json_text], ids=["csv", "json"])
@pytest.mark.parametrize("n", [0, 1, 16])
def test_cell_texts_of_each_branch_equal_each_cell(cell, suffix, n):
    columns = _branch_columns()
    assert not any(columns[name].flags.c_contiguous for name in ("strided_distinct", "strided_constant"))
    columns = {name: values[:n] for name, values in columns.items()}
    columns["size_1_out_of_band"] = np.array([1e-05])[:n]
    for name, values in columns.items():
        expected = [cell(v) + suffix for v in values.tolist()]
        assert cli._cell_texts(values, cell, suffix) == expected, name


@pytest.mark.parametrize("block_rows", [1, 3, 8192])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n_rows", [0, 1, 16])
def test_render_of_each_cell_text_branch_matches_the_reference(monkeypatch, block_rows, fmt, n_rows):
    monkeypatch.setattr(cli, "_BLOCK_ROWS", block_rows)
    columns = {name: values[:n_rows] for name, values in _branch_columns().items()}
    for table in (columns, {"zeros_and_nans": columns["zeros_and_nans"]}):
        text = "".join(cli._render(table, TRICKY_META, fmt))
        assert text == reference_text(table, TRICKY_META, fmt)


#: small configs that exercise every subcommand
SMALL_CONFIGS = {
    "fig3": SMALL_FIG3,
    "fig4": "[fig4]\neta_points = 10\ngrid_d = 10 20\n",
    "table1": "",
    "oracle-report": "[oracle-report]\nn_atoms = 100\ni0 = 100\nproduct = 1\nx_t = 0.7853981633974483\n",
    "sample": "[sample]\nn_samples = 20\n",
    "plan": "",
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", list(SMALL_CONFIGS))
def test_out_file_holds_the_stdout_bytes(tmp_path, capsys, command, fmt):
    cfg = write_config(tmp_path, SMALL_CONFIGS[command])
    argv = ["--config", cfg, "--format", fmt]
    _, stdout, _ = run_main(argv + [command], capsys)
    out_path = tmp_path / f"out.{fmt}"
    _, to_file, _ = run_main(argv + ["--out", str(out_path), command], capsys)
    assert to_file == ""
    assert stdout.endswith("\n")
    assert out_path.read_bytes() == stdout.encode()


FLOAT_EDGES = ("nan", "inf", "-inf", "-1", "0", "1e300", "1e-300")
#: 1e300 is refused before anything that size is built; no count between
#: that and the small ones is tried, since it could allocate for real
COUNT_EDGES = ("nan", "inf", "-inf", "-1", "0", "0.5", "1e-300", "1e300")
#: kind of a numeric key in cli.KEYS -> the values swept; text and
#: enumerated keys are not swept
EDGES = {
    **dict.fromkeys((cli.FLOAT, cli.FLOATS, cli.FLOATS1), FLOAT_EDGES),
    **dict.fromkeys((cli.COUNT, cli.COUNT0, cli.COUNTS1), COUNT_EDGES),
}
#: (subcommand, key, value) -> the columns where that edge may give 0.0
ZERO_CELLS = {
    # the beta mode is dark at x_t = 0 (nudged to 2e-06): its -1 sigma reading is 0
    **dict.fromkeys((("fig3", "x_t", "0"), ("fig3", "x_t", "1e-300")), {"i_beta"}),
    # the eta grid and d column echo the input
    ("fig4", "eta_max", "0"): {"eta"},
    **{("fig4", key, "0"): {"d"} for key in ("reidc_d", "alkali_d", "grid_d")},
    ("oracle-report", "product", "0"): {"product"},
    # no probe light, no counts
    **dict.fromkeys((("sample", "i0", "0"), ("sample", "i0", "1e-300")), {"i_alpha", "i_beta"}),
    # xi'^2 = 1 to rounding, 0 dB
    ("plan", "eta", "1e-300"): {"xi_prime_db"},
}


def test_every_numeric_key_keeps_the_exit_code_contract(tmp_path, capsys):
    # each small config with one numeric key of cli.KEYS at an edge of its
    # domain exits 2, 3 or 4, or exits 0 with finite cells that are 0.0 only
    # where ZERO_CELLS allows it; a silent underflow to 0 fails
    cases = [
        (command, key, value)
        for command, keys in cli.KEYS.items()
        for key, (kind, _) in keys.items()
        for value in EDGES.get(kind, ())
    ]
    failures = []
    for command, key, value in cases:
        config = configparser.ConfigParser()
        config.read_string(SMALL_CONFIGS[command])
        if not config.has_section(command):
            config.add_section(command)
        config[command][key] = value
        path = tmp_path / "edge.ini"
        with path.open("w") as fh:
            config.write(fh)
        code, out, _ = run_main(["--config", str(path), "--format", "json", command], capsys)
        if code == EXIT_OK:
            doc = json.loads(out)
            zero_ok = ZERO_CELLS.get((command, key, value), set())
            ok = all(
                math.isfinite(v) and (v != 0.0 or name in zero_ok)
                for row in doc["rows"]
                for name, v in zip(doc["columns"], row)
                if isinstance(v, float)
            )
        else:
            ok = code in (EXIT_CONFIG, EXIT_NUMERIC, EXIT_GATE)
        if not ok:
            failures.append((command, key, value, code))
    assert failures == []
