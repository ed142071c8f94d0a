import csv
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spinsq import cli
from spinsq.cli import EXIT_CONFIG, EXIT_GATE, EXIT_NUMERIC, EXIT_OK, main


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


def test_cli_outputs_tool_writes_every_output(tmp_path):
    # tools/cli_outputs.py writes the files that a before/after diff compares
    tool = Path(__file__).resolve().parent.parent / "tools" / "cli_outputs.py"
    proc = subprocess.run(
        [sys.executable, str(tool), str(tmp_path)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    outputs = sorted(p.name for p in tmp_path.iterdir() if p.name != "exit_codes.txt")
    assert len(outputs) == 18
    assert all((tmp_path / name).stat().st_size > 0 for name in outputs)
    codes = (tmp_path / "exit_codes.txt").read_text().splitlines()
    assert sorted(line.split()[0] for line in codes) == outputs
    assert all(line.endswith(" 0") for line in codes)


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
    cfg = write_config(
        tmp_path,
        "[fig3]\nn_atoms = 100\ni0 = 50\nd = 4\neta = 0.5\ngrid_points = 2\nx_t = 0.0\n",
    )
    code, out, _ = run_main(["--config", cfg, "fig3"], capsys)
    assert code == EXIT_OK
    meta, _, _ = parse_csv(out)
    assert "nudged" in meta.get("warnings", "")


def test_fig3_outside_second_order_regime_exits_3(tmp_path, capsys):
    # eta d = 12.8 at I0 = 1 gives phi^2 N = 6.4 >> 0.1; the closed form
    # would print xi^2 from 0.07 to 103
    cfg = write_config(tmp_path, "[fig3]\ni0 = 1\nn_atoms = 1000\ngrid_points = 3\n")
    code, out, err = run_main(["--config", cfg, "fig3"], capsys)
    assert code == EXIT_NUMERIC
    assert out == ""
    assert "numeric error" in err and "phi^2 * N" in err


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
    cfg = write_config(tmp_path, "[plan]\nmaterial = unobtainium\n")
    code, _, err = run_main(["--config", cfg, "plan"], capsys)
    assert code == EXIT_CONFIG
    assert "unobtainium" in err


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
    ):
        cfg = write_config(tmp_path, text)
        code, out, err = run_main(["--config", cfg, command], capsys)
        assert code == EXIT_CONFIG, text
        assert out == ""
        assert "error:" in err and "numeric" not in err
        assert len(err.splitlines()) == 1, err


#: materials files the CLI cannot load: file name -> text
BAD_MATERIALS = {
    "no_header.txt": "molar_mass = 152.0\n",
    "no_molar_mass.txt": "[eu]\ndoping = 1e-3\nabsorption = 2.0\n",
    "bad_molar_mass.txt": "[eu]\nmolar_mass = abc\ndoping = 1e-3\nabsorption = 2.0\n",
}


@pytest.mark.parametrize(
    "command, materials, out",
    [
        ("table1", "missing.txt", None),
        ("table1", "no_header.txt", None),
        ("table1", "no_molar_mass.txt", None),
        ("plan", "bad_molar_mass.txt", None),
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
        ("fig3", "[fig3]\nx_t = 0.5 inf\n", "x_t must be finite"),
        # N, I0 and the detuning come out infinite or NaN
        ("plan", "[plan]\nmode_area = inf\n", "is not finite"),
        ("plan", "[plan]\nmode_area = 1e300\n", "is not finite"),
    ],
)
def test_non_finite_input_or_result_exits_3(tmp_path, capsys, command, text, match):
    cfg = write_config(tmp_path, text)
    code, out, err = run_main(["--config", cfg, command], capsys)
    assert code == EXIT_NUMERIC
    assert out == ""
    assert "numeric error" in err and match in err


def test_sample_outside_second_order_regime_exits_3(tmp_path, capsys):
    # phi^2 N = 100 >> 0.1: the closed form would print xi^2 ~ 1e46
    cfg = write_config(tmp_path, "[sample]\nphi = 0.5\nn_atoms = 400\n")
    code, out, err = run_main(["--config", cfg, "sample"], capsys)
    assert code == EXIT_NUMERIC
    assert out == ""
    assert "numeric error" in err and "phi^2 * N" in err


def test_env_overrides(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SPINSQ_FORMAT", "json")
    code, out, _ = run_main(["table1"], capsys)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["metadata"]["format"] == "json"
    # explicit flag wins over the environment
    code, out, _ = run_main(["--format", "csv", "table1"], capsys)
    assert out.startswith("#") or out.startswith("material")


def test_env_seed_and_bad_env_value(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, "[sample]\nn_samples = 5\n")
    monkeypatch.setenv("SPINSQ_SEED", "11")
    _, out_env, _ = run_main(["--config", cfg, "sample"], capsys)
    monkeypatch.delenv("SPINSQ_SEED")
    _, out_flag, _ = run_main(["--config", cfg, "--seed", "11", "sample"], capsys)
    assert out_env == out_flag
    monkeypatch.setenv("SPINSQ_SEED", "not-a-number")
    code, _, _ = run_main(["--config", cfg, "sample"], capsys)
    assert code == EXIT_CONFIG


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


@pytest.mark.parametrize("block_rows", [3, 8192])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n_rows", [0, 8])
def test_render_matches_row_by_row_reference(monkeypatch, block_rows, fmt, n_rows):
    monkeypatch.setattr(cli, "_BLOCK_ROWS", block_rows)
    columns = {name: values[:n_rows] for name, values in TRICKY_COLUMNS.items()}
    text = "".join(cli._render(columns, TRICKY_META, fmt))
    assert text == reference_text(columns, TRICKY_META, fmt)


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
