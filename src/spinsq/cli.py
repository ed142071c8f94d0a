"""Batch front-end: parameter sweeps, tables and reports as CSV/JSON.

Subcommands
-----------
fig3           conditional xi^2 over a grid of measurement outcomes
fig4           xi'^2 vs scattering probability for both noise models
table1         planner presets at optimal eta
oracle-report  oracle vs closed-form comparison sweep
sample         Monte Carlo outcome sampling with conditional xi^2
plan           planning chain for one material

Options: --config PATH (INI file, one section per subcommand), --out PATH,
--seed U64, --format {csv,json}.  Environment variables SPINSQ_SEED,
SPINSQ_FORMAT, SPINSQ_OUT, SPINSQ_CONFIG override built-in defaults
(command-line flags win over the environment).

Exit codes: 0 success; 2 configuration error (including a count key --
grid_points, eta_points, n_atoms, n_samples -- that is not a whole number
at or above its minimum, a materials file that cannot be read or holds an
invalid preset, and an --out file that cannot be opened); 3 numeric-domain
error (including phi^2 N above probe.PHI2N_WARN in fig3 and second-order
sample, a non-finite x_t, and a plan whose N, I0 or detuning is not
finite); 4 acceptance-gate failure (oracle-report, including a row whose
relative error is not finite).

Output is data only (no plotting).  Every default that participated in a
run is echoed into the output metadata, along with the RNG algorithm for
sampling runs and any warnings: auto-nudged singular phases, then the
Python warnings raised while the subcommand ran.  Each subcommand returns
its columns; the renderer formats each distinct value of a column once and
streams the text to --out or stdout, which receive the same bytes.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import json
import math
import os
import sys
import warnings

import numpy as np

from .backaction import MeasurementOutcome, most_probable_outcome
from .dicke import EnsembleSpec
from .oracle import (
    DEFAULT_GATE,
    DEFAULT_GRID,
    DEFAULT_JX_MODE,
    RNG_ALGORITHM,
    compare_report,
    conditional_xi_distribution,
)
from .planner import GeometrySpec, load_materials, plan, table1
from .probe import EPS_SING, ProbeConfig, check_phi2n, intensity_moments_approx
from .squeezing import (
    ALKALI,
    REIDC,
    eta_optimal,
    phi_from_eta_d,
    xi_closed_form,  # noqa: F401  (kept as spinsq.cli.xi_closed_form for tracing)
    xi_closed_form_array,
    xi_noisy,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_GATE = 4


#: allowed values of the enumerated config keys
_CHOICES = {"jx_mode": ("exact", "shortcut"), "method": ("exact", "second_order")}


class ConfigError(Exception):
    """Invalid or unparsable configuration.  The message is kept on one line
    (configparser's span several), since the CLI reports it as one."""

    def __init__(self, message: str):
        super().__init__(" ".join(message.splitlines()))


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------

def _load_config(path: str | None) -> configparser.ConfigParser:
    parser = configparser.ConfigParser()
    if path:
        try:
            read = parser.read(path)
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse config {path}: {exc}") from exc
        if not read:
            raise ConfigError(f"config file not found: {path}")
    return parser


class Section:
    """One subcommand's configuration with default tracking."""

    def __init__(self, parser: configparser.ConfigParser, name: str):
        self._sec = parser[name] if parser.has_section(name) else {}
        self._name = name
        self.used: dict = {}

    def get(self, key: str, default, cast=float):
        raw = self._sec.get(key) if self._sec else None
        if raw is None:
            self.used[key] = default
            return default
        try:
            value = cast(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(
                f"config [{self._name}] {key} = {raw!r}: {exc}"
            ) from exc
        if key in _CHOICES and value not in _CHOICES[key]:
            raise ConfigError(
                f"config [{self._name}] {key} = {raw!r}: not one of {_CHOICES[key]}"
            )
        self.used[key] = value
        return value

    def get_floats(self, key: str, default: tuple) -> tuple:
        raw = self._sec.get(key) if self._sec else None
        if raw is None:
            self.used[key] = list(default)
            return tuple(default)
        try:
            values = tuple(float(tok) for tok in str(raw).replace(",", " ").split())
        except ValueError as exc:
            raise ConfigError(f"config [{self._name}] {key} = {raw!r}: {exc}") from exc
        self.used[key] = list(values)
        return values

    def get_count(self, key: str, default, minimum: int = 1) -> int:
        """``get`` for a count; the metadata keeps the value as read."""
        return self.count(key, self.get(key, default), minimum)

    def count(self, key: str, value, minimum: int = 1) -> int:
        """``value`` of ``key`` as an int, if it is a whole number >= minimum."""
        if not (value >= minimum and float(value).is_integer()):
            raise ConfigError(
                f"config [{self._name}] {key} = {value!r}: not a whole number >= {minimum}"
            )
        return int(value)


def _env_default(name: str, fallback, cast):
    raw = os.environ.get(f"SPINSQ_{name}")
    if raw is None:
        return fallback
    try:
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"environment SPINSQ_{name} = {raw!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# output rendering
# ---------------------------------------------------------------------------

#: rows formatted and written at a time; bounds the output text held in memory
_BLOCK_ROWS = 8192


def _csv_text(value) -> str:
    """One cell as csv.writer writes it: floats (numpy float64 too) as their
    repr, anything else as str with minimal quoting."""
    if isinstance(value, float):
        return float.__repr__(value)
    buf = io.StringIO()
    # the empty second field keeps csv from quoting a lone empty field
    csv.writer(buf, lineterminator="\n").writerow((value, ""))
    return buf.getvalue()[:-2]


def _json_text(value) -> str:
    """One cell as json.dumps(..., default=float) writes it."""
    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(value)
    return json.dumps(value, default=float)


def _cell_texts(values, cell) -> list:
    """``cell(v)`` for each value of a column, each distinct value formatted once.

    float64 arrays are keyed by bit pattern, so 0.0 and -0.0 never share a
    text; other values by (type, value), so 0, 0.0 and False never do.
    Floats outside float64 arrays are formatted cell by cell.
    """
    if isinstance(values, np.ndarray) and values.dtype == np.float64:
        keys, inverse = np.unique(values.view(np.int64), return_inverse=True)
        floats = keys.view(np.float64)
        # a finite float's text is its repr in every format; calling repr
        # directly saves a Python call per value
        texts = list(map(float.__repr__ if np.isfinite(floats).all() else cell, floats.tolist()))
        return list(map(texts.__getitem__, inverse.tolist()))
    cache: dict = {}
    out = []
    for v in values:
        if isinstance(v, float):
            out.append(cell(v))
            continue
        key = (type(v), v)
        if key not in cache:
            cache[key] = cell(v)
        out.append(cache[key])
    return out


def _text_rows(columns: dict, cell):
    """Yield the rows of ``columns`` as tuples of cell texts, one block of
    _BLOCK_ROWS rows at a time."""
    n_rows = len(next(iter(columns.values()), ()))
    for start in range(0, n_rows, _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        yield zip(*(_cell_texts(col[block], cell) for col in columns.values()), strict=True)


def _render(columns: dict, metadata: dict, fmt: str):
    """Yield the output text of ``columns`` (name -> equal-length sequence of
    scalars) and ``metadata`` in pieces; the text ends with a newline.

    CSV: ``# key = value`` lines, then csv.writer rows with floats as repr.
    JSON: json.dumps({"metadata", "columns", "rows"}, indent=2, default=float).
    """
    if fmt == "csv":
        yield "".join(f"# {key} = {metadata[key]}\n" for key in sorted(metadata))
        yield ",".join(map(_csv_text, columns)) + "\n"
        for rows in _text_rows(columns, _csv_text):
            yield "\n".join(map(",".join, rows)) + "\n"
        return
    empty = json.dumps(
        {"metadata": metadata, "columns": list(columns), "rows": []},
        indent=2,
        default=float,
    )
    # the rows replace the "[]\n}" that ends the document without rows
    sep = opening = empty[: -len("[]\n}")] + "[\n"
    for rows in _text_rows(columns, _json_text):
        yield sep + ",\n".join(
            "    [\n      " + ",\n      ".join(row) + "\n    ]" for row in rows
        )
        sep = ",\n"
    yield empty + "\n" if sep is opening else "\n  ]\n}\n"


def _emit(chunks, out_path: str | None):
    """Write the text pieces to ``out_path`` (or stdout) as they are made;
    an ``out_path`` that cannot be opened is a ConfigError."""
    if out_path:
        try:
            fh = open(out_path, "w")
        except OSError as exc:
            raise ConfigError(f"cannot open --out {out_path}: {exc}") from exc
        with fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _nudge_singular(x_t: float, nudges: list) -> float:
    """Push x_t off the singular set {k pi/2} by 2 * EPS_SING if needed;
    a non-finite x_t is returned as is, for ProbeConfig to refuse."""
    if not math.isfinite(x_t) or min(abs(math.cos(x_t)), abs(math.sin(x_t))) >= EPS_SING:
        return x_t
    quadrant = round(x_t / (math.pi / 2.0))
    nudged = quadrant * (math.pi / 2.0) + 2.0 * EPS_SING
    nudges.append(
        f"x_t = {x_t!r} is within {EPS_SING:g} of a singular phase; "
        f"nudged to {nudged!r}"
    )
    return nudged


def cmd_fig3(section: Section) -> tuple:
    """Grid of conditional xi^2 over outcomes, mean +/- 1 std per axis."""
    i0 = section.get("i0", 1e11)
    d = section.get("d", 40.0)
    eta = section.get("eta", 0.32)
    n_atoms = section.get_count("n_atoms", 6e10)
    x_t_list = section.get_floats(
        "x_t", (0.0, math.pi / 8, math.pi / 4, math.pi / 2)
    )
    grid_points = section.get_count("grid_points", 21)
    jx_mode = section.get("jx_mode", "shortcut", cast=str)

    phi = phi_from_eta_d(eta, d, n_atoms, i0)
    ens = EnsembleSpec(n_atoms=n_atoms, phi=phi)
    check_phi2n(ens, refuse=True)
    nudges: list = []
    offsets = np.array(_linspace(-1.0, 1.0, grid_points))
    per_phase = grid_points * grid_points
    columns = {
        name: np.empty(len(x_t_list) * per_phase)
        for name in ("x_t", "i_alpha", "i_beta", "xi_sq")
    }
    for k, x_t_raw in enumerate(x_t_list):
        x_t = _nudge_singular(x_t_raw, nudges)
        probe = ProbeConfig(i0=i0, x_t=x_t)
        mean = most_probable_outcome(probe)
        mom = intensity_moments_approx(ens, probe)
        sa = math.sqrt(max(mom.var_alpha, 0.0))
        sb = math.sqrt(max(mom.var_beta, 0.0))
        # i_alpha steps along the outer grid axis, i_beta along the inner one
        i_alpha = np.maximum(mean.i_alpha + offsets * sa, 0.0)
        i_beta = np.maximum(mean.i_beta + offsets * sb, 0.0)
        out = MeasurementOutcome(
            i_alpha=np.repeat(i_alpha, grid_points), i_beta=np.tile(i_beta, grid_points)
        )
        rows = slice(k * per_phase, (k + 1) * per_phase)
        columns["x_t"][rows] = x_t
        columns["i_alpha"][rows] = out.i_alpha
        columns["i_beta"][rows] = out.i_beta
        columns["xi_sq"][rows] = xi_closed_form_array(ens, probe, out, jx_mode=jx_mode)
    meta = dict(section.used)
    meta["phi"] = phi
    meta["warnings"] = nudges
    return columns, meta, EXIT_OK


def cmd_fig4(section: Section) -> tuple:
    """xi'^2 vs eta curves for both noise models, plus a 2-D (d, eta) grid."""
    eta_points = section.get_count("eta_points", 200)
    eta_max = section.get("eta_max", 0.8)
    reidc_d = section.get_floats("reidc_d", (10.0, 40.0))
    alkali_d = section.get_floats("alkali_d", (16.0, 51.0, 75.0))
    grid_d = section.get_floats("grid_d", tuple(float(x) for x in range(4, 101, 4)))
    etas = _linspace(eta_max / eta_points, eta_max, eta_points)

    curves = [
        (name, d, model)
        for name, d_list, model in (
            ("reidc", reidc_d, REIDC), ("alkali", alkali_d, ALKALI), ("reidc2d", grid_d, REIDC)
        )
        for d in d_list
    ]
    columns = {
        "model": [name for name, _, _ in curves for _ in etas],
        "d": np.repeat([d for _, d, _ in curves], len(etas)),
        "eta": np.tile(etas, len(curves)),
        "xi_prime_sq": np.array(
            [xi_noisy(eta, d, model) for _, d, model in curves for eta in etas], dtype=float
        ),
    }
    return columns, dict(section.used), EXIT_OK


#: CSV column -> PlanResult field where the two names differ (table1, plan)
_PLAN_FIELDS = {
    "material": "name", "d": "optical_depth", "eta_opt": "eta",
    "sigma_cm2": "sigma", "length_cm": "length",
}


def _plan_columns(results, names) -> dict:
    return {c: [getattr(r, _PLAN_FIELDS.get(c, c)) for r in results] for c in names}


def _materials(section: Section) -> dict:
    """``load_materials`` of the section's ``materials`` file (the shipped
    presets when it is empty); a file that cannot be read or holds invalid
    presets is a ConfigError."""
    path = section.get("materials", "", cast=str)
    try:
        return load_materials(path or None)
    except (OSError, configparser.Error, ValueError) as exc:
        raise ConfigError(f"config [{section._name}] materials = {path!r}: {exc}") from exc


def cmd_table1(section: Section) -> tuple:
    names = (
        "material", "d", "eta_opt", "sigma_cm2", "n_atoms", "i0",
        "detuning_over_gamma", "xi_prime_sq", "xi_prime_db",
    )
    columns = _plan_columns(table1(_materials(section)), names)
    return columns, dict(section.used), EXIT_OK


def cmd_oracle_report(section: Section) -> tuple:
    """Oracle vs closed-form sweep; exit 4 when the gate fails."""
    gate = section.get("gate", DEFAULT_GATE)
    offsets_std = section.get_floats("offsets", (0.0,))
    grid = {key: section.get_floats(key, default) for key, default in DEFAULT_GRID.items()}
    grid["n_atoms"] = tuple(section.count("n_atoms", n) for n in grid["n_atoms"])
    jx_mode = section.get("jx_mode", DEFAULT_JX_MODE, cast=str)

    offset_pairs = sorted({(0, 0)} | {
        (o, 0) for o in offsets_std if o
    } | {(0, o) for o in offsets_std if o})
    report = compare_report(
        grid=grid,
        offsets=offset_pairs,
        gate=gate,
        jx_mode=jx_mode,
    )
    names = (
        "n_atoms", "i0", "product", "x_t", "offset_alpha", "offset_beta",
        "i_alpha", "i_beta", "xi_oracle", "xi_closed", "rel_err",
    )
    columns = {c: [r[c] for r in report["rows"]] for c in names}
    meta = dict(section.used)
    meta["max_rel_err"] = report["max_rel_err"]
    meta["pass_flat_gate"] = report["pass_flat_gate"]
    meta["pass_adaptive_gate"] = report["pass_adaptive_gate"]
    code = EXIT_OK if report["pass_flat_gate"] else EXIT_GATE
    return columns, meta, code


def cmd_sample(section: Section, seed: int) -> tuple:
    n_atoms = section.get_count("n_atoms", 400)
    i0 = section.get("i0", 100.0)
    x_t = section.get("x_t", math.pi / 4)
    phi = section.get("phi", 7.07e-3)
    n_samples = section.get_count("n_samples", 1000, minimum=0)
    method = section.get("method", "second_order", cast=str)

    ens = EnsembleSpec(n_atoms=n_atoms, phi=phi)
    probe = ProbeConfig(i0=i0, x_t=x_t)
    table = conditional_xi_distribution(
        ens, probe, n_samples, seed=seed, method=method
    )
    columns = dict(zip(("i_alpha", "i_beta", "xi_sq"), table.rows.T))
    meta = dict(section.used)
    meta["seed"] = seed
    meta["rng_algorithm"] = RNG_ALGORITHM
    for q, v in table.quantiles.items():
        meta[f"xi_sq_q{int(q * 100)}"] = v
    return columns, meta, EXIT_OK


def cmd_plan(section: Section) -> tuple:
    material = section.get("material", "eu", cast=str)
    presets = _materials(section)
    if material not in presets:
        raise ConfigError(
            f"unknown material {material!r}; available: {sorted(presets)}"
        )
    mat, geom_default = presets[material]
    d = section.get("d", geom_default.optical_depth)
    mode_area = section.get("mode_area", geom_default.mode_area)
    geom = GeometrySpec(mode_area=mode_area, optical_depth=d)
    eta = section.get("eta", eta_optimal(d, REIDC))
    names = (
        "material", "d", "eta", "sigma_cm2", "length_cm", "n_atoms", "i0",
        "detuning_over_gamma", "xi_prime_sq", "xi_prime_db", "flagged",
    )
    columns = _plan_columns([plan(mat, geom, eta)], names)
    return columns, dict(section.used), EXIT_OK


#: subcommand -> handler(section, args).  The lambdas look the handlers up
#: when called, so a wrapper bound over ``cli.cmd_*`` (a tracer) sees the call.
_COMMANDS = {
    "fig3": lambda section, args: cmd_fig3(section),
    "fig4": lambda section, args: cmd_fig4(section),
    "table1": lambda section, args: cmd_table1(section),
    "oracle-report": lambda section, args: cmd_oracle_report(section),
    "sample": lambda section, args: cmd_sample(section, args.seed),
    "plan": lambda section, args: cmd_plan(section),
}


# ---------------------------------------------------------------------------
# helpers and entry point
# ---------------------------------------------------------------------------

def _linspace(lo: float, hi: float, n: int):
    if n == 1:
        return [0.5 * (lo + hi)]
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinsq",
        description="Four-color QND spin-squeezing sweeps and reports.",
    )
    parser.add_argument("--config", default=_env_default("CONFIG", None, str))
    parser.add_argument("--out", default=_env_default("OUT", None, str))
    parser.add_argument(
        "--seed", type=int, default=_env_default("SEED", 0, int)
    )
    parser.add_argument(
        "--format",
        choices=("csv", "json"),
        default=_env_default("FORMAT", "csv", str),
    )
    parser.add_argument("command", choices=tuple(_COMMANDS))
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.format not in ("csv", "json"):
            raise ConfigError(f"unknown format {args.format!r}")
        if args.seed < 0 or args.seed >= 2**64:
            raise ConfigError("seed must fit in an unsigned 64-bit integer")
        config = _load_config(args.config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    section = Section(config, args.command)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            columns, meta, code = _COMMANDS[args.command](section, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, ArithmeticError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC

    raised = list(dict.fromkeys(str(w.message) for w in caught))
    for message in raised:
        print(f"warning: {message}", file=sys.stderr)
    notes = meta.pop("warnings", []) + raised
    if notes:
        meta["warnings"] = "; ".join(notes)
    meta.setdefault("command", args.command)
    meta.setdefault("format", args.format)
    try:
        _emit(_render(columns, meta, args.format), args.out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return code


if __name__ == "__main__":
    sys.exit(main())
