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
--seed U64 (default 0), --format {csv,json} (default csv).  The flags are
the only source of these settings; no environment variable is read.

Exit codes: 0 success; 2 configuration error (including a config file that
is not UTF-8, a value holding % (values are read as written, without
interpolation), a key in the subcommand's own section that it does not
read, a count key -- grid_points, eta_points, n_atoms, n_samples -- that is
not a whole number at or above its minimum, an empty fig3 x_t or
oracle-report grid list, a materials file that cannot be read or holds an
invalid preset -- an unknown key, or a value that is not finite and > 0 --
and an --out file that cannot be opened); 3 numeric-domain error (including phi^2 N above probe.PHI2N_WARN
in fig3 and second-order sample, a non-finite x_t or optical depth, an
oracle-report i0 that is not finite and > 0 or product that is not finite
and >= 0, named with its value, a plan whose N, I0 or detuning is not
finite and > 0, and an allocation that fails);
4 acceptance-gate failure (oracle-report's flat gate, oracle.GATE, which no
setting moves, including a row whose relative error is not finite); 5
output could not be written, including stdout closed early (``spinsq fig3
| head -1``, ``spinsq table1 > /dev/full``), reported on one stderr line.

Output is data only (no plotting).  Every default that participated in a
run is echoed into the output metadata, along with the RNG algorithm for
sampling runs and every warning raised while the subcommand ran, such as a
nudged singular phase or the phi^2 N warning of oracle-report, in the order
raised, each message once, also printed on stderr.  Each subcommand returns
its columns; the renderer formats each distinct value of a column once,
interleaves the columns' texts into one string per _BLOCK_ROWS rows and
streams the strings to --out or stdout, which receive the same bytes.
Floats print as their repr.  A float64 column's distinct values are
formatted by one orjson call where its text equals repr, at magnitudes in
[1e-4, 1e16); outside that band repr switches to exponent form, and orjson
writes NaN and +-inf as null, so those values go through repr one by one.
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

from .backaction import EPS_SING, MeasurementOutcome, offset_outcomes
from .dicke import EnsembleSpec
from .oracle import (
    DEFAULT_GRID,
    GATE,
    RNG_ALGORITHM,
    compare_report,
    conditional_xi_distribution,
)
from .planner import GeometrySpec, load_materials, plan, table1
from .probe import ProbeConfig, check_phi2n
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
EXIT_OUTPUT = 5


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
    parser = configparser.ConfigParser(interpolation=None)
    if path:
        try:
            read = parser.read(path)
        except (configparser.Error, UnicodeDecodeError) as exc:
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
        # the section's own keys; [DEFAULT] keys reach every section and are exempt
        self._own = [key for key in self._sec if key not in parser.defaults()]

    def check_all_read(self):
        """Raise ConfigError naming the section's own keys that were never read."""
        unread = [key for key in self._own if key not in self.used]
        if unread:
            raise ConfigError(
                f"config [{self._name}]: unknown key(s) {', '.join(unread)} "
                f"(keys read: {', '.join(self.used)})"
            )

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

    def get_floats(self, key: str, default: tuple, nonempty: bool = False) -> tuple:
        raw = self._sec.get(key) if self._sec else None
        if raw is None:
            self.used[key] = list(default)
            return tuple(default)
        try:
            values = tuple(float(tok) for tok in str(raw).replace(",", " ").split())
        except ValueError as exc:
            raise ConfigError(f"config [{self._name}] {key} = {raw!r}: {exc}") from exc
        if nonempty and not values:
            raise ConfigError(f"config [{self._name}] {key}: the list is empty")
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


# ---------------------------------------------------------------------------
# output rendering
# ---------------------------------------------------------------------------

#: rows formatted and written at a time; bounds the output text held in memory
_BLOCK_ROWS = 4096


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

    A float64 array's distinct values are formatted by one ``orjson.dumps``
    call, whose shortest round-trip digits (Ryu) cost ~40 ns a value against
    ~0.8 us for ``float.__repr__``.  Its text equals repr for magnitudes in
    [1e-4, 1e16), where both write positional notation.  Outside that band
    repr switches to exponent form (``1e+16``, ``2e-06``) and orjson writes
    NaN and +-inf as ``null``, so those values, and +-0.0, go through ``cell``.
    """
    if isinstance(values, np.ndarray) and values.dtype == np.float64:
        import orjson  # imported here so that only rendering loads it

        keys, inverse = np.unique(values.view(np.int64), return_inverse=True)
        floats = keys.view(np.float64)
        texts = orjson.dumps(floats, option=orjson.OPT_SERIALIZE_NUMPY).decode()[1:-1].split(",")
        magnitude = np.abs(floats)
        outside = np.flatnonzero(~((magnitude >= 1e-4) & (magnitude < 1e16)))
        for i, v in zip(outside.tolist(), floats[outside].tolist()):
            texts[i] = cell(v)
        return np.array(texts, dtype=object)[inverse].tolist()
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


def _text_blocks(columns: dict, cell, sep: str, end: str):
    """Yield the rows of ``columns`` as one list of text pieces per _BLOCK_ROWS
    rows; its join is the block, cells joined by ``sep`` and rows ended by ``end``."""
    n_rows = len(next(iter(columns.values()), ()))
    if any(len(col) != n_rows for col in columns.values()):
        raise ValueError("columns of unequal length")
    width = 2 * len(columns)
    for start in range(0, n_rows, _BLOCK_ROWS):
        n = min(_BLOCK_ROWS, n_rows - start)
        # a row takes width slots: cell, sep, cell, ..., cell, end
        pieces = [sep] * (width * n)
        for j, col in enumerate(columns.values()):
            pieces[2 * j::width] = _cell_texts(col[start:start + n], cell)
        pieces[width - 1::width] = [end] * n
        yield pieces


def _render(columns: dict, metadata: dict, fmt: str):
    """Yield the output text of ``columns`` (name -> equal-length sequence of
    scalars) and ``metadata`` in pieces; the text ends with a newline.

    CSV: ``# key = value`` lines, then csv.writer rows with floats as repr.
    JSON: json.dumps({"metadata", "columns", "rows"}, indent=2, default=float).
    """
    if fmt == "csv":
        yield "".join(f"# {key} = {metadata[key]}\n" for key in sorted(metadata))
        yield ",".join(map(_csv_text, columns)) + "\n"
        for pieces in _text_blocks(columns, _csv_text, ",", "\n"):
            yield "".join(pieces)
        return
    empty = json.dumps(
        {"metadata": metadata, "columns": list(columns), "rows": []},
        indent=2,
        default=float,
    )
    # the rows replace the "[]\n}" that ends the document without rows
    sep = opening = empty[: -len("[]\n}")] + "[\n"
    for pieces in _text_blocks(columns, _json_text, ",\n      ", "\n    ],\n    [\n      "):
        # a block opens its first row and closes its last
        pieces[0] = sep + "    [\n      " + pieces[0]
        pieces[-1] = "\n    ]"
        yield "".join(pieces)
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

def _nudge_singular(x_t: float) -> float:
    """Push x_t off the singular set {k pi/2} by 2 * EPS_SING if needed, with
    a UserWarning; a non-finite x_t is returned as is, for ProbeConfig to refuse."""
    if not math.isfinite(x_t) or min(abs(math.cos(x_t)), abs(math.sin(x_t))) >= EPS_SING:
        return x_t
    quadrant = round(x_t / (math.pi / 2.0))
    nudged = quadrant * (math.pi / 2.0) + 2.0 * EPS_SING
    warnings.warn(
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
        "x_t", (0.0, math.pi / 8, math.pi / 4, math.pi / 2), nonempty=True
    )
    grid_points = section.get_count("grid_points", 21)
    jx_mode = section.get("jx_mode", "shortcut", cast=str)

    phi = phi_from_eta_d(eta, d, n_atoms, i0)
    ens = EnsembleSpec(n_atoms=n_atoms, phi=phi)
    check_phi2n(ens, refuse=True)
    per_phase = grid_points * grid_points
    # allocated before the offsets, so that an oversized grid fails on its row count
    columns = {
        name: np.empty(len(x_t_list) * per_phase)
        for name in ("x_t", "i_alpha", "i_beta", "xi_sq")
    }
    offsets = _linspace(-1.0, 1.0, grid_points)
    for k, x_t_raw in enumerate(x_t_list):
        x_t = _nudge_singular(x_t_raw)
        probe = ProbeConfig(i0=i0, x_t=x_t)
        axes = offset_outcomes(ens, probe, offsets, offsets)
        # i_alpha steps along the outer grid axis, i_beta along the inner one
        out = MeasurementOutcome(
            i_alpha=np.repeat(axes.i_alpha, grid_points),
            i_beta=np.tile(axes.i_beta, grid_points),
        )
        rows = slice(k * per_phase, (k + 1) * per_phase)
        columns["x_t"][rows] = x_t
        columns["i_alpha"][rows] = out.i_alpha
        columns["i_beta"][rows] = out.i_beta
        columns["xi_sq"][rows] = xi_closed_form_array(ens, probe, out, jx_mode=jx_mode)
    meta = dict(section.used)
    meta["phi"] = phi
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
    xi = np.empty((len(curves), eta_points))
    for row, (_, d, model) in zip(xi, curves):
        row[:] = xi_noisy(etas, d, model)
    columns = {
        "model": [name for name, _, _ in curves for _ in range(eta_points)],
        "d": np.repeat([d for _, d, _ in curves], eta_points),
        "eta": np.tile(etas, len(curves)),
        "xi_prime_sq": xi.ravel(),
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
    """Oracle vs closed-form sweep; exit 4 when the flat gate fails."""
    offsets_std = section.get_floats("offsets", (0.0,))
    grid = {k: section.get_floats(k, v, nonempty=True) for k, v in DEFAULT_GRID.items()}
    grid["n_atoms"] = tuple(section.count("n_atoms", n) for n in grid["n_atoms"])

    offset_pairs = sorted({(0, 0)} | {
        (o, 0) for o in offsets_std if o
    } | {(0, o) for o in offsets_std if o})
    report = compare_report(grid=grid, offsets=offset_pairs)
    names = (
        "n_atoms", "i0", "product", "x_t", "offset_alpha", "offset_beta",
        "i_alpha", "i_beta", "xi_oracle", "xi_closed", "rel_err",
    )
    columns = {c: [r[c] for r in report["rows"]] for c in names}
    # the fixed gate and <Jx> mode take part in every run, so they are echoed
    meta = {"gate": GATE, **section.used, "jx_mode": "exact"}
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

def _linspace(lo: float, hi: float, n: int) -> np.ndarray:
    if n == 1:
        return np.array([0.5 * (lo + hi)])
    step = (hi - lo) / (n - 1)
    return lo + np.arange(n) * step


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinsq",
        description="Four-color QND spin-squeezing sweeps and reports.",
    )
    parser.add_argument("--config")
    parser.add_argument("--out")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("command", choices=tuple(_COMMANDS))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed < 0 or args.seed >= 2**64:
            raise ConfigError("seed must fit in an unsigned 64-bit integer")
        section = Section(_load_config(args.config), args.command)
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                columns, meta, code = _COMMANDS[args.command](section, args)
        except (ValueError, ArithmeticError, MemoryError) as exc:
            print(f"numeric error: {str(exc) or type(exc).__name__}", file=sys.stderr)
            return EXIT_NUMERIC
        section.check_all_read()
        raised = list(dict.fromkeys(str(w.message) for w in caught))
        for message in raised:
            print(f"warning: {message}", file=sys.stderr)
        if raised:
            meta["warnings"] = "; ".join(raised)
        meta.setdefault("command", args.command)
        meta.setdefault("format", args.format)
        try:
            _emit(_render(columns, meta, args.format), args.out)
            sys.stdout.flush()
        except OSError as exc:
            if args.out:
                message = f"cannot write --out {args.out}: {exc}"
            else:
                # devnull takes the flush at interpreter exit, which would fail again
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
                closed = isinstance(exc, BrokenPipeError)
                message = "stdout " + (
                    "closed before the output was complete" if closed
                    else f"could not be written: {exc}"
                )
            print(f"error: {message}", file=sys.stderr)
            return EXIT_OUTPUT
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return code


if __name__ == "__main__":
    sys.exit(main())
