"""Batch front-end: parameter sweeps, tables and reports as CSV/JSON.

Subcommands
-----------
fig3           conditional xi^2 over a grid of measurement outcomes
fig4           xi'^2 vs scattering probability for both noise models
table1         planner presets at optimal eta
oracle-report  oracle vs closed-form comparison sweep
sample         Monte Carlo outcome sampling with conditional xi^2
plan           planning chain for one material

Options: --config PATH (INI file, one section per subcommand; KEYS lists
each subcommand's keys with their kinds and defaults, and [DEFAULT] keys
reach every subcommand), --out PATH, --seed U64 (default 0), --format
{csv,json} (default csv).  The flags are the only source of these
settings; no environment variable is read.

Exit codes (the README's CLI section lists the cases of each):
0  success
2  configuration error, in the config file, a flag or a file it names
3  numeric-domain error, one ``numeric error:`` line on stderr
4  acceptance-gate failure (oracle-report's flat gate, oracle.GATE)
5  output could not be written, including stdout closed early

Output is data only (no plotting).  Every default that participated in a
run is echoed into the output metadata, along with the RNG algorithm for
sampling runs and every warning raised while the subcommand ran, such as a
nudged singular phase or the phi^2 N warning of oracle-report, in the order
raised, each message once, also printed on stderr.  Each subcommand returns
its columns; the renderer makes each cell one text carrying its separator,
joins them into one string per _BLOCK_ROWS rows and streams the strings to
--out or stdout, which receive the same bytes.  Floats print as their repr:
one sort of a float64 block finds its distinct values, each formatted once
unless more than half are distinct (then in row order), by one orjson call
where its text equals repr, at magnitudes in [1e-4, 1e16); outside that
band repr switches to exponent form, and orjson writes NaN and +-inf as
null, so those values go through repr one by one.
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


#: kinds of config value; an enumerated key's kind is the tuple of its values
FLOAT, TEXT, FLOATS, FLOATS1 = "float", "text", "float list", "non-empty float list"
COUNT, COUNT0, COUNTS1 = "count >= 1", "count >= 0", "non-empty count list"

#: subcommand -> key -> (kind, default), in the order the metadata echoes
#: them.  plan's None defaults come from the material's preset.
KEYS = {
    "fig3": {
        "i0": (FLOAT, 1e11), "d": (FLOAT, 40.0), "eta": (FLOAT, 0.32), "n_atoms": (COUNT, 6e10),
        "x_t": (FLOATS1, (0.0, math.pi / 8, math.pi / 4, math.pi / 2)),
        "grid_points": (COUNT, 21), "jx_mode": (("exact", "shortcut"), "shortcut"),
    },
    "fig4": {
        "eta_points": (COUNT, 200), "eta_max": (FLOAT, 0.8),
        "reidc_d": (FLOATS, (10.0, 40.0)), "alkali_d": (FLOATS, (16.0, 51.0, 75.0)),
        "grid_d": (FLOATS, tuple(float(x) for x in range(4, 101, 4))),
    },
    "table1": {"materials": (TEXT, "")},
    "oracle-report": {
        "offsets": (FLOATS, (0.0,)), "n_atoms": (COUNTS1, DEFAULT_GRID["n_atoms"]),
        "i0": (FLOATS1, DEFAULT_GRID["i0"]), "product": (FLOATS1, DEFAULT_GRID["product"]),
        "x_t": (FLOATS1, DEFAULT_GRID["x_t"]),
    },
    "sample": {
        "n_atoms": (COUNT, 400), "i0": (FLOAT, 100.0), "x_t": (FLOAT, math.pi / 4),
        "phi": (FLOAT, 7.07e-3), "n_samples": (COUNT0, 1000),
        "method": (("exact", "second_order"), "second_order"),
    },
    "plan": {
        "material": (TEXT, "eu"), "materials": (TEXT, ""),
        "d": (FLOAT, None), "mode_area": (FLOAT, None), "eta": (FLOAT, None),
    },
}


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


def read_config(parser: configparser.ConfigParser, command: str) -> tuple:
    """(values, echo) of every ``KEYS[command]`` key, read before the
    subcommand runs.

    A key takes its value from the subcommand's section, else from
    [DEFAULT], which reaches every subcommand whether or not its section
    exists, else its default.  A key of the section that the subcommand
    does not know ([DEFAULT]'s are exempt), a value that does not parse or
    fit its kind, and an empty non-empty list raise ConfigError.  Lists are
    tuples in ``values`` and lists in ``echo``; a count is an int in
    ``values`` and echoed as read.
    """
    keys, defaults = KEYS[command], parser.defaults()
    section = dict(parser[command] if parser.has_section(command) else defaults)
    if unknown := [key for key in section if key not in keys and key not in defaults]:
        raise ConfigError(
            f"config [{command}]: unknown key(s) {', '.join(unknown)} (keys: {', '.join(keys)})"
        )
    values, echo = {}, {}
    for key, (kind, default) in keys.items():
        where, raw = f"config [{command}] {key}", section.get(key)
        value = default if raw is None else _parse(where, kind, raw)
        echo[key] = list(value) if isinstance(value, tuple) else value
        if isinstance(kind, tuple) and value not in kind:
            raise _not_one_of(where, value, kind)
        if kind in (FLOATS1, COUNTS1) and not value:
            raise ConfigError(f"{where}: the list is empty")
        if kind in (COUNT, COUNT0):
            value = _count(where, value, minimum=0 if kind == COUNT0 else 1)
        elif kind == COUNTS1:
            value = tuple(_count(where, n, minimum=1) for n in value)
        values[key] = value
    return values, echo


def _parse(where: str, kind, raw: str):
    try:
        if kind in (FLOATS, FLOATS1, COUNTS1):
            return tuple(float(tok) for tok in raw.replace(",", " ").split())
        return raw if kind == TEXT or isinstance(kind, tuple) else float(raw)
    except ValueError as exc:
        raise ConfigError(f"{where} = {raw!r}: {exc}") from exc


def _count(where: str, value, minimum: int) -> int:
    """``value`` as an int, if it is a whole number >= minimum."""
    if not (value >= minimum and float(value).is_integer()):
        raise ConfigError(f"{where} = {value!r}: not a whole number >= {minimum}")
    return int(value)


def _not_one_of(where: str, value, allowed) -> ConfigError:
    return ConfigError(f"{where} = {value!r}: not one of {sorted(allowed)}")


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


def _cell_texts(values, cell, suffix: str) -> list:
    """``cell(v) + suffix`` for each value of a column.

    A float64 array is keyed by bit pattern, so 0.0 and -0.0 never share a
    text: one sort of its int64 view finds the distinct patterns, each
    formatted once and mapped to its rows by ``searchsorted``, unless more
    than half the values are distinct, when the array is formatted in row
    order.  One ``orjson.dumps`` call (Ryu shortest round trip, ~40 ns a
    value against ~0.8 us for ``float.__repr__``) writes text equal to repr
    for magnitudes in [1e-4, 1e16).  Outside that band repr switches to
    exponent form (``1e+16``, ``2e-06``) and orjson writes NaN and +-inf as
    ``null``, so those values, and +-0.0, go through ``cell``.  Other values
    are keyed by (type, value), so 0, 0.0 and False never share a text;
    floats outside float64 arrays are formatted cell by cell.
    """
    if isinstance(values, np.ndarray) and values.dtype == np.float64:
        import orjson  # imported here so that only rendering loads it

        bits = np.sort(values.view(np.int64))
        keys = np.concatenate((bits[:1], bits[1:][bits[1:] != bits[:-1]]))
        in_rows = 2 * keys.size > values.size
        # orjson takes C-contiguous arrays only, and sample's columns are strided
        floats = np.ascontiguousarray(values) if in_rows else keys.view(np.float64)
        text = orjson.dumps(floats, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1]
        # each "," becomes suffix and a NUL, which no number's text holds
        texts = text.replace(b",", (suffix + "\0").encode()).decode().split("\0")
        texts[-1] += suffix
        magnitude = np.abs(floats)
        outside = np.flatnonzero(~((magnitude >= 1e-4) & (magnitude < 1e16)))
        for i, v in zip(outside.tolist(), floats[outside].tolist()):
            texts[i] = cell(v) + suffix
        if in_rows:
            return texts
        return np.array(texts, dtype=object)[keys.searchsorted(values.view(np.int64))].tolist()
    cache: dict = {}
    out = []
    for v in values:
        key = (type(v), v)
        if isinstance(v, float) or key not in cache:
            cache[key] = cell(v) + suffix
        out.append(cache[key])
    return out


def _text_blocks(columns: dict, cell, sep: str, end: str):
    """Yield the rows of ``columns`` as one list of text pieces per _BLOCK_ROWS
    rows: a piece per cell, all but the last ending in ``sep``, then ``end``."""
    n_rows = len(next(iter(columns.values()), ()))
    if any(len(col) != n_rows for col in columns.values()):
        raise ValueError("columns of unequal length")
    width = len(columns) + 1
    suffixes = [sep] * (width - 2) + [""]
    for start in range(0, n_rows, _BLOCK_ROWS):
        n = min(_BLOCK_ROWS, n_rows - start)
        pieces = [end] * (width * n)
        for j, (col, suffix) in enumerate(zip(columns.values(), suffixes)):
            pieces[j::width] = _cell_texts(col[start:start + n], cell, suffix)
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


def cmd_fig3(values: dict, meta: dict) -> tuple:
    """Grid of conditional xi^2 over outcomes, mean +/- 1 std per axis."""
    i0, n_atoms, x_t_list = values["i0"], values["n_atoms"], values["x_t"]
    grid_points = values["grid_points"]
    phi = phi_from_eta_d(values["eta"], values["d"], n_atoms, i0)
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
        columns["xi_sq"][rows] = xi_closed_form_array(ens, probe, out, jx_mode=values["jx_mode"])
    meta["phi"] = phi
    return columns, meta, EXIT_OK


def cmd_fig4(values: dict, meta: dict) -> tuple:
    """xi'^2 vs eta curves for both noise models, plus a 2-D (d, eta) grid."""
    eta_points, eta_max = values["eta_points"], values["eta_max"]
    etas = _linspace(eta_max / eta_points, eta_max, eta_points)
    curves = [
        (name, d, model)
        for name, key, model in (
            ("reidc", "reidc_d", REIDC), ("alkali", "alkali_d", ALKALI),
            ("reidc2d", "grid_d", REIDC),
        )
        for d in values[key]
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
    return columns, meta, EXIT_OK


#: CSV column -> PlanResult field where the two names differ (table1, plan)
_PLAN_FIELDS = {
    "material": "name", "d": "optical_depth", "eta_opt": "eta",
    "sigma_cm2": "sigma", "length_cm": "length",
}


def _plan_columns(results, names) -> dict:
    return {c: [getattr(r, _PLAN_FIELDS.get(c, c)) for r in results] for c in names}


def _materials(command: str, path: str) -> dict:
    """``load_materials`` of the ``materials`` file ``path`` of ``command``
    (the shipped presets when it is empty); a file that cannot be read or
    holds invalid presets is a ConfigError."""
    try:
        return load_materials(path or None)
    except (OSError, configparser.Error, ValueError) as exc:
        raise ConfigError(f"config [{command}] materials = {path!r}: {exc}") from exc


def cmd_table1(values: dict, meta: dict) -> tuple:
    names = (
        "material", "d", "eta_opt", "sigma_cm2", "n_atoms", "i0",
        "detuning_over_gamma", "xi_prime_sq", "xi_prime_db",
    )
    columns = _plan_columns(table1(_materials("table1", values["materials"])), names)
    return columns, meta, EXIT_OK


def cmd_oracle_report(values: dict, meta: dict) -> tuple:
    """Oracle vs closed-form sweep; exit 4 when the flat gate fails."""
    offsets = [o for o in values["offsets"] if o]
    offset_pairs = sorted({(0, 0)} | {(o, 0) for o in offsets} | {(0, o) for o in offsets})
    report = compare_report(grid={key: values[key] for key in DEFAULT_GRID}, offsets=offset_pairs)
    names = (
        "n_atoms", "i0", "product", "x_t", "offset_alpha", "offset_beta",
        "i_alpha", "i_beta", "xi_oracle", "xi_closed", "rel_err",
    )
    columns = {c: [r[c] for r in report["rows"]] for c in names}
    # the fixed gate and <Jx> mode take part in every run, so they are echoed
    meta = {"gate": GATE, **meta, "jx_mode": "exact"}
    meta.update((k, report[k]) for k in ("max_rel_err", "pass_flat_gate", "pass_adaptive_gate"))
    return columns, meta, EXIT_OK if report["pass_flat_gate"] else EXIT_GATE


def cmd_sample(values: dict, meta: dict, seed: int) -> tuple:
    ens = EnsembleSpec(n_atoms=values["n_atoms"], phi=values["phi"])
    probe = ProbeConfig(i0=values["i0"], x_t=values["x_t"])
    table = conditional_xi_distribution(
        ens, probe, values["n_samples"], seed=seed, method=values["method"]
    )
    columns = dict(zip(("i_alpha", "i_beta", "xi_sq"), table.rows.T))
    meta.update(seed=seed, rng_algorithm=RNG_ALGORITHM)
    for q, v in table.quantiles.items():
        meta[f"xi_sq_q{int(q * 100)}"] = v
    return columns, meta, EXIT_OK


def cmd_plan(values: dict, meta: dict) -> tuple:
    """One material's plan; d and mode_area default to its preset, eta to
    eta_optimal(d), each echoed in its place."""
    presets = _materials("plan", values["materials"])
    if values["material"] not in presets:
        raise _not_one_of("config [plan] material", values["material"], presets)
    mat, geom = presets[values["material"]]
    if values["d"] is None:
        values["d"] = meta["d"] = geom.optical_depth
    if values["mode_area"] is None:
        values["mode_area"] = meta["mode_area"] = geom.mode_area
    geom = GeometrySpec(mode_area=values["mode_area"], optical_depth=values["d"])
    if values["eta"] is None:
        values["eta"] = meta["eta"] = eta_optimal(values["d"], REIDC)
    names = (
        "material", "d", "eta", "sigma_cm2", "length_cm", "n_atoms", "i0",
        "detuning_over_gamma", "xi_prime_sq", "xi_prime_db", "flagged",
    )
    columns = _plan_columns([plan(mat, geom, values["eta"])], names)
    return columns, meta, EXIT_OK


#: subcommand -> handler(values, meta, args).  The lambdas look the handlers
#: up when called, so a wrapper bound over ``cli.cmd_*`` (a tracer) sees the call.
_COMMANDS = {
    "fig3": lambda values, meta, args: cmd_fig3(values, meta),
    "fig4": lambda values, meta, args: cmd_fig4(values, meta),
    "table1": lambda values, meta, args: cmd_table1(values, meta),
    "oracle-report": lambda values, meta, args: cmd_oracle_report(values, meta),
    "sample": lambda values, meta, args: cmd_sample(values, meta, args.seed),
    "plan": lambda values, meta, args: cmd_plan(values, meta),
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
        values, meta = read_config(_load_config(args.config), args.command)
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                columns, meta, code = _COMMANDS[args.command](values, meta, args)
        except (ValueError, ArithmeticError, MemoryError) as exc:
            print(f"numeric error: {str(exc) or type(exc).__name__}", file=sys.stderr)
            return EXIT_NUMERIC
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
