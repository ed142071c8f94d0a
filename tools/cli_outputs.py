"""Write what each spinsq subcommand and each pinned run prints to a directory.

    python3 tools/cli_outputs.py OUTDIR [--src SRC]

For each subcommand in ``COMMANDS``, OUTDIR gets ``<command>.csv`` and
``<command>.json``: what ``spinsq <command>`` prints to stdout with no config
file, seed 0 and that format.  For each entry of ``EXTRA_RUNS`` it gets
``<stem>.csv`` and ``<stem>.json`` from the same run with that config file;
the entry also names the exit code the run is expected to give and what it
pins.  ``exit_codes.txt`` lists each run's exit code, and ``stderr.txt`` each
line that a run wrote to stderr, as ``<stem>.<format>: <line>``.

The package is imported from SRC, by default the ``src/`` directory of the
checkout this script sits in.  Comparing two versions of the output is
then two runs and a diff::

    python3 tools/cli_outputs.py --src /path/to/other/checkout/src before
    python3 tools/cli_outputs.py after
    diff -r before after

and ``tools/compare_outputs.py before after`` says which cells moved, and
how far, when they are not byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
import tempfile
from pathlib import Path

COMMANDS = ("fig3", "fig4", "table1", "oracle-report", "sample", "plan")

#: extra runs: file stem -> (subcommand, INI config text, expected exit code, what it pins)
EXTRA_RUNS = {
    "fig3_101_exact": ("fig3", "[fig3]\ngrid_points = 101\njx_mode = exact\n", 0,
                       "the default phases, two nudged off singular ones, 101x101, exact <Jx>"),
    "oracle_report_i0_1e4": (
        "oracle-report", "[oracle-report]\nn_atoms = 30 2000\ni0 = 10000\noffsets = 1\n", 0,
        "the oracle's I0 cap at the mean and +1 sigma: kernel arguments near 1e9",
    ),
    "plan_d_1p5": ("plan", "[plan]\nd = 1.5\n", 0,
                   "d <= 2: eta_optimal returns its lower end eta = 1e-9 and flags the row"),
    "sample_exact": ("sample", "[sample]\nmethod = exact\nn_samples = 200\n", 0,
                     "exact-oracle sampling over several oracle_xi blocks"),
    "sample_10000": ("sample", "[sample]\nn_samples = 10000\n", 0,
                     "strided column views of one table over three render blocks"),
    "fig3_i0_1e16": ("fig3", "[fig3]\ni0 = 1e16\ngrid_points = 21\n", 0,
                     "cells (~4e16, the nudged 2e-06) outside the fast float band [1e-4, 1e16)"),
    "oracle_report_pm1": ("oracle-report", "[oracle-report]\noffsets = 1 -1\n", 4,
                          "repeated readings in one oracle call, the J_0 branch; gate fails"),
    "sample_experiment": (
        "sample", "[sample]\nn_atoms = 60000000000\ni0 = 1e11\nphi = 3.265986323710904e-11\n"
        "n_samples = 200\n", 0, "Poisson means of ~2e11 at experiment scale",
    ),
    "plan_mode_area_1e-200": ("plan", "[plan]\nmode_area = 1e-200\n", 0,
                              "N ~ 9e-186, N^2 underflows: I0 = eta d N / 2, dw/G = 2 d"),
    "sample_default_section": ("sample", "[DEFAULT]\nn_samples = 5\n", 0,
                               "a [DEFAULT] key reaches a subcommand with no section"),
    "plan_pr_overrides": ("plan", "[plan]\nmaterial = pr\nd = 25\nmode_area = 2e-4\neta = 0.3\n",
                          0, "d, mode_area and eta set in place of the pr preset's"),
    "fig3_typo_numeric": ("fig3", "[fig3]\ni0 = -1\ntypo_key = 1\n", 2,
                          "an unknown key refused (empty output) before the numeric error"),
    "sample_i0_1e16": ("sample", "[sample]\ni0 = 1e16\nphi = 1e-9\nn_samples = 200\n", 0,
                       "all-distinct counts (~2e16) outside [1e-4, 1e16): row-order repr"),
    "fig3_grid_points_1": ("fig3", "[fig3]\ngrid_points = 1\n", 0,
                           "one row per phase at the mean outcome: xi^2 = 1/(1 + eta d)"),
}


def run(cli, argv) -> tuple:
    """(exit code, stdout text, stderr text) of one in-process ``spinsq`` run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("outdir", type=Path)
    parser.add_argument(
        "--src", type=Path, default=Path(__file__).resolve().parent.parent / "src",
        help="directory that holds the spinsq package (default: this checkout's src/)",
    )
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    from spinsq import cli

    args.outdir.mkdir(parents=True, exist_ok=True)
    runs = [(command, command, None) for command in COMMANDS]
    runs += [(stem, command, config) for stem, (command, config, _, _) in EXTRA_RUNS.items()]
    codes, errs = [], []
    with tempfile.TemporaryDirectory() as tmp:
        for stem, command, config in runs:
            options = []
            if config is not None:
                ini = Path(tmp) / f"{stem}.ini"
                ini.write_text(config)
                options = ["--config", str(ini)]
            for fmt in ("csv", "json"):
                code, text, err = run(cli, options + ["--seed", "0", "--format", fmt, command])
                (args.outdir / f"{stem}.{fmt}").write_text(text)
                codes.append(f"{stem}.{fmt} {code}\n")
                errs += [f"{stem}.{fmt}: {line}\n" for line in err.splitlines()]
    (args.outdir / "exit_codes.txt").write_text("".join(codes))
    (args.outdir / "stderr.txt").write_text("".join(errs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
