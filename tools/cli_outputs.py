"""Write the default-config output of every spinsq subcommand to a directory.

    python3 tools/cli_outputs.py OUTDIR [--src SRC]

For each of the six subcommands, OUTDIR gets ``<command>.csv`` and
``<command>.json``: what ``spinsq <command>`` prints to stdout with no config
file, seed 0 and that format.  It also gets ``fig3_101_exact.csv`` and
``.json``: the default four-phase ``fig3`` (two of its phases are singular and
get nudged) on a 101x101 outcome grid with ``jx_mode = exact``, and
``oracle_report_i0_1e4.csv`` and ``.json``: ``oracle-report`` at the oracle's
I0 cap, I0 = 1e4 with N = 30 and 2000, on the mean outcome and +1 sigma on
either mode, which takes the exact kernel to arguments near 1e9, and
``plan_d_1p5.csv`` and ``.json``: ``plan`` at optical depth 1.5, at most 2,
so ``eta_optimal`` returns the lower end eta = 1e-9 and the row is flagged,
and ``sample_exact.csv`` and ``.json``: the default ``sample`` with
``method = exact`` and 200 draws, which the exact oracle evaluates in
several blocks, and ``sample_10000.csv`` and
``.json``: the default ``sample`` with 10,000 draws, whose columns are strided
views of one table and span three render blocks, and ``fig3_i0_1e16.csv``
and ``.json``: the default ``fig3`` at I0 = 1e16 on a 21x21 grid, whose
``i_alpha`` cells (~4e16) and nudged ``x_t = 2e-06`` lie outside the band
[1e-4, 1e16) where the renderer's fast float text equals repr, on both
sides, and ``oracle_report_pm1.csv`` and ``.json``: ``oracle-report`` with
``offsets = 1 -1``, five outcomes per default grid point (270 rows), so that
the exact oracle sees repeated readings of both modes in one call and
reaches its J_0 branch; it exits 4 on the flat gate, and
``sample_experiment.csv`` and ``.json``: ``sample`` at experiment scale,
N = 6e10 and I0 = 1e11 with 200 draws, whose Poisson means (~2e11) take
the sampler far above the desk-scale runs, and ``plan_mode_area_1e-200.csv``
and ``.json``: ``plan`` at a mode area of 1e-200 cm^2, where N ~ 9e-186 and
N^2 would underflow, so I0 and the detuning must come from the identities
I0 = eta d N / 2 and dw/G = 2 d, and ``sample_default_section.csv`` and
``.json``: ``sample`` with ``n_samples = 5`` under [DEFAULT] in a file
with no [sample] section, which the key still reaches, and
``plan_pr_overrides.csv`` and ``.json``: ``plan`` for ``material = pr``
with ``d``, ``mode_area`` and ``eta`` set in place of the preset's, and
``fig3_typo_numeric.csv`` and ``.json``: ``fig3`` with an unknown key and
``i0 = -1``, refused as a configuration error (exit 2) before the
numeric one is met, with empty output, and ``sample_i0_1e16.csv`` and
``.json``: ``sample`` at I0 = 1e16 and phi = 1e-9 (eta d = 8) with 200
draws, whose counts (~2e16) are all distinct and all outside [1e-4, 1e16),
so the renderer formats them in row order and each through repr, with its
cell separator appended.  ``exit_codes.txt`` lists
each run's exit code, and ``stderr.txt`` each line that a run wrote to
stderr, as ``<stem>.<format>: <line>``.

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

#: extra runs: file stem -> (subcommand, INI config text)
EXTRA_RUNS = {
    "fig3_101_exact": ("fig3", "[fig3]\ngrid_points = 101\njx_mode = exact\n"),
    "oracle_report_i0_1e4": (
        "oracle-report",
        "[oracle-report]\nn_atoms = 30 2000\ni0 = 10000\noffsets = 1\n",
    ),
    "plan_d_1p5": ("plan", "[plan]\nd = 1.5\n"),
    "sample_exact": ("sample", "[sample]\nmethod = exact\nn_samples = 200\n"),
    "sample_10000": ("sample", "[sample]\nn_samples = 10000\n"),
    "fig3_i0_1e16": ("fig3", "[fig3]\ni0 = 1e16\ngrid_points = 21\n"),
    "oracle_report_pm1": ("oracle-report", "[oracle-report]\noffsets = 1 -1\n"),
    "sample_experiment": (
        "sample",
        "[sample]\nn_atoms = 60000000000\ni0 = 1e11\nphi = 3.265986323710904e-11\n"
        "n_samples = 200\n",
    ),
    "plan_mode_area_1e-200": ("plan", "[plan]\nmode_area = 1e-200\n"),
    "sample_default_section": ("sample", "[DEFAULT]\nn_samples = 5\n"),
    "plan_pr_overrides": (
        "plan", "[plan]\nmaterial = pr\nd = 25\nmode_area = 2e-4\neta = 0.3\n"
    ),
    "fig3_typo_numeric": ("fig3", "[fig3]\ni0 = -1\ntypo_key = 1\n"),
    "sample_i0_1e16": ("sample", "[sample]\ni0 = 1e16\nphi = 1e-9\nn_samples = 200\n"),
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
    runs += [(stem, command, config) for stem, (command, config) in EXTRA_RUNS.items()]
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
