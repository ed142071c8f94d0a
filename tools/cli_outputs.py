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
``plan_d_1p5.csv`` and ``.json``: ``plan`` at optical depth 1.5, below the
d > 2 of the closed-form optimal eta, so ``eta_optimal`` searches, clamps
eta to 1e-9 and the row is flagged.  ``exit_codes.txt`` lists each run's
exit code.

The package is imported from SRC, by default the ``src/`` directory of the
checkout this script sits in, and ``SPINSQ_*`` environment variables are
ignored.  Comparing two versions of the output is then two runs and a diff::

    python3 tools/cli_outputs.py --src /path/to/other/checkout/src before
    python3 tools/cli_outputs.py after
    diff -r before after
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
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
}


def run(cli, argv) -> tuple:
    """(exit code, stdout text) of one in-process ``spinsq`` run."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("outdir", type=Path)
    parser.add_argument(
        "--src", type=Path, default=Path(__file__).resolve().parent.parent / "src",
        help="directory that holds the spinsq package (default: this checkout's src/)",
    )
    args = parser.parse_args(argv)
    for name in [k for k in os.environ if k.startswith("SPINSQ_")]:
        del os.environ[name]
    sys.path.insert(0, str(args.src.resolve()))
    from spinsq import cli

    args.outdir.mkdir(parents=True, exist_ok=True)
    runs = [(command, command, None) for command in COMMANDS]
    runs += [(stem, command, config) for stem, (command, config) in EXTRA_RUNS.items()]
    codes = []
    with tempfile.TemporaryDirectory() as tmp:
        for stem, command, config in runs:
            options = []
            if config is not None:
                ini = Path(tmp) / f"{stem}.ini"
                ini.write_text(config)
                options = ["--config", str(ini)]
            for fmt in ("csv", "json"):
                code, text = run(cli, options + ["--seed", "0", "--format", fmt, command])
                (args.outdir / f"{stem}.{fmt}").write_text(text)
                codes.append(f"{stem}.{fmt} {code}\n")
    (args.outdir / "exit_codes.txt").write_text("".join(codes))
    return 0


if __name__ == "__main__":
    sys.exit(main())
