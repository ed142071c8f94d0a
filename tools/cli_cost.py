"""Time each spinsq subcommand's default run in fresh processes.

    python3 tools/cli_cost.py [--src SRC]

Each of the six subcommands runs with no config file and seed 0, as the
``spinsq`` console script runs it, in 5 fresh Python processes; a seventh row,
``import``, only imports ``spinsq.cli``.  The rounds take the rows in turn, so
a slow spell of the host spreads over all of them.  For each row the script
prints the median wall time of a process (interpreter start, imports, the run
and the output written to /dev/null) and the median of its peak resident set
size, from ``os.wait4`` (Linux reports it in KiB).

The package is imported from SRC, by default the ``src/`` directory of the
checkout this script sits in.  Comparing two versions is then two runs on
the same host::

    python3 tools/cli_cost.py --src /path/to/other/checkout/src
    python3 tools/cli_cost.py
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from cli_outputs import COMMANDS

#: fresh processes per row
RUNS = 5

#: row -> Python source run by ``python -c``; argv[1:] is passed to main
PROGRAMS = {
    "import": "import spinsq.cli",
    **{
        command: "import sys; from spinsq.cli import main; sys.exit(main(sys.argv[1:]))"
        for command in COMMANDS
    },
}


def run_once(row: str, env: dict) -> tuple:
    """(wall seconds, peak RSS in MiB) of one fresh process running ``row``."""
    argv = [sys.executable, "-c", PROGRAMS[row]]
    if row in COMMANDS:
        argv += ["--seed", "0", row]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"{row} exited {proc.returncode}")
    return wall, usage.ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--src", type=Path, default=Path(__file__).resolve().parent.parent / "src",
        help="directory that holds the spinsq package (default: this checkout's src/)",
    )
    args = parser.parse_args(argv)
    env = {**os.environ, "PYTHONPATH": str(args.src.resolve())}

    samples: dict = {row: [] for row in PROGRAMS}
    for _ in range(RUNS):
        for row in PROGRAMS:
            samples[row].append(run_once(row, env))

    print(f"{'command':<14} {'wall_s':>7} {'peak_rss_mib':>12}")
    for row, runs in samples.items():
        wall = statistics.median(w for w, _ in runs)
        rss = statistics.median(r for _, r in runs)
        print(f"{row:<14} {wall:7.3f} {rss:12.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
