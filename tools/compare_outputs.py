"""Compare two directories written by tools/cli_outputs.py, column by column.

    python3 tools/compare_outputs.py BEFORE AFTER

For each CSV or JSON output file it prints one line per column and one per
metadata key (``# key``): how many cells changed, out of how many, and the
largest relative change |after - before| / |before| of a changed numeric
cell.  A cell is numeric when both its texts (CSV) or values (JSON) are
finite numbers; booleans are not.  Any other file, such as
``exit_codes.txt`` or ``stderr.txt``, is compared line by line.

It exits 1 when a file is in one directory only, or a header, a row count,
a metadata key set, a non-numeric cell or a line of another file differs,
and 0 when at most numeric cells changed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path


def _read_csv(path: Path) -> tuple:
    """(metadata dict, header list, rows) of one CSV output, cells as text."""
    meta, lines = {}, []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            meta[key] = value
        elif line:
            lines.append(line)
    rows = list(csv.reader(lines))
    return meta, rows[0] if rows else [], rows[1:]


def _read_json(path: Path) -> tuple:
    doc = json.loads(path.read_text())
    return doc["metadata"], doc["columns"], doc["rows"]


def _number(cell):
    """The finite float a cell holds, or None."""
    if isinstance(cell, bool):
        return None
    if isinstance(cell, str):
        try:
            cell = float(cell)
        except ValueError:
            return None
    if isinstance(cell, (int, float)) and math.isfinite(cell):
        return float(cell)
    return None


def _compare_cells(pairs) -> tuple:
    """(cells changed, largest relative change of a numeric cell or None,
    whether a non-numeric cell changed) over (before, after) cell pairs."""
    changed, worst, fatal = 0, None, False
    for old, new in pairs:
        if old == new:
            continue
        changed += 1
        a, b = _number(old), _number(new)
        if a is None or b is None:
            fatal = True
            continue
        rel = abs(b - a) / abs(a) if a else math.inf
        worst = rel if worst is None else max(worst, rel)
    return changed, worst, fatal


def compare_table(name: str, before: Path, after: Path) -> bool:
    """Report one output file's columns and metadata keys; False on a
    structural or non-numeric difference."""
    read = _read_json if name.endswith(".json") else _read_csv
    (meta_a, head_a, rows_a), (meta_b, head_b, rows_b) = read(before), read(after)
    ok = True
    if head_a != head_b:
        print(f"{name}: header differs: {head_a} -> {head_b}")
        ok = False
    if len(rows_a) != len(rows_b):
        print(f"{name}: row count differs: {len(rows_a)} -> {len(rows_b)}")
        ok = False
    if meta_a.keys() != meta_b.keys():
        print(f"{name}: metadata keys differ: {sorted(meta_a.keys() ^ meta_b.keys())}")
        ok = False
    lines = []
    if ok:
        for j, column in enumerate(head_a):
            pairs = [(ra[j], rb[j]) for ra, rb in zip(rows_a, rows_b)]
            lines.append((column, len(pairs), _compare_cells(pairs)))
    for key in sorted(meta_a.keys() & meta_b.keys()):
        lines.append((f"# {key}", 1, _compare_cells([(meta_a[key], meta_b[key])])))
    for label, total, (changed, worst, fatal) in lines:
        rel = "-" if worst is None else f"{worst:.2g}"
        flag = "  NON-NUMERIC CHANGE" if fatal else ""
        print(f"{name:<28} {label:<20} {changed:>6} / {total:<6} max rel {rel}{flag}")
        ok = ok and not fatal
    return ok


def compare_text(name: str, before: Path, after: Path) -> bool:
    lines_a, lines_b = before.read_text().splitlines(), after.read_text().splitlines()
    if lines_a == lines_b:
        print(f"{name:<28} {'(lines)':<20} {0:>6} / {len(lines_a):<6} identical")
        return True
    print(f"{name}: lines differ")
    for old, new in zip(lines_a, lines_b):
        if old != new:
            print(f"  - {old}\n  + {new}")
    if len(lines_a) != len(lines_b):
        print(f"  line count {len(lines_a)} -> {len(lines_b)}")
    return False


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    args = parser.parse_args(argv)
    names_a = {p.name for p in args.before.iterdir() if p.is_file()}
    names_b = {p.name for p in args.after.iterdir() if p.is_file()}
    ok = names_a == names_b
    for name in sorted(names_a ^ names_b):
        print(f"{name}: only in {args.before if name in names_a else args.after}")
    for name in sorted(names_a & names_b):
        compare = compare_table if name.endswith((".csv", ".json")) else compare_text
        ok = compare(name, args.before / name, args.after / name) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
