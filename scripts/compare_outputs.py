"""Compare two experiment output trees file by file.

    python scripts/compare_outputs.py OLD NEW

OLD and NEW are directories, such as two ``--out`` directories of the same
CLI experiment or two parents of several.  For every CSV file the script
prints how many cells differ and the largest absolute difference between
cells that both parse as numbers; every other file is compared byte for
byte.  A file present on one side only, or CSVs of different shapes, count
as differences.  The exit code is 0 when the trees are identical and 1 on
any difference.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys


def _files(root):
    """Paths of every file under ``root``, relative to it."""
    return {os.path.relpath(os.path.join(d, f), root)
            for d, _, files in os.walk(root) for f in files}


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def compare_csv(old, new):
    """``(cells that differ, largest absolute difference between differing
    cells that are both numbers, note)``; the note is set when the two
    tables differ in shape."""
    a, b = _read_csv(old), _read_csv(new)
    if [len(row) for row in a] != [len(row) for row in b]:
        return None, None, f"shape differs ({len(a)} vs {len(b)} rows)"
    changed, worst = 0, 0.0
    for row_a, row_b in zip(a, b):
        for x, y in zip(row_a, row_b):
            if x == y:
                continue
            changed += 1
            fx, fy = _number(x), _number(y)
            if fx is not None and fy is not None:
                worst = max(worst, abs(fx - fy))
    return changed, worst, None


def compare_trees(old_root, new_root):
    """Print one line per file and return the number of files that differ."""
    old_files, new_files = _files(old_root), _files(new_root)
    differing = 0
    for rel in sorted(old_files | new_files):
        if rel not in new_files or rel not in old_files:
            side = "OLD" if rel in old_files else "NEW"
            print(f"{rel}: only in {side}")
            differing += 1
            continue
        old, new = os.path.join(old_root, rel), os.path.join(new_root, rel)
        if rel.endswith(".csv"):
            changed, worst, note = compare_csv(old, new)
            if note:
                print(f"{rel}: {note}")
            else:
                print(f"{rel}: {changed} cells differ, "
                      f"max abs diff {worst:.3g}")
            differing += bool(note or changed)
        else:
            with open(old, "rb") as fa, open(new, "rb") as fb:
                same = fa.read() == fb.read()
            print(f"{rel}: {'identical' if same else 'bytes differ'}")
            differing += not same
    print(f"{differing} of {len(old_files | new_files)} files differ")
    return differing


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", metavar="OLD")
    parser.add_argument("new", metavar="NEW")
    args = parser.parse_args(argv)
    for root in (args.old, args.new):
        if not os.path.isdir(root):
            parser.error(f"not a directory: {root}")
    return 1 if compare_trees(args.old, args.new) else 0


if __name__ == "__main__":
    sys.exit(main())
