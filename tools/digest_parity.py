#!/usr/bin/env python3
"""Compare the per-cell digests of two steady-state benchmark reports.

    python3 tools/digest_parity.py BASE_REPORT HEAD_REPORT

Each report is the standard output of `python3 perfbench/run.py` for
the same workload and seed. Its cells table ends every row with the
cell's digest, an FNV-1a hash over every simulated statistic of the
cell (perfbench/README.md). A change that must leave simulated
results byte-identical (a speed-only or simplicity change) keeps
every digest; this script checks that. It exits 0 when both reports
list the same cells with the same digests, and 1 otherwise, naming
each cell whose digest differs or that only one report lists. An
unreadable report, or one without a cells table, exits 2.

`--self-test` runs the comparison over the fixture reports in
tools/digest_parity_fixtures/ (ctest: tool.digest_parity.selftest):
a matching pair must pass, and a differing pair must name exactly
its changed and missing cells.
"""

import argparse
import re
import sys
from pathlib import Path

ROW = re.compile(r"^\s+(\S+)\s.*\s([0-9a-f]{16})\s*$")


class ReportError(Exception):
    pass


def read_digests(path):
    """Map cell label -> digest from the cells table of report @path."""
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as err:
        raise ReportError(f"{path}: {err.strerror}") from err
    for i, line in enumerate(lines):
        if line.startswith("cells (") and i + 1 < len(lines) and \
                lines[i + 1].split()[-1:] == ["digest"]:
            break
    else:
        raise ReportError(f"{path}: no cells table with a digest column")
    digests = {}
    for line in lines[i + 2:]:
        m = ROW.match(line)
        if not m:
            break
        digests[m.group(1)] = m.group(2)
    if not digests:
        raise ReportError(f"{path}: the cells table lists no cells")
    return digests


def compare(base, head):
    """Problems between two label -> digest maps, one line each."""
    problems = []
    for cell in sorted(base.keys() | head.keys()):
        if cell not in head:
            problems.append(f"{cell}: missing from the head report")
        elif cell not in base:
            problems.append(f"{cell}: missing from the base report")
        elif base[cell] != head[cell]:
            problems.append(f"{cell}: digest differs "
                            f"(base {base[cell]}, head {head[cell]})")
    return problems


def self_test(fixtures):
    failures = []
    base = read_digests(fixtures / "base.txt")
    got = compare(base, read_digests(fixtures / "match.txt"))
    if got:
        failures.append(f"match.txt: expected no problems, got {got}")
    got = [p.split(":")[0] for p in
           compare(base, read_digests(fixtures / "differ.txt"))]
    want = ["timing/lt-cords/em3d", "timing/lt-cords/mcf"]
    if got != want:
        failures.append(f"differ.txt: expected {want} named, got {got}")
    for f in failures:
        print(f"self-test FAIL: {f}", file=sys.stderr)
    if not failures:
        print("self-test OK")
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("base", nargs="?", help="report of the base commit")
    ap.add_argument("head", nargs="?", help="report of the change")
    ap.add_argument("--self-test", action="store_true",
                    help="check the comparison against the fixtures")
    args = ap.parse_args()
    try:
        if args.self_test:
            return self_test(
                Path(__file__).resolve().parent /
                "digest_parity_fixtures")
        if not args.base or not args.head:
            ap.error("BASE_REPORT and HEAD_REPORT are required")
        base = read_digests(args.base)
        head = read_digests(args.head)
    except ReportError as err:
        print(f"digest_parity: {err}", file=sys.stderr)
        return 2
    problems = compare(base, head)
    for p in problems:
        print(f"digest_parity: {p}", file=sys.stderr)
    if problems:
        return 1
    print(f"digest_parity: {len(base)} cell digests match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
