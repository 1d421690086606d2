#!/usr/bin/env python3
"""Project lint for the LT-cords tree (ctest: lint.project).

Machine-checks the conventions the hand-optimised simulator relies on
but a compiler cannot enforce:

  hot-region    Between `LTC_HOT_BEGIN` and `LTC_HOT_END` comment
                markers (the engines' per-reference inline sections),
                hash maps (std::unordered_map/set, std::map), the
                modulo operator and `virtual` declarations are banned:
                the batched kernels were specifically rewritten to
                avoid hash probes, per-reference integer division and
                dispatch (see ARCHITECTURE.md). Markers must be
                balanced.

  registration  Every tests/*.cc must be listed in CMakeLists.txt's
                ltc_tests sources and every bench/*.cc in its
                LTC_BENCHES list — an unregistered file compiles
                nobody and silently rots.

  golden-print  Every test file that pins a golden table (a
                `k...Golden[]` array) must support regeneration via
                the LTC_GOLDEN_PRINT environment hook, so the tables
                never have to be edited by hand.

  header-guard  Every header under src/ uses an include guard derived
                from its path (src/cache/mshr.hh -> LTC_CACHE_MSHR_HH)
                so guards cannot collide as the tree grows.

  fill-only     No class under src/ overrides TraceSource::next(): a
                source defines its stream in fill() alone, and next()
                is the base class's fill() of one record, so the
                batched and one-at-a-time streams cannot differ.
                next() stays virtual for instrumenting wrappers, which
                live outside src/ (perfbench/, tests/) and are exempt.

Exit status is the number of violations (0 = clean). `--self-test`
runs the rule engine against the fixtures in tools/lint_fixtures/ and
verifies each bad fixture trips exactly the rule it is named for
(ctest: lint.selftest).
"""

import argparse
import re
import sys
from pathlib import Path


class Violation:
    def __init__(self, rule, path, line, message):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text):
    """Blank out comments and string/char literals, preserving line
    structure, so the hot-region scan only sees code."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            out.extend(ch if ch == "\n" else " " for ch in text[i:j + 2])
            i = j + 2
        elif c in "\"'":
            quote = c
            out.append(" ")
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    out.append(" ")
                    i += 1
                out.append("\n" if text[i] == "\n" else " ")
                i += 1
            out.append(" ")
            i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


# The modulo scan must not trip on '%' inside identifiers-free code
# such as '%=' (also modulo) while ignoring nothing else: after
# comment/string stripping every remaining '%' IS the operator.
HOT_BANNED = [
    (re.compile(r"std\s*::\s*unordered_(map|set)"),
     "hash container in a hot region (use the packed SoA/array forms)"),
    (re.compile(r"std\s*::\s*map\s*<"),
     "tree map in a hot region (use the packed SoA/array forms)"),
    (re.compile(r"%"),
     "modulo operator in a hot region (use masks or compare-wrap)"),
    (re.compile(r"\bvirtual\b"),
     "virtual declaration in a hot region (devirtualise the kernel)"),
]

HOT_BEGIN = "LTC_HOT_BEGIN"
HOT_END = "LTC_HOT_END"


def check_hot_regions(path, text):
    violations = []
    raw_lines = text.splitlines()
    code_lines = strip_comments_and_strings(text).splitlines()
    in_region = False
    begin_line = 0
    for lineno, (raw, code) in enumerate(zip(raw_lines, code_lines), 1):
        if HOT_BEGIN in raw:
            if in_region:
                violations.append(Violation(
                    "hot-region", path, lineno,
                    f"nested {HOT_BEGIN} (previous at line {begin_line})"))
            in_region, begin_line = True, lineno
            continue
        if HOT_END in raw:
            if not in_region:
                violations.append(Violation(
                    "hot-region", path, lineno,
                    f"{HOT_END} without {HOT_BEGIN}"))
            in_region = False
            continue
        if not in_region:
            continue
        for pattern, message in HOT_BANNED:
            if pattern.search(code):
                violations.append(
                    Violation("hot-region", path, lineno, message))
    if in_region:
        violations.append(Violation(
            "hot-region", path, begin_line,
            f"{HOT_BEGIN} never closed by {HOT_END}"))
    return violations


def check_registration(root, cmake_text):
    violations = []
    for sub, what in (("tests", "ltc_tests sources"),
                      ("bench", "LTC_BENCHES")):
        for path in sorted((root / sub).glob("*.cc")):
            rel = f"{sub}/{path.name}"
            needle = rel if sub == "tests" else path.stem
            token = re.compile(
                r"(?<![\w/])" + re.escape(needle) + r"(?![\w.])"
                if sub == "bench" else re.escape(needle))
            if not token.search(cmake_text):
                violations.append(Violation(
                    "registration", path, 1,
                    f"{rel} is not registered in CMakeLists.txt "
                    f"({what})"))
    return violations


GOLDEN_TABLE = re.compile(r"\bk\w*Golden\w*\s*\[\s*\]")


def check_golden_print(path, text):
    if GOLDEN_TABLE.search(text) and "LTC_GOLDEN_PRINT" not in text:
        return [Violation(
            "golden-print", path, 1,
            "golden table without an LTC_GOLDEN_PRINT regeneration "
            "hook")]
    return []


GUARD_IFNDEF = re.compile(r"^#ifndef\s+(\w+)\s*$", re.M)


def check_header_guard(root, path, text):
    rel = path.relative_to(root)
    expected = "LTC_" + "_".join(
        p.upper().replace(".", "_").replace("-", "_")
        for p in rel.parts[1:])
    m = GUARD_IFNDEF.search(text)
    if not m:
        return [Violation("header-guard", path, 1,
                          f"missing include guard (expected {expected})")]
    if m.group(1) != expected:
        lineno = text[:m.start()].count("\n") + 1
        return [Violation(
            "header-guard", path, lineno,
            f"guard {m.group(1)}, expected {expected} (derived from "
            "the header's path)")]
    if f"#define {m.group(1)}" not in text:
        return [Violation("header-guard", path, 1,
                          f"guard {expected} is never #defined")]
    return []


NEXT_OVERRIDE = re.compile(
    r"\bnext\s*\(\s*(?:ltc\s*::\s*)?MemRef\s*&[^)]*\)\s*"
    r"(?:const\s*)?(?:override|final)\b")


def check_fill_only(path, text):
    code = strip_comments_and_strings(text)
    return [Violation(
        "fill-only", path, code[:m.start()].count("\n") + 1,
        "next() override: define the stream in fill() only")
        for m in NEXT_OVERRIDE.finditer(code)]


def lint_tree(root):
    violations = []
    cmake = root / "CMakeLists.txt"
    violations += check_registration(root, cmake.read_text())
    for path in sorted((root / "src").rglob("*.hh")):
        text = path.read_text()
        violations += check_hot_regions(path, text)
        violations += check_header_guard(root, path, text)
        violations += check_fill_only(path, text)
    for path in sorted((root / "src").rglob("*.cc")):
        violations += check_fill_only(path, path.read_text())
    for sub in ("src", "tests", "bench", "tools", "examples"):
        for pattern in ("*.cc", "*.cpp"):
            for path in sorted((root / sub).rglob(pattern)):
                if "lint_fixtures" in path.parts: # deliberately dirty
                    continue
                violations += check_hot_regions(path, path.read_text())
    for path in sorted((root / "tests").glob("*.cc")):
        violations += check_golden_print(path, path.read_text())
    return violations


# --------------------------------------------------------- self-test
#
# Each bad fixture is named <rule>_*.bad.* and must trip exactly its
# rule; each *.good.* fixture must be clean. The fixtures double as
# executable documentation of what the rules catch.

def self_test(fixtures):
    failures = []
    cases = sorted(fixtures.iterdir())
    if not cases:
        print(f"no fixtures under {fixtures}", file=sys.stderr)
        return 1
    # The regtree/ subtree exercises the registration rule: exactly
    # the two orphan files must be flagged, the registered ones not.
    regtree = fixtures / "regtree"
    reg = check_registration(regtree,
                             (regtree / "CMakeLists.txt").read_text())
    flagged = sorted(v.path.name for v in reg)
    if flagged != ["orphan.cc", "orphan_bench.cc"]:
        failures.append(
            f"regtree: expected the two orphans flagged, got {flagged}")

    for path in cases:
        if path.name == "README.md" or path.is_dir():
            continue
        text = path.read_text()
        rules = set()
        rules.update(v.rule for v in check_hot_regions(path, text))
        rules.update(v.rule for v in check_golden_print(path, text))
        rules.update(v.rule for v in check_fill_only(path, text))
        if path.suffix == ".hh":
            # header-guard expectations are path-derived; fixtures sit
            # one level under lint_fixtures/, which stands in for src/,
            # so a fixture foo.bad.hh expects LTC_FOO_BAD_HH.
            rules.update(v.rule for v in check_header_guard(
                path.parent.parent, path, text))
        if ".bad." in path.name:
            want = path.name.split("__")[0]
            if want not in rules:
                failures.append(
                    f"{path.name}: expected [{want}], got {sorted(rules)}")
        elif ".good." in path.name:
            if rules:
                failures.append(
                    f"{path.name}: expected clean, got {sorted(rules)}")
        else:
            failures.append(f"{path.name}: not *.bad.* or *.good.*")
    for f in failures:
        print(f"self-test FAIL: {f}", file=sys.stderr)
    if not failures:
        print(f"self-test OK ({len(cases)} fixtures)")
    return len(failures)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", type=Path,
                    default=Path(__file__).resolve().parent.parent,
                    help="repository root (default: the tool's repo)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the rule engine against the fixtures")
    args = ap.parse_args()

    if args.self_test:
        return self_test(
            Path(__file__).resolve().parent / "lint_fixtures")

    violations = lint_tree(args.root)
    for v in violations:
        print(v, file=sys.stderr)
    if not violations:
        print("ltc_lint: clean")
    return min(len(violations), 120)


if __name__ == "__main__":
    sys.exit(main())
