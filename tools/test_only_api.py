#!/usr/bin/env python3
"""List the src/ functions that no production entry point runs.

    python3 tools/test_only_api.py --build BUILD --run
    python3 tools/test_only_api.py --build BUILD [--list]
    python3 tools/test_only_api.py --self-test

BUILD is a build of this tree with coverage counters:

    cmake -S . -B build/coverage -DCMAKE_BUILD_TYPE=Release \\
      -DCMAKE_CXX_FLAGS='--coverage -fprofile-update=atomic' \\
      -DCMAKE_CXX_FLAGS_RELEASE='-O1 -DNDEBUG' \\
      -DCMAKE_EXE_LINKER_FLAGS=--coverage
    cmake --build build/coverage -j

`--run` deletes BUILD's counts and runs the production entry points
(production_run below): every bench, the tool, fabric and example
ctests, ltc-sweep, a trace-directory sweep, a warm cell-cache sweep
and ltcsim once per predictor. ltc_tests never runs. The script then
reads `gcov --json-format` for every object in BUILD. Test objects
count too: a header-inline member that only tests call is emitted
only there, and shows up as a function that never ran. A function
ran if any of its instantiations ran in any object.

A src/ function that never ran is code only tests reach, and should
be deleted or moved under tests/, unless tools/test_only_api.allow
names it with a reason. The allow-list holds reason headings (a line
ending in ':') over indented `FILE NAME` entries, both fnmatch
patterns: FILE is the repo-relative path, NAME the demangled name
without template arguments, parameters or return type (for example
`src/cache/cache.hh ltc::Cache::auditInvariants`). No line numbers,
so the list survives edits.

Exit status is 1 when a never-run src/ function matches no entry, or
an entry matches no never-run function (a stale entry), and 0
otherwise. `--list` also prints every never-run function.

Blind spot: GCC 12 inlines small functions into their callers before
it instruments them, so gcov has no record of any member defined on
one line, nor of small ones such as DramModel::latency(). Find those
with grep.

`--self-test` runs the analysis over the canned gcov JSON in
tools/test_only_api_fixtures/ (ctest: tool.test_only_api.selftest).
"""

import argparse
import fnmatch
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

# Operator names hold characters that delimit template arguments and
# parameter lists, so they are set aside before those are stripped.
OPERATOR = re.compile(
    r"\boperator(?:\(\)|\[\]|<=>|<<=|>>=|<<|>>|->\*|->|&&|\|\||\+\+|--"
    r"|[-+*/%^&|~!=<>,]=?|\s+[A-Za-z_][\w:]*)")
# cv/ref qualifiers of a function, also of an enclosing one:
# f() const::{lambda()#1}::operator()() const.
QUALIFIERS = re.compile(
    r"(?:\s+(?:const|volatile|&&|&|noexcept))+(?=::|$)")


def strip_groups(text, open_ch, close_ch):
    """Remove every balanced open_ch...close_ch group from text."""
    out, depth = [], 0
    for ch in text:
        if ch == open_ch:
            depth += 1
        elif ch == close_ch and depth:
            depth -= 1
        elif not depth:
            out.append(ch)
    return "".join(out)


def simple_name(demangled):
    """The demangled name without template arguments, parameters,
    qualifiers or return type: every instantiation of one function
    maps to the same name."""
    s = demangled.replace("(anonymous namespace)", "{anonymous}")
    s = re.sub(r" \[clone [^\]]*\]|\[abi:\w+\]", "", s)
    ops = []

    def keep(m):
        ops.append(m.group(0))
        return f"\x00{len(ops) - 1}\x00"

    s = OPERATOR.sub(keep, s)
    s = strip_groups(strip_groups(s, "<", ">"), "(", ")")
    s = QUALIFIERS.sub("", s.strip()).split()[-1]
    return re.sub(r"\x00(\d+)\x00", lambda m: ops[int(m.group(1))], s)


def read_functions(docs, root):
    """Map (file, line, name) -> ran over the src/ functions of the gcov
    JSON documents @docs, one per object. @root is the source root."""
    functions = {}
    for doc in docs:
        cwd = doc.get("current_working_directory", "")
        for entry in doc["files"]:
            path = os.path.normpath(os.path.join(cwd, entry["file"]))
            rel = os.path.relpath(path, root)
            if not rel.startswith("src" + os.sep):
                continue
            rel = rel.replace(os.sep, "/")
            for fn in entry["functions"]:
                key = (rel, fn["start_line"],
                       simple_name(fn["demangled_name"]))
                ran = fn["execution_count"] > 0
                functions[key] = functions.get(key, False) or ran
    return functions


class AllowListError(Exception):
    pass


def read_allow_list(text):
    """Entries (line number, file pattern, name pattern, reason)."""
    entries, reason = [], None
    for number, line in enumerate(text.splitlines(), 1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if not line[0].isspace():
            if not line.rstrip().endswith(":"):
                raise AllowListError(
                    f"line {number}: a reason heading ends in ':'")
            reason = line.rstrip()[:-1].strip()
            continue
        fields = line.split()
        if reason is None or len(fields) != 2:
            raise AllowListError(
                f"line {number}: expected an indented 'FILE NAME' "
                "entry under a reason heading")
        entries.append((number, fields[0], fields[1], reason))
    return entries


def check(functions, entries):
    """(never-run functions with the entry allowing each or None,
    stale entries). Both sorted, so the output depends on nothing but
    the inputs' contents."""
    never = sorted(k for k, ran in functions.items() if not ran)
    used = set()
    report = []
    for path, line, name in never:
        allowed = None
        for entry in entries:
            if fnmatch.fnmatchcase(path, entry[1]) and \
                    fnmatch.fnmatchcase(name, entry[2]):
                allowed = entry
                used.add(entry[0])
                break
        report.append(((path, line, name), allowed))
    stale = [e for e in entries if e[0] not in used]
    return report, stale


def problems(report, stale):
    out = [f"{path}:{line}: {name} runs in no production entry point "
           "and is not allow-listed"
           for (path, line, name), allowed in report if allowed is None]
    out += [f"allow-list line {number}: '{path} {name}' matches no "
            "never-run function (stale)"
            for number, path, name, _ in stale]
    return out


# ------------------------------------------------------------ gcov

def gcov_docs(build):
    """One gcov JSON document per object under @build."""
    build = Path(build).resolve()
    notes = sorted(str(p) for p in build.rglob("*.gcno"))
    if not notes:
        raise SystemExit(f"test_only_api: no .gcno files under {build}; "
                         "configure it with --coverage")
    out = subprocess.run(["gcov", "--json-format", "--stdout"] + notes,
                         cwd=build, check=True, capture_output=True,
                         text=True).stdout
    return [json.loads(line) for line in out.splitlines() if line.strip()]


# --------------------------------------------------- production run

QUICK = {"LTC_WORKLOADS": "quick", "LTC_REFS": "100k"}
FIXTURES = ("trace:strided_scan,trace:pointer_chase,trace:interleave,"
            "trace:tree_walk")


def production_run(build, root):
    """Every production entry point, never ltc_tests."""
    build, root = Path(build).resolve(), Path(root).resolve()

    def run(*argv, **env):
        print("+", " ".join(f"{k}={v}" for k, v in env.items()),
              " ".join(argv), flush=True)
        subprocess.run(list(argv), cwd=build, check=True,
                       stdout=subprocess.DEVNULL,
                       env={**os.environ, **env})

    # Start from zero counts and cold cell caches, the ctests' too: a
    # warm cache skips the simulations, and the multi-process claims.
    for note in build.rglob("*.gcda"):
        note.unlink()
    ctests = json.loads(subprocess.run(
        ["ctest", "--show-only=json-v1"], cwd=build, check=True,
        capture_output=True, text=True).stdout)["tests"]
    caches = {"gate_cache"}
    for test in ctests:
        argv = test.get("command", [])
        caches.update(value for flag, value in zip(argv, argv[1:])
                      if flag == "--cell-cache")
    for cache in caches:
        shutil.rmtree(build / cache, ignore_errors=True)
    for bench in sorted(p.stem for p in (root / "bench").glob("*.cc")):
        run(f"./{bench}", "--json", f"gate_{bench}.json",
            "--csv", f"gate_{bench}.csv", **QUICK)
    run("ctest", "-R", r"^(tool|fabric|example)\.", "-j4",
        "--output-on-failure")
    run("./fig8_coverage", "--trace-dir", str(root / "tests" / "data"),
        LTC_WORKLOADS=FIXTURES)
    run("./fig8_coverage", "--cell-cache", "gate_cache", **QUICK)
    run("./fig8_coverage", "--cell-cache", "gate_cache",
        LTC_CELL_STATS="1", **QUICK)
    for command in ("info", "verify", "gc", "clear"):
        run("./ltc-sweep", command, "gate_cache")
    listing = subprocess.run(["./ltcsim", "--list"], cwd=build,
                             check=True, capture_output=True,
                             text=True).stdout
    predictors = listing.split("predictors:")[1].split("\n\n")[0].split()
    for pred in predictors:
        run("./ltcsim", "--workload", "mcf", "--refs", "100k",
            "--predictor", pred)


# -------------------------------------------------------- self-test

def self_test(fixtures):
    """Canned gcov JSON for two objects of a tree rooted at /work:

    - ltc::Ring::push has two instantiations, and only one ran, in
      object b only: it ran.
    - ltc::Ring::drop ran in no object (two instantiations) and is not
      allow-listed: reported once, under one name.
    - ltc::Ring::audit never ran and is allow-listed.
    - the entry for ltc::Ring::gone matches nothing: stale.

    The result must not depend on the order of the objects or of the
    instantiations within them.
    """
    docs = [json.loads((fixtures / name).read_text())
            for name in ("a.gcov.json", "b.gcov.json")]
    entries = read_allow_list((fixtures / "allow.txt").read_text())
    want = [
        "src/ring.hh:12: ltc::Ring::drop runs in no production entry "
        "point and is not allow-listed",
        "allow-list line 5: 'src/ring.hh ltc::Ring::gone' matches no "
        "never-run function (stale)",
    ]
    failures = []
    reversed_docs = []
    for doc in reversed(docs):
        doc = json.loads(json.dumps(doc))
        for entry in doc["files"]:
            entry["functions"].reverse()
        reversed_docs.append(doc)
    for label, order in (("a, b", docs), ("b, a reversed", reversed_docs)):
        got = problems(*check(read_functions(order, "/work"), entries))
        if got != want:
            failures.append(f"objects {label}: expected {want}, got {got}")
    for demangled, name in (
            ("void ltc::RefPuller::forEach<ltc::X>(ltc::TraceSource&, "
             "unsigned long, ltc::X&&)", "ltc::RefPuller::forEach"),
            ("ltc::MemRef::operator==(ltc::MemRef const&) const",
             "ltc::MemRef::operator=="),
            ("ltc::(anonymous namespace)::run(int)::{lambda(int)#1}::"
             "operator()(int) const",
             "ltc::{anonymous}::run::{lambda#1}::operator()"),
            ("ltc::Cache::audit() const::{lambda(unsigned long)#1}::"
             "operator()(unsigned long) const",
             "ltc::Cache::audit::{lambda#1}::operator()"),
            ("ltc::Src::name[abi:cxx11]() const", "ltc::Src::name")):
        if simple_name(demangled) != name:
            failures.append(f"simple_name({demangled!r}) = "
                            f"{simple_name(demangled)!r}, want {name!r}")
    for f in failures:
        print(f"self-test FAIL: {f}", file=sys.stderr)
    if not failures:
        print("self-test OK")
    return 1 if failures else 0


def main():
    here = Path(__file__).resolve().parent
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--build", help="coverage build directory")
    ap.add_argument("--run", action="store_true",
                    help="run the production entry points first")
    ap.add_argument("--list", action="store_true",
                    help="print every never-run function")
    ap.add_argument("--self-test", action="store_true",
                    help="check the analysis against the fixtures")
    args = ap.parse_args()
    if args.self_test:
        return self_test(here / "test_only_api_fixtures")
    if not args.build:
        ap.error("--build is required")
    allow = here / "test_only_api.allow"
    try:
        entries = read_allow_list(allow.read_text())
    except AllowListError as err:
        print(f"test_only_api: {allow}: {err}", file=sys.stderr)
        return 2
    root = here.parent
    if args.run:
        production_run(args.build, root)
    functions = read_functions(gcov_docs(args.build), str(root))
    report, stale = check(functions, entries)
    if args.list:
        for (path, line, name), allowed in report:
            reason = allowed[3] if allowed else "NOT ALLOW-LISTED"
            print(f"{path}:{line}: {name}  [{reason}]")
    found = problems(report, stale)
    for p in found:
        print(f"test_only_api: {p}", file=sys.stderr)
    print(f"test_only_api: {len(functions)} src/ functions, "
          f"{len(report)} never run, "
          f"{sum(1 for _, a in report if a)} allow-listed")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
