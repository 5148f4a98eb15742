#!/usr/bin/env python3
"""Golden-output check for the bench and example binaries.

Usage:
    tools/check_golden.py NAME BINARY [--update]
    tools/check_golden.py --list

Runs BINARY once per invocation declared for NAME in INVOCATIONS below,
each in a fresh scratch working directory (several benches write
BENCH_*.json into their working directory), masks the volatile lines
declared in VOLATILE and diffs the rest of stdout against the committed
golden file. Exits non-zero on any difference or on a failed run.

--update rewrites the golden files from the current binary. A golden
changes only in a change that lists the changed lines and their reason in
CHANGES.md. --list prints the names that have goldens (one ctest entry is
registered per name).
"""

import argparse
import difflib
import pathlib
import re
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
TEXT = {"encoding": "utf-8", "errors": "surrogateescape"}

# Every bench and example binary is one source file of the same name.
BENCHES = sorted(p.stem for p in (ROOT / "bench").glob("*.cpp")
                 if p.stem != "api_comparison")  # Google Benchmark wall clock
EXAMPLES = sorted(p.stem for p in (ROOT / "examples").glob("*.cpp"))

# name -> [(golden file relative to the repo root, arguments)]. Benches run
# with no arguments (perf_engine on its quick fleet); examples with their
# defaults plus the invocations listed here.
INVOCATIONS = {name: [(f"bench/golden/{name}.txt", [])] for name in BENCHES}
INVOCATIONS["perf_engine"] = [("bench/golden/perf_engine.txt", ["--quick"])]
INVOCATIONS.update({name: [(f"examples/golden/{name}.txt", [])] for name in EXAMPLES})
# A relative dir keeps the dataset, and the path it prints, inside the
# scratch working directory.
INVOCATIONS["data_organizer"] = [("examples/golden/data_organizer.txt", ["dir=dataset"])]
INVOCATIONS["multi_cloud_burst"].append(
    ("examples/golden/multi_cloud_burst.skewed.txt", ["local_weight=0", "wan_mbps=1"]))
INVOCATIONS["cloudburst_sim"] += [
    ("examples/golden/cloudburst_sim.elastic.txt", ["elastic_deadline=30"]),
    ("examples/golden/cloudburst_sim.fail.txt",
     ["fail_cloud_node=0", "fail_at=5", "tree=false"]),
    ("examples/golden/cloudburst_sim.gantt.txt", ["gantt=1"]),
]

# The only lines allowed to differ between runs: (names, pattern,
# replacement), applied in order to every output line. Everything else in
# the output is deterministic and must match byte for byte.
VOLATILE = [
    # perf_engine: host timing rows. Their width can change the table's
    # column padding, so its padding and rules are collapsed too.
    (("perf_engine",), r"^\| (wall clock|events/sec|peak RSS) .*", r"| \1 | # |"),
    (("perf_engine",), r" {2,}", " "),
    (("perf_engine",), r"-{2,}", "-"),
    # Examples: wall-clock milliseconds of the shared-memory engines.
    (("quickstart", "pagerank_webgraph", "data_organizer"), r"[0-9.]+ ms\b", "# ms"),
    # pagerank_webgraph: the threaded MapReduce run's peak live pairs and
    # the floating-point sum order of the threaded GR/MR comparison.
    (("pagerank_webgraph",), r"peak [0-9]+ live pairs", "peak # live pairs"),
    (("pagerank_webgraph",), r"(max rank difference between the two:) .*", r"\1 #"),
]


def mask(name, text):
    rules = [(re.compile(p), r) for names, p, r in VOLATILE if name in names]
    lines = []
    for line in text.splitlines(keepends=True):
        for pattern, repl in rules:
            line = pattern.sub(repl, line)
        lines.append(line)
    return "".join(lines)


def run(binary, args):
    binary = str(pathlib.Path(binary).resolve())
    with tempfile.TemporaryDirectory(prefix="golden-") as cwd:
        proc = subprocess.run([binary, *args], cwd=cwd, capture_output=True,
                              timeout=600, **TEXT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{binary} {' '.join(args)}: exit code {proc.returncode}")
    return proc.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("name", nargs="?")
    parser.add_argument("binary", nargs="?")
    parser.add_argument("--update", action="store_true")
    parser.add_argument("--list", action="store_true")
    opts = parser.parse_args()
    sys.stdout.reconfigure(errors="backslashreplace")
    if opts.list:
        print(";".join(sorted(INVOCATIONS)))
        return 0
    if opts.name not in INVOCATIONS or not opts.binary:
        parser.error("NAME must be one of --list, followed by its BINARY")

    failed = False
    for golden_rel, args in INVOCATIONS[opts.name]:
        golden = ROOT / golden_rel
        actual = mask(opts.name, run(opts.binary, args))
        if opts.update:
            golden.parent.mkdir(parents=True, exist_ok=True)
            golden.write_text(actual, **TEXT)
            print(f"wrote {golden_rel}")
            continue
        expected = golden.read_text(**TEXT) if golden.exists() else ""
        if actual == expected:
            print(f"ok {golden_rel}")
            continue
        failed = True
        print(f"MISMATCH {golden_rel} ({opts.name} {' '.join(args)})")
        sys.stdout.writelines(difflib.unified_diff(
            expected.splitlines(keepends=True), actual.splitlines(keepends=True),
            fromfile=golden_rel, tofile="actual"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
