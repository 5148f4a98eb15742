#!/usr/bin/env python3
"""Repository benchmark: builds the simulator from source, runs one workload,
checks its simulated outputs and prints the metrics as JSON.

    python3 perfbench/run.py --workload fleet|paper|full_stack --seed N \
        --seconds S --trace 0|1 [--write-pins]

--trace 0 prints the end-to-end metrics, measured on a plain Release build.
--trace 1 prints the per-layer metrics: one plain run, then two runs of a -pg
build doing the same number of reps, folded by gprof_fold.py. Its exact
counts must repeat across the two traced runs. --write-pins records this
build's outputs at the given seed in pins.json. The last stdout line is the
result; the line before it records the build's provenance.
See README.md for the workloads and metrics.
"""

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import gprof_fold

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
PINS = HERE / "pins.json"
WORKLOADS = ("fleet", "paper", "full_stack")
# Timed set-ups per run: set-up is milliseconds, so the median needs many.
SETUP_REPS = {"fleet": 100, "paper": 300, "full_stack": 100}
# Pinned values are compared to this relative precision: tight enough that
# any behaviour change shows, loose enough for the last printed digit.
PIN_RTOL = 1e-9
CHILD_TIMEOUT_S = 170


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(tree, extra_flags):
    """Configure (once) and build one tree; returns (binary, cache vars)."""
    build_dir = BUILD / tree
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release", *extra_flags]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        quiet(cmd, "configure " + tree)
    quiet(["cmake", "--build", str(build_dir), "-j", str(os.cpu_count() or 1)],
          "build " + tree)
    cache = {}
    for line in (build_dir / "CMakeCache.txt").read_text().splitlines():
        key, sep, value = line.partition("=")
        if sep and not line.startswith(("#", "//")):
            cache[key.split(":")[0]] = value
    return build_dir / "perfbench_workloads", cache


def quiet(cmd, what):
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        die(what + " failed")


def run_workload(binary, args, cwd):
    """Runs the workload binary; returns (its JSON document, CPU seconds)."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.Popen([str(binary), *args], cwd=cwd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        die("workload run timed out")
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0:
        sys.stderr.write(err)
        die("workload run exited with %d" % proc.returncode)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return json.loads(out.strip().splitlines()[-1]), cpu


# --- correctness ---------------------------------------------------------------

def values_match(got, pinned):
    return got.keys() == pinned.keys() and all(
        math.isclose(got[k], pinned[k], rel_tol=PIN_RTOL, abs_tol=PIN_RTOL)
        for k in pinned)


def is_summary(name):
    """Rows named "workload" (or "<plan>/workload") hold workload-level outputs."""
    return name.rsplit("/", 1)[-1] == "workload"


def check(docs, pins):
    """Counts simulated jobs (ops) and the failed ones over every rep.

    A job fails if it did not finish, broke an invariant, or (when `pins` is
    given) produced other values than pinned. If a summary row fails, every
    job of its rep fails.
    """
    attempted = failed = 0
    problems = []

    def row_ok(rows, name):
        row = rows.get(name)
        if row is None:
            problems.append(name + ": missing")
            return False
        ok = row["finished"] and row["invariants_ok"]
        if pins is not None and not values_match(row["values"], pins[name]):
            problems.append(name + ": outputs differ from pins.json")
            ok = False
        elif not ok:
            problems.append("%s: %s" % (name, row["detail"] or "did not finish"))
        return ok

    for doc in docs:
        for rep in doc["runs"]:
            rows = {row["name"]: row for row in rep["jobs"]}
            names = list(pins) if pins is not None else list(rows)
            rep_ok = all([row_ok(rows, n) for n in names if is_summary(n)])
            for name in names:
                if not is_summary(name):
                    attempted += 1
                    failed += not (row_ok(rows, name) and rep_ok)
    for problem in sorted(set(problems)):
        print("perfbench: failed op " + problem, file=sys.stderr)
    return attempted, failed


def load_pins(workload, seed):
    if not PINS.exists():
        return None
    pins = json.loads(PINS.read_text())
    return pins["workloads"].get(workload) if pins["seed"] == seed else None


def write_pins(workload, seed, doc):
    pins = json.loads(PINS.read_text()) if PINS.exists() else {"seed": seed, "workloads": {}}
    if pins["seed"] != seed:
        die("pins.json holds seed %d" % pins["seed"])
    pins["workloads"][workload] = {
        row["name"]: row["values"] for row in doc["runs"][0]["jobs"]}
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


# --- metrics -------------------------------------------------------------------

def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(doc):
    run_s = statistics.median([rep["run_s"] for rep in doc["runs"]])
    return {
        "run_s": metric(run_s, "s"),
        "run_rel": metric(statistics.median(
            [rep["run_s"] / rep["slice_s"] for rep in doc["runs"] if rep["slice_s"] > 0]),
            "ratio"),
        "setup_s": metric(statistics.median([s["total_s"] for s in doc["setups"]]), "s"),
        "chunks_per_s": metric(doc["chunks_per_rep"] / run_s, "1/s"),
        "peak_rss_mib": metric(doc["peak_rss_mib"], "MiB"),
    }


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def per_layer(plain, traced):
    """Per-rep layer metrics from the plain run and the folded traced runs."""
    reps = len(traced[0]["doc"]["runs"])
    counters = {}
    for rep in traced[0]["doc"]["runs"]:
        for key, value in rep["counters"].items():
            counters[key] = counters.get(key, 0.0) + value / reps
    counts = {key: value / reps for key, value in traced[0]["counts"].items()}

    def self_s(layer):
        return statistics.mean(t["self_s"][layer] for t in traced) / reps

    m = {}
    for layer in gprof_fold.MEASURED_LAYERS + ("unmeasured",):
        m[layer + ".self_s"] = metric(self_s(layer), "s")
    m["other.self_s"] = metric(
        statistics.mean(t["cpu_s"] - t["sampled_s"] for t in traced) / reps, "s")
    m["trace_overhead_s"] = metric(
        statistics.median([rep["run_s"] for t in traced for rep in t["doc"]["runs"]]) -
        statistics.median([rep["run_s"] for rep in plain["runs"]]), "s")
    for span in ("cluster.build_s", "storage.layout_s", "workload.submit_s",
                 "directory.bootstrap_s"):
        m[span] = metric(statistics.median([s[span] for s in plain["setups"]]), "s")

    units = {"net.bytes_carried": "bytes", "qos.wait_s": "sim_s",
             "workload.pool_boot_wait_s": "sim_s"}
    for key, value in sorted({**counters, **counts}.items()):
        if key == "cache.prefetches_wasted":
            continue
        m[key] = metric(value, units.get(key, "count"))

    executed = counters["des.events_executed"]
    lookups = counters["cache.hits"] + counters["cache.misses"]
    issued = counters["cache.prefetches_issued"]
    m["cache.lookups"] = metric(lookups, "count")
    m["cache.hit_ratio"] = metric(ratio(counters["cache.hits"], lookups), "ratio")
    m["cache.prefetch_useful_ratio"] = metric(
        ratio(issued - counters["cache.prefetches_wasted"], issued), "ratio")
    m["des.scheduled_per_executed"] = metric(
        ratio(counts["des.events_scheduled"], executed), "ratio")
    m["des.ns_per_event"] = metric(ratio(self_s("des") * 1e9, executed), "ns")
    m["net.ns_per_flow"] = metric(ratio(self_s("net") * 1e9, counts["net.flows_started"]), "ns")
    m["middleware.ns_per_chunk"] = metric(
        ratio(self_s("middleware") * 1e9, counters["middleware.chunks_processed"]), "ns")
    return m


def traced_pass(workload, seed, reps, binary):
    """Runs the -pg build twice with an exact rep count and folds each."""
    out = []
    for attempt in range(2):
        cwd = BUILD / "trace" / ("%s-%d" % (workload, attempt))
        shutil.rmtree(cwd, ignore_errors=True)
        cwd.mkdir(parents=True)
        doc, cpu = run_workload(binary, ["--workload", workload, "--seed", str(seed),
                                         "--reps", str(reps), "--setup-reps", "1"], cwd)
        if not doc["instrumented"]:
            die("traced pass ran an uninstrumented binary")
        self_s, sampled, counts = gprof_fold.fold(
            gprof_fold.flat_profile(str(binary), str(cwd / "gmon.out")))
        out.append({"doc": doc, "cpu_s": cpu, "self_s": self_s, "sampled_s": sampled,
                    "counts": counts})
    return out


def exact_counts(traced):
    return [dict(t["counts"], runs=[rep["counters"] for rep in t["doc"]["runs"]])
            for t in traced]


def git_sha():
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
                              capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown (not a git checkout)"


def provenance(args, doc, cache, traced_cache):
    def flags(c):
        return " ".join(filter(None, (c.get("CMAKE_CXX_FLAGS", ""),
                                      c.get("CMAKE_CXX_FLAGS_RELEASE", ""))))
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "compiler": doc["compiler"], "build_type": cache.get("CMAKE_BUILD_TYPE"),
        "cxx_flags": flags(cache), "nproc": os.cpu_count(), "git_sha": git_sha(),
        "end_to_end_from": "plain Release build (not instrumented)",
    }
    if traced_cache is not None:
        record["per_layer_from"] = "-pg build (%s -pg), folded by gprof" % flags(traced_cache)
    return {"provenance": record}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true")
    args = parser.parse_args()
    if args.seconds < 1:
        die("--seconds must be at least 1")
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        die("no simulator sources at %s" % (ROOT / "src"))

    # Both trees are built on every call (a no-op once current), so the first
    # run in a checkout pays for both builds and later runs for neither.
    binary, cache = build("release", [])
    gprof_binary, gprof_cache = build("gprof", ["-DPERFBENCH_GPROF=ON"])

    plain, _ = run_workload(binary, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--setup-reps", str(SETUP_REPS[args.workload])], ROOT)
    if plain["instrumented"]:
        die("the plain build is instrumented; refusing to report it as untraced")
    if args.write_pins:
        write_pins(args.workload, args.seed, plain)

    docs = [plain]
    traced = None
    if args.trace:
        traced = traced_pass(args.workload, args.seed, len(plain["runs"]), gprof_binary)
        docs += [t["doc"] for t in traced]
    attempted, failed = check(docs, load_pins(args.workload, args.seed))
    correct = failed == 0
    if traced is not None:
        first, second = exact_counts(traced)
        if first != second:
            print("perfbench: exact counts differ between the two traced runs",
                  file=sys.stderr)
            correct = False
        metrics = per_layer(plain, traced)
    else:
        metrics = end_to_end(plain)

    print(json.dumps(provenance(args, plain, cache, gprof_cache if traced else None)))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
