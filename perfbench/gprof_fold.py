"""Fold a gprof flat profile of the -pg benchmark build into per-layer numbers.

Self time is attributed to the simulator module named by the leftmost
``cloudburst::<module>::`` in each demangled function name. That puts a
``des::EventFn`` thunk under ``des`` even when the lambda it invokes belongs to
another module, and a standard-library template instantiated on a module's
type (``std::__adjust_heap<...des::Simulator::QueueEntry...>``) under that
module. Samples in the executable outside the measured modules (the engine,
apps, common, cost, the benchmark's own code) are ``unmeasured``; CPU time the
profiler could not sample because it ran outside the executable (libc,
libstdc++, the kernel) is ``other``.

Exact counts come from the mcount call counts of named public functions.
"""

import re
import subprocess

MEASURED_LAYERS = (
    "des", "net", "middleware", "storage", "cache", "qos", "replica",
    "workload", "directory", "chaos", "trace", "cluster",
)

# metric -> demangled-name prefixes whose call counts are summed.
COUNTED_CALLS = {
    "des.events_scheduled": ("cloudburst::des::Simulator::schedule_at(",),
    "des.events_cancelled": ("cloudburst::des::EventHandle::cancel(",),
    "net.flows_started": ("cloudburst::net::Network::start_flow(",),
    "net.flows_cancelled": ("cloudburst::net::Network::cancel_flow(",),
    "net.link_factor_changes": ("cloudburst::net::Network::set_link_capacity_factor(",),
    "replica.route_calls": ("cloudburst::replica::ReplicaSet::resolve(",),
    "trace.records": ("cloudburst::trace::Tracer::record(",),
}

_MODULE = re.compile(r"cloudburst::(\w+)::")
# "%time cumulative self [calls self/call total/call] name"
_ROW = re.compile(
    r"^\s*[\d.]+\s+[\d.]+\s+(?P<self>[\d.]+)\s+"
    r"(?:(?P<calls>\d+)\s+[\d.]+\s+[\d.]+\s+)?(?P<name>\S.*)$")


def flat_profile(binary, gmon):
    """[(name, self_seconds, calls or None)] from ``gprof -b -p``."""
    out = subprocess.run(["gprof", "-b", "-p", binary, gmon], check=True,
                         capture_output=True, text=True).stdout
    rows = []
    for line in out.splitlines():
        m = _ROW.match(line)
        if m:
            calls = m.group("calls")
            rows.append((m.group("name").strip(), float(m.group("self")),
                         int(calls) if calls is not None else None))
    if not rows:
        raise RuntimeError("gprof printed no flat profile for " + gmon)
    return rows


def layer_of(name):
    m = _MODULE.search(name)
    if m and m.group(1) in MEASURED_LAYERS:
        return m.group(1)
    return "unmeasured"


def fold(rows):
    """Per-layer self seconds, the sampled total, and the named call counts."""
    self_s = {layer: 0.0 for layer in MEASURED_LAYERS + ("unmeasured",)}
    counts = {metric: 0 for metric in COUNTED_CALLS}
    sampled = 0.0
    for name, seconds, calls in rows:
        self_s[layer_of(name)] += seconds
        sampled += seconds
        for metric, prefixes in COUNTED_CALLS.items():
            if calls is not None and name.startswith(prefixes):
                counts[metric] += calls
    return self_s, sampled, counts
