"""Shared pieces of the end-to-end benchmark: results, checks,
statistics and the per-layer metric table."""

import hashlib
import json
import os
import resource
import time
from dataclasses import dataclass, field
from statistics import median  # noqa: F401  (the workloads' one median)
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Everything a run writes (span files, snapshots, repeat records)
#: lands here.
OUT_DIR = os.path.join(HERE, "out")

#: The testbed each workload runs on -- the synthetic Internet, the
#: sites and the ping-target hitlist -- is built from this fixed seed;
#: ``--seed`` drives everything the operator and the users bring: the
#: campaign's measurement noise, the configurations deployed and the
#: request mix.  A fixed testbed keeps the work of one run the same
#: from seed to seed, so the run-to-run spread is the host's.
TESTBED_SEED = 7

#: The end-to-end metrics every workload reports, with their units.
#: What each one means on each workload is in NOTES.md.
END_TO_END = {
    "setup_s": "s",
    "latency_ms": "ms",
    "rss_mb": "MB",
}

#: The per-layer metrics every traced run reports, with their units.
#: A layer a workload does not run reports 0.
PER_LAYER = {
    "topology.build_s": "s",
    "bgp.converge.calls": "count",
    "bgp.converge.self_s": "s",
    "bgp.events": "count",
    "bgp.cache_hit_ratio": "ratio",
    "util.rng.derive.calls": "count",
    "util.rng.derive.self_s": "s",
    "measurement.deployments": "count",
    "measurement.deploy.self_s": "s",
    "measurement.forward.calls": "count",
    "measurement.forward.self_s": "s",
    "measurement.catchment.self_s": "s",
    "measurement.rtt.calls": "count",
    "measurement.rtt.self_s": "s",
    "runtime.tasks": "count",
    "runtime.retries": "count",
    "runtime.task.self_s": "s",
    "core.preferences.self_s": "s",
    "core.predict.self_s": "s",
    "core.predict.accuracy": "ratio",
    "core.optimizer.order_s": "s",
    "core.optimizer.instance_s": "s",
    "core.optimizer.self_s": "s",
    "splpo.solve.self_s": "s",
    "splpo.evaluations": "count",
    "splpo.optimum_rtt_ms": "ms",
    "audit.self_s": "s",
    "audit.findings": "count",
    "serve.snapshot.compile_s": "s",
    "serve.snapshot.load_s": "s",
    "serve.lookup.predict.calls": "count",
    "serve.lookup.miss_ratio": "ratio",
    "serve.lookup.arrays.self_s": "s",
    "serve.http.requests": "count",
    "serve.http.status.2xx": "count",
    "serve.http.status.4xx": "count",
    "serve.http.status.429": "count",
    "serve.http.status.5xx": "count",
    "serve.http.cpu_ms_per_req": "ms",
    "serve.http.bytes_per_resp": "bytes",
    "serve.http.generator_late_ms": "ms",
    "serve.http.spans_retained": "count",
    "obs.trace_overhead_frac": "ratio",
    "trace.wall_s": "s",
    "trace.remainder_s": "s",
}

#: Per-layer counts of work that follow from the seed (and, on
#: serve-paper, ``--seconds``) alone, never from the host.  A traced
#: run checks that they repeat.  Deployments and executor tasks are two
#: counters: discover deploys 71 configurations through 43 tasks.
EXACT_COUNTERS = (
    "measurement.deployments",
    "runtime.tasks",
    "runtime.retries",
    "bgp.converge.calls",
    "bgp.events",
    "util.rng.derive.calls",
    "measurement.forward.calls",
    "measurement.rtt.calls",
    "splpo.evaluations",
    "audit.findings",
    "serve.lookup.predict.calls",
    "serve.http.requests",
    "serve.http.spans_retained",
)

#: Span name -> layer, for the attribution table.  Spans the benchmark
#: opens itself (``run``, ``phase.*``) fall into the remainder.
LAYER_OF_SPAN = {
    "topology.build": "topology",
    "bgp.converge": "bgp",
    "util.rng.derive": "util.rng",
    "measurement.deploy": "measurement",
    "measurement.forward": "measurement",
    "measurement.catchment": "measurement",
    "measurement.rtt": "measurement",
    "runtime.task": "runtime",
    "core.preferences": "core",
    "core.predict": "core",
    "core.optimizer.search": "core",
    "core.optimizer.order": "core",
    "core.optimizer.instance": "core",
    "splpo.solve": "splpo",
    "audit": "audit",
    "serve.snapshot.compile": "serve.snapshot",
    "serve.snapshot.write": "serve.snapshot",
    "serve.snapshot.load": "serve.snapshot",
    "serve.lookup.predict": "serve.lookup",
    "serve.lookup.arrays": "serve.lookup",
}


@dataclass
class Outcome:
    """What one pass of a workload measured."""

    #: End-to-end metric values (keys of END_TO_END).
    metrics: Dict[str, float]
    attempted: int
    failed: int
    #: Named values printed for people, e.g. ``discover_s``.
    report: Dict[str, tuple] = field(default_factory=dict)
    #: Per-layer values the workload measures itself (not from spans).
    layers: Dict[str, float] = field(default_factory=dict)
    #: The quantity the tracing overhead is judged on.
    overhead_basis: float = 0.0
    #: A digest of the outputs, compared across passes of one seed.
    fingerprint: str = ""
    #: Span summaries recorded in other processes (the server).
    extra_spans: Dict[str, dict] = field(default_factory=dict)
    checks: List[tuple] = field(default_factory=list)

    def check(self, name, ok, detail=""):
        self.checks.append((name, bool(ok), detail))


def timed_setup(setup, times):
    """Run ``setup()``, append its duration to ``times`` and return
    its result."""
    start = time.perf_counter()
    result = setup()
    times.append(time.perf_counter() - start)
    return result


def peak_rss_mb():
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(obj):
    """A stable digest of a JSON-able value."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


def program_digest():
    """A digest of the program under test: every ``src/repro`` source
    file, by path and content."""
    src = os.path.join(ROOT, "src", "repro")
    h = hashlib.blake2b(digest_size=8)
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def check_repeatable(outcome, what, key, value):
    """Compare ``value`` with what an earlier run of the same program
    recorded for ``what`` under ``key`` (say, the seed), recording it
    if new.  The key includes :func:`program_digest`, so a change to
    the program starts a new record instead of failing the check."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "repeats.json")
    try:
        with open(path) as fh:
            known = json.load(fh)
    except (OSError, ValueError):
        known = {}
    full_key = f"{what}:{key}:{program_digest()}"
    previous = known.get(full_key)
    if previous is None:
        known[full_key] = value
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(known, fh, indent=1, sort_keys=True)
        os.replace(tmp, path)
    outcome.check(
        f"{what} repeats across runs of {key}",
        previous in (None, value),
        f"{value} (earlier run: {previous or 'none yet'})",
    )


def campaign_counters(anyopt):
    """Per-layer values a campaign's own metrics registry counts."""
    counters = anyopt.metrics.snapshot()["counters"]
    hits = counters.get("convergence_cache_hits", 0)
    lookups = hits + counters.get("convergence_cache_misses", 0)
    return {
        "bgp.events": counters.get("convergence_events", 0),
        "bgp.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "runtime.retries": counters.get("retries", 0),
    }


def layer_metrics(summary, measured):
    """The uniform per-layer dict from a span summary and the
    workload's own measurements (zeros elsewhere)."""

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def self_s(*names):
        return sum(summary.get(n, {}).get("self_s", 0.0) for n in names)

    def total_s(name):
        return summary.get(name, {}).get("total_s", 0.0)

    def per_call(name):
        n = calls(name)
        return self_s(name) / n if n else 0.0

    predict_calls = calls("serve.lookup.predict")
    values = {
        "topology.build_s": per_call("topology.build"),
        "bgp.converge.calls": calls("bgp.converge"),
        "bgp.converge.self_s": self_s("bgp.converge"),
        "util.rng.derive.calls": calls("util.rng.derive"),
        "util.rng.derive.self_s": self_s("util.rng.derive"),
        "measurement.deployments": calls("measurement.deploy"),
        "measurement.deploy.self_s": self_s("measurement.deploy"),
        "measurement.forward.calls": calls("measurement.forward"),
        "measurement.forward.self_s": self_s("measurement.forward"),
        "measurement.catchment.self_s": self_s("measurement.catchment"),
        "measurement.rtt.calls": calls("measurement.rtt"),
        "measurement.rtt.self_s": self_s("measurement.rtt"),
        "runtime.tasks": calls("runtime.task"),
        "runtime.task.self_s": self_s("runtime.task"),
        "core.preferences.self_s": self_s("core.preferences"),
        "core.predict.self_s": self_s("core.predict"),
        "core.optimizer.order_s": total_s("core.optimizer.order"),
        "core.optimizer.instance_s": total_s("core.optimizer.instance"),
        "core.optimizer.self_s": self_s(
            "core.optimizer.search", "core.optimizer.order", "core.optimizer.instance"
        ),
        "splpo.solve.self_s": self_s("splpo.solve"),
        "audit.self_s": self_s("audit"),
        "serve.snapshot.compile_s": per_call("serve.snapshot.compile"),
        "serve.snapshot.load_s": per_call("serve.snapshot.load"),
        "serve.lookup.predict.calls": predict_calls,
        "serve.lookup.miss_ratio": (
            calls("serve.lookup.arrays") / predict_calls if predict_calls else 0.0
        ),
        "serve.lookup.arrays.self_s": self_s("serve.lookup.arrays"),
    }
    values.update(measured)
    return {name: values.get(name, 0) for name in PER_LAYER}


def attribution(summary):
    """Self seconds per layer; spans of no layer go to ``remainder``."""
    table: Dict[str, float] = {}
    for name, row in summary.items():
        layer = LAYER_OF_SPAN.get(name, "remainder")
        table[layer] = table.get(layer, 0.0) + row["self_s"]
    return table
