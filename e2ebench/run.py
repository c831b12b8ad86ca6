"""End-to-end benchmark of the AnyOpt reproduction.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload campaign-paper --seed 7 --seconds 20 --trace 0

Workloads: ``campaign-paper`` (discover -> audit -> size frontier ->
snapshot -> validate on the Table 1 testbed), ``catchment-population``
(catchment maps and mean RTTs over ~14k targets) and ``serve-paper``
(open-loop HTTP load on ``anyopt serve``).  The seed makes the inputs.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
workload twice, untraced and then with every layer's entry points
wrapped in spans, and prints the per-layer metrics plus the tracing
overhead; the spans are written to ``e2ebench/out/``.  Human-readable
lines come first; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import importlib
import json
import os
import sys
import time

from common import (
    END_TO_END,
    EXACT_COUNTERS,
    OUT_DIR,
    PER_LAYER,
    attribution,
    check_repeatable,
    layer_metrics,
)
from spans import NullRecorder, SpanRecorder, instrument, uninstrument

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

WORKLOADS = {
    "campaign-paper": "campaign",
    "catchment-population": "population",
    "serve-paper": "serve",
}


def _traced(module, workload, seed, seconds):
    prepared = module.prepare(seed)
    base = module.run(seed, seconds, NullRecorder(), prepared, fixed_work=True)
    recorder = SpanRecorder()
    patches = instrument(recorder)
    start = time.perf_counter()
    try:
        with recorder.span("run"):
            outcome = module.run(seed, seconds, recorder, prepared, fixed_work=True)
    finally:
        # Timed apart from the spans, so the attribution can be checked.
        wall = time.perf_counter() - start
        uninstrument(patches)
    recorder.write(os.path.join(OUT_DIR, f"spans-{workload}.npz"))

    summary = recorder.summary()
    layers = layer_metrics({**summary, **outcome.extra_spans}, outcome.layers)
    layers["obs.trace_overhead_frac"] = outcome.overhead_basis / base.overhead_basis - 1.0
    table = attribution(summary)
    attributed = sum(table.values())
    layers["trace.wall_s"] = wall
    layers["trace.remainder_s"] = table.get("remainder", 0.0)

    print(f"self time per layer, traced pass ({len(recorder.arrays()[0])} spans):")
    for layer, self_s in sorted(table.items(), key=lambda kv: -kv[1]):
        if self_s > 0:
            print(f"  {layer:<16} {self_s:10.3f} s  {100 * self_s / wall:5.1f}%")
    print(f"  {'wall':<16} {wall:10.3f} s")
    if outcome.extra_spans:
        print("server process spans:")
        for name, row in sorted(outcome.extra_spans.items()):
            print(f"  {name:<24} {row['calls']:8d} calls  {row['self_s']:8.3f} s self")
    negative = sorted(name for name, row in summary.items() if row["self_s"] < 0)
    outcome.check(
        "layer self times plus remainder add up to the wall time",
        abs(attributed - wall) <= 1e-3 * wall and not negative,
        f"{attributed:.6f} s vs {wall:.6f} s, negative self time: {negative}",
    )
    outcome.check(
        "untraced and traced passes give identical outputs",
        base.fingerprint == outcome.fingerprint,
        f"{base.fingerprint} vs {outcome.fingerprint}",
    )
    differ = {
        name: (base.layers[name], outcome.layers[name])
        for name in EXACT_COUNTERS
        if name in base.layers and base.layers[name] != outcome.layers.get(name)
    }
    outcome.check(
        "untraced and traced passes count the same work", not differ, f"differ: {differ}"
    )
    counters = {name: layers[name] for name in EXACT_COUNTERS}
    counters.update(
        (name, value) for name, (value, _) in outcome.report.items()
        if name.startswith("discover.")
    )
    check_repeatable(
        outcome, f"{workload} work counters", f"seed {seed}, {seconds:g} s", counters
    )
    outcome.checks = [
        (f"untraced pass: {name}", ok, detail) for name, ok, detail in base.checks
    ] + outcome.checks
    return outcome, layers, PER_LAYER


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"error: no program to benchmark: {src}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    module = importlib.import_module(WORKLOADS[args.workload])

    if args.trace:
        outcome, values, units = _traced(module, args.workload, args.seed, args.seconds)
    else:
        prepared = module.prepare(args.seed)
        outcome = module.run(args.seed, args.seconds, NullRecorder(), prepared)
        values, units = outcome.metrics, END_TO_END

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, (value, unit) in outcome.report.items():
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"  {name:<28} {shown} {unit}")
    for name, ok, detail in outcome.checks:
        print(f"  check {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    correct = all(ok for _, ok, _ in outcome.checks)
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
