"""Tracked BGP-engine benchmark: the repository's performance baseline.

Measures the three things the convergence fast path is accountable
for and writes them to ``BENCH_engine.json`` (committed at the repo
root, so regressions show up in review diffs):

- **engine**: repeated same-topology convergence runs through the
  shared-tables fast path versus the per-run-rebuild reference path
  (``reuse_state=False``, which also disables the precomputed tables —
  faithfully the pre-optimization engine).  Timing interleaves the two
  engines and keeps each engine's best batch, which is what makes the
  ratio stable on noisy single-core CI runners.
- **cache**: a noiseless redeploy absorbed by the convergence cache
  (hit rate and cold/warm deploy times).
- **campaign**: a small discovery campaign serial versus the
  chunked process-pool executor, asserting bit-identical models and
  recording the honest wall-clock ratio.  The pool width is clamped to
  the host's core count (never below 2, so the process path is always
  exercised and the bit-identity assertion always runs); on a host
  with fewer than 2 CPUs the speedup figure is recorded as null with a
  ``speedup_skipped`` reason — a 1-core ratio measures fork overhead,
  not parallelism, and must not be committed as a trusted baseline.
- **obs**: the same convergence workload with tracing and histograms
  enabled versus disabled — the observability tax on the fast path
  (``overhead_pct``; the budget is under 10%).
- **scale**: internet-sized sweep topologies (1k/5k/10k ASes from
  :func:`generate_scale_internet`): the delta engine (wavefront
  replay + stub aggregation, the default) versus the per-run
  reference (``reuse_state=False``) on the same workloads, asserting
  bit-identical converged states at every size before timing and
  recording the aggregation ratio and touched-AS fraction that
  explain the speedup.

Run it from the repo root::

    PYTHONPATH=src python benchmarks/bench_engine.py --out BENCH_engine.json

``--quick`` shrinks every section for CI smoke runs (the CI job fails
only on errors, not on numbers — hardware varies; the committed
baseline is the reviewed artifact).
"""

import argparse
import itertools
import json
import os
import platform
import sys
import time

if __package__ in (None, ""):  # running as a script: make repro importable
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.bgp.engine import BGPEngine, SiteInjection
from repro.core.anyopt import AnyOpt
from repro.core.config import AnycastConfig
from repro.measurement.targets import select_targets
from repro.obs.trace import Tracer
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.settings import CampaignSettings
from repro.topology import TestbedParams, TopologyParams, build_paper_testbed
from repro.topology.astopo import Relationship
from repro.topology.generator import (
    ScaleSweepParams,
    generate_internet,
    generate_scale_internet,
)

SEED = 7
POOL_WIDTH = 4


def _engine_workloads(internet):
    """Staggered two-site announcements over every pair of eight
    tier-2 hosts — the pairwise-experiment mix a campaign runs on one
    shared topology."""
    graph = internet.graph
    hosts = [asn for asn in graph.asns() if graph.as_of(asn).tier == 2][:8]
    return [
        [
            SiteInjection(
                host_asn=asn,
                site_id=idx,
                pop_id=None,
                link_rtt_ms=5.0,
                rel_from_host=Relationship.CUSTOMER,
                announce_time_ms=idx * 100.0,
            )
            for idx, asn in enumerate(pair)
        ]
        for pair in itertools.combinations(hosts, 2)
    ]


def _time_batch(engine, workloads, runs):
    """Seconds for ``runs`` convergences cycling through the workload
    mix (every run is a distinct configuration doing full work)."""
    t0 = time.perf_counter()
    for i in range(runs):
        engine.run(workloads[i % len(workloads)])
    return time.perf_counter() - t0


def bench_engine(quick: bool) -> dict:
    internet = generate_internet(TopologyParams(n_stub=150, n_tier2=24), seed=SEED)
    workloads = _engine_workloads(internet)
    batch = len(workloads)  # one full pass over the pair mix
    trials = 3 if quick else 10

    fast_metrics = MetricsRegistry()
    fast = BGPEngine(internet, metrics=fast_metrics)
    legacy = BGPEngine(internet, reuse_state=False)
    # Warm up both paths (table build, allocator) outside the timings.
    _time_batch(fast, workloads, 4)
    _time_batch(legacy, workloads, 4)

    fast_best = legacy_best = float("inf")
    for _ in range(trials):
        fast_best = min(fast_best, _time_batch(fast, workloads, batch))
        legacy_best = min(legacy_best, _time_batch(legacy, workloads, batch))

    counters = fast_metrics.snapshot()["counters"]
    events_per_run = counters["convergence_events"] / counters["convergence_runs"]
    return {
        "workload": "28 distinct 2-site pairwise configs, 174-AS shared topology",
        "batch_runs": batch,
        "trials": trials,
        "fast_runs_per_s": round(batch / fast_best, 1),
        "legacy_runs_per_s": round(batch / legacy_best, 1),
        "speedup": round(legacy_best / fast_best, 2),
        "events_per_run": round(events_per_run, 1),
        "fast_events_per_s": round(events_per_run * batch / fast_best, 0),
    }


def bench_obs(quick: bool) -> dict:
    """Observability overhead on the fast path: identical convergence
    work with the tracer + histogram registry attached versus bare."""
    internet = generate_internet(TopologyParams(n_stub=150, n_tier2=24), seed=SEED)
    workloads = _engine_workloads(internet)
    batch = len(workloads)
    trials = 3 if quick else 10

    plain = BGPEngine(internet)
    traced = BGPEngine(internet, metrics=MetricsRegistry(), tracer=Tracer())
    _time_batch(plain, workloads, 4)
    _time_batch(traced, workloads, 4)

    plain_best = traced_best = float("inf")
    for _ in range(trials):
        plain_best = min(plain_best, _time_batch(plain, workloads, batch))
        traced_best = min(traced_best, _time_batch(traced, workloads, batch))
    return {
        "plain_runs_per_s": round(batch / plain_best, 1),
        "traced_runs_per_s": round(batch / traced_best, 1),
        "overhead_pct": round(100 * (traced_best / plain_best - 1.0), 1),
    }


def bench_scale(quick: bool) -> dict:
    """Delta engine versus the reference across internet-sized
    topologies.

    Bit-identity is asserted (states, convergence time, message count,
    enabled sites) on shared workloads before anything is timed, so a
    divergence fails the benchmark instead of poisoning the baseline.
    """
    sizes = [1000] if quick else [1000, 5000, 10000]
    trials = 2 if quick else 3
    points = []
    for n in sizes:
        internet = generate_scale_internet(ScaleSweepParams(n_ases=n), seed=SEED)
        graph = internet.graph
        workloads = _engine_workloads(internet)[:15]
        delta = BGPEngine(internet)
        reference = BGPEngine(internet, reuse_state=False)

        for w in workloads[: 4 if quick else 8]:
            a = delta.run(w)
            b = reference.run(w)
            if not (
                a.states == b.states
                and a.convergence_time_ms == b.convergence_time_ms
                and a.message_count == b.message_count
                and a.enabled_sites == b.enabled_sites
            ):
                raise AssertionError(
                    f"delta engine diverged from the reference at {n} ASes"
                )

        # The reference rebuilds every speaker and replays the whole
        # cascade per run, so it gets a small, separately-sized batch;
        # the delta engine's batch is large enough for a stable
        # per-run figure.
        delta_runs = 10 if quick else 30
        reference_runs = 2 if quick else 3
        _time_batch(delta, workloads, 2)
        _time_batch(reference, workloads, 1)
        delta_best = reference_best = float("inf")
        for _ in range(trials):
            delta_best = min(delta_best, _time_batch(delta, workloads, delta_runs))
            reference_best = min(
                reference_best, _time_batch(reference, workloads, reference_runs)
            )

        stats = delta._delta.last_run_stats
        tables = graph.tables()
        points.append({
            "n_ases": len(graph),
            "links": len(list(graph.links())),
            "aggregation_ratio": round(len(tables.stub_providers) / len(graph), 3),
            "touched_fraction": round(stats["touched"] / len(graph), 4),
            "delta_events_per_run": stats["events"],
            "delta_runs_per_s": round(delta_runs / delta_best, 1),
            "reference_runs_per_s": round(reference_runs / reference_best, 2),
            "delta_speedup": round(
                (reference_best / reference_runs) / (delta_best / delta_runs), 1
            ),
        })
    return {
        "workload": "2-site pairwise configs over tier-2 hosts, scale-sweep topologies",
        "trials": trials,
        "identical": True,  # asserted above for every size
        "points": points,
    }


def bench_cache(testbed, targets) -> dict:
    anyopt = AnyOpt(
        testbed, targets=targets, seed=SEED, settings=CampaignSettings.noiseless()
    )
    config = AnycastConfig(site_order=tuple(testbed.site_ids()[:4]))
    t0 = time.perf_counter()
    anyopt.deploy(config)
    cold_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    anyopt.deploy(config)
    warm_s = time.perf_counter() - t0
    cache = anyopt.orchestrator.convergence_cache
    lookups = cache.hits + cache.misses
    return {
        "cold_deploy_ms": round(cold_s * 1000, 2),
        "warm_deploy_ms": round(warm_s * 1000, 2),
        "hits": cache.hits,
        "misses": cache.misses,
        "hit_rate": round(cache.hits / lookups, 3) if lookups else None,
    }


def bench_campaign(testbed, targets, chunk_size=None) -> dict:
    cpus = os.cpu_count() or 1
    # Clamp to the cores actually available, but never below 2: the
    # process path (and its bit-identity assertion) must always run.
    pool_width = max(2, min(POOL_WIDTH, cpus))

    serial = AnyOpt(testbed, targets=targets, seed=SEED)
    t0 = time.perf_counter()
    serial_model = serial.discover()
    serial_s = time.perf_counter() - t0
    serial.close()

    with AnyOpt(
        testbed,
        targets=targets,
        seed=SEED,
        settings=CampaignSettings(
            parallelism=pool_width,
            executor="process",
            process_chunk_size=chunk_size,
        ),
    ) as process:
        t0 = time.perf_counter()
        process_model = process.discover()
        process_s = time.perf_counter() - t0

    identical = (
        process_model.rtt_matrix.values == serial_model.rtt_matrix.values
        and process_model.twolevel.provider_matrix
        == serial_model.twolevel.provider_matrix
        and process_model.twolevel.site_matrices == serial_model.twolevel.site_matrices
        and process_model.experiments_used == serial_model.experiments_used
    )
    if not identical:
        raise AssertionError("process-pool discovery diverged from the serial model")
    result = {
        "experiments": serial_model.experiments_used,
        "serial_s": round(serial_s, 3),
        "process_s": round(process_s, 3),
        "pool_width": pool_width,
        "chunk_size": chunk_size if chunk_size is not None else "auto",
        "host_cpus": cpus,
        "identical": identical,
    }
    if cpus < 2:
        # A 1-core "speedup" only measures fork + dispatch overhead;
        # publishing it as a baseline ratio would be misleading.
        result["process_speedup"] = None
        result["speedup_skipped"] = (
            f"host has {cpus} cpu(s); speedup needs >= 2 cores to mean anything"
        )
    else:
        result["process_speedup"] = (
            round(serial_s / process_s, 2) if process_s else None
        )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_engine.json")
    parser.add_argument(
        "--quick", action="store_true", help="smaller batches (CI smoke run)"
    )
    parser.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        metavar="N",
        help="pin the process-pool dispatch chunk size "
        "(default: auto-sized from task count and pool width)",
    )
    args = parser.parse_args(argv)

    engine = bench_engine(args.quick)
    print(f"engine: fast {engine['fast_runs_per_s']} runs/s, "
          f"legacy {engine['legacy_runs_per_s']} runs/s "
          f"-> {engine['speedup']}x")

    obs = bench_obs(args.quick)
    print(f"obs: plain {obs['plain_runs_per_s']} runs/s, "
          f"traced {obs['traced_runs_per_s']} runs/s "
          f"-> {obs['overhead_pct']}% overhead")

    scale = bench_scale(args.quick)
    for point in scale["points"]:
        print(f"scale[{point['n_ases']} ASes]: delta {point['delta_runs_per_s']} "
              f"runs/s, reference {point['reference_runs_per_s']} runs/s "
              f"-> {point['delta_speedup']}x "
              f"(agg {point['aggregation_ratio']:.0%}, "
              f"touched {point['touched_fraction']:.1%})")

    stubs = 100 if args.quick else 150
    tier2 = 16 if args.quick else 24
    testbed = build_paper_testbed(
        TestbedParams(topology=TopologyParams(n_stub=stubs, n_tier2=tier2)), seed=SEED
    )
    targets = select_targets(testbed.internet, seed=SEED)

    cache = bench_cache(testbed, targets)
    print(f"cache: cold {cache['cold_deploy_ms']}ms, warm {cache['warm_deploy_ms']}ms, "
          f"hit rate {cache['hit_rate']}")

    campaign = bench_campaign(testbed, targets, chunk_size=args.chunk_size)
    speedup = (
        f"{campaign['process_speedup']}x"
        if campaign["process_speedup"] is not None
        else f"skipped ({campaign['speedup_skipped']})"
    )
    print(f"campaign: serial {campaign['serial_s']}s, "
          f"process(x{campaign['pool_width']}, "
          f"chunk={campaign['chunk_size']}) {campaign['process_s']}s "
          f"-> {speedup} (identical={campaign['identical']})")

    payload = {
        "format": "anyopt-bench-engine",
        "version": 4,
        "quick": args.quick,
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "engine": engine,
        "obs": obs,
        "scale": scale,
        "cache": cache,
        "campaign": campaign,
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
