"""catchment-population: the measurement plane at the paper's probe
volume (S3.2).

A 5,428-AS testbed with 3-4 ping targets per client AS (~14k targets).
The run deploys a fixed seeded list of configurations (2-site, 4-site
and all-15, in turn) and, for each, maps every target's catchment and
measures the mean RTT over every target.  No SPLPO and almost no
per-experiment overhead: per-target work is nearly all of the time.

The run is made of rounds.  Each round sets up a fresh campaign (one
``setup_s`` sample) and deploys the list's first configuration plus
one more.  Experiment noise follows the experiment id, and a fresh
campaign starts its ids afresh, so every round's first map must equal
the first round's: the run checks its own repeatability.
"""

import random
import time

from repro import AnycastConfig, AnyOpt, TestbedParams, TopologyParams
from repro import build_paper_testbed, select_targets

from common import (
    TESTBED_SEED,
    Outcome,
    campaign_counters,
    check_repeatable,
    digest,
    median,
    peak_rss_mb,
    timed_setup,
)

TOPOLOGY = TopologyParams(n_stub=5300, n_tier2=120)
TARGETS_PER_AS = (3, 4)
#: Configuration sizes, deployed in turn.
SIZES = (2, 4, 15)
#: About what the two configurations of a round take on a 2-core x86
#: VM (its set-up, ~2.3 s more, is not counted); a run of
#: ``--seconds S`` makes S / NOMINAL_ROUND_S rounds.
NOMINAL_ROUND_S = 5.0


def _setup(seed, rec):
    with rec.span("topology.build"):
        testbed = build_paper_testbed(
            TestbedParams(topology=TOPOLOGY), seed=TESTBED_SEED
        )
        targets = select_targets(
            testbed.internet,
            seed=TESTBED_SEED,
            targets_per_as_min=TARGETS_PER_AS[0],
            targets_per_as_max=TARGETS_PER_AS[1],
        )
    return AnyOpt(testbed, targets=targets, seed=seed)


def configurations(site_ids, seed, count):
    """The first ``count`` of the seeded list: sizes cycle 2, 4, 15."""
    rnd = random.Random(f"catchment-population/configs/{seed}")
    return [
        AnycastConfig(site_order=tuple(rnd.sample(site_ids, SIZES[i % len(SIZES)])))
        for i in range(count)
    ]


def prepare(seed):
    return None


def run(seed, seconds, rec, prepared=None, fixed_work=False):
    # Which configurations each round deploys (indices into the list)
    # follows from ``seconds`` alone, so every run of a given length
    # does the same work.  A fixed-work pass (the traced run and its
    # untraced twin) is one round with one configuration of each size.
    if fixed_work:
        rounds = [list(range(len(SIZES)))]
    else:
        n_rounds = max(2, round(seconds / NOMINAL_ROUND_S))
        rounds = [[0, r + 1] for r in range(n_rounds)]
    setup_times = []
    per_config = []
    round_maps = []
    failed = 0
    configs = None
    for indices in rounds:
        anyopt = timed_setup(lambda: _setup(seed, rec), setup_times)
        if configs is None:
            count = 1 + max(i for r in rounds for i in r)
            configs = configurations(anyopt.testbed.site_ids(), seed, count)
        maps = []
        for i in indices:
            config = configs[i]
            start = time.perf_counter()
            deployment = anyopt.deploy(config)
            catchments = deployment.measure_catchments()
            mean_rtt = deployment.measure_mean_rtt()
            per_config.append(time.perf_counter() - start)
            if mean_rtt is None or not catchments.mapped_count():
                failed += 1
            maps.append([list(config.site_order), sorted(catchments.mapping.items()), mean_rtt])
        round_maps.append(maps)

    n_targets = len(anyopt.targets)
    config_s = median(per_config)
    # The first two configurations are the first round's on every kind
    # of run, so their digest is comparable across runs of the seed.
    maps_digest = digest(round_maps[0][:2])
    first_digest = digest(round_maps[0][0])
    repeats = [digest(maps[0]) == first_digest for maps in round_maps]
    outcome = Outcome(
        metrics={
            "setup_s": median(setup_times),
            "latency_ms": config_s * 1000.0,
            "rss_mb": peak_rss_mb(),
        },
        attempted=len(per_config),
        failed=failed,
        report={
            "probe_targets_per_s": (n_targets / config_s, "1/s"),
            "config_s": (config_s, "s"),
            "configurations": (len(per_config), "count"),
            "rounds": (len(rounds), "count"),
            "targets": (n_targets, "count"),
            "ases": (len(anyopt.testbed.internet.graph.asns()), "count"),
            "catchment_digest": (maps_digest, "blake2b"),
        },
        layers={
            **campaign_counters(anyopt),
        },
        overhead_basis=config_s,
        fingerprint=maps_digest,
    )
    outcome.check(
        "every round's first catchment map equals the first round's",
        all(repeats),
        f"{len(repeats)} rounds, differing: {[i for i, ok in enumerate(repeats) if not ok]}",
    )
    check_repeatable(outcome, "catchment-map digest", f"seed {seed}", maps_digest)
    return outcome
