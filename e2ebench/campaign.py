"""campaign-paper: the operator's whole planning loop on the Table 1
testbed, run serially.

discover (the BGP experiments) -> audit -> the size frontier
(exhaustive optimize for every k) -> compile, write and load the
snapshot -> validate (deploy the k=12 optimum and seeded random
configurations; compare predicted with measured catchments, S5.2).
"""

import os
import random
import time
from contextlib import contextmanager

from repro import AnycastConfig, AnyOpt, build_paper_testbed, select_targets
from repro.io.serialization import model_to_dict
from repro.serve import LookupEngine, compile_snapshot, load_snapshot, write_snapshot

from common import (
    OUT_DIR,
    TESTBED_SEED,
    Outcome,
    campaign_counters,
    check_repeatable,
    digest,
    median,
    peak_rss_mb,
    timed_setup,
)

#: The deployment size whose optimum is deployed and reported (S5.3).
OPTIMUM_SIZE = 12
#: Seeded random configurations deployed beside the optimum.
RANDOM_CONFIGS = 4
#: Predicted-vs-measured catchment agreement below this fails the run.
MIN_ACCURACY = 0.8
#: Set-ups per run: one before the loop, the rest between its steps.
SETUPS = 8


def setup(seed, rec):
    with rec.span("topology.build"):
        testbed = build_paper_testbed(seed=TESTBED_SEED)
        targets = select_targets(testbed.internet, seed=TESTBED_SEED)
    return AnyOpt(testbed, targets=targets, seed=seed)


def validation_configs(site_ids, seed):
    rnd = random.Random(f"campaign-paper/validation/{seed}")
    configs = []
    for _ in range(RANDOM_CONFIGS):
        size = rnd.randint(2, len(site_ids))
        configs.append(AnycastConfig(site_order=tuple(rnd.sample(site_ids, size))))
    return configs


def prepare(seed):
    return None


#: Work counters reported for the discover phase alone (traced run).
DISCOVER_COUNTS = (
    "measurement.deploy", "runtime.task", "util.rng.derive", "measurement.forward"
)


def run(seed, seconds, rec, prepared=None, fixed_work=False):
    # One planning loop is the unit of work; it outlasts any sensible
    # --seconds, so ``seconds`` changes nothing here.  A fixed-work
    # pass (the traced run and its untraced twin) sets up once.
    del seconds
    setups = 1 if fixed_work else SETUPS
    setup_times = []
    anyopt = timed_setup(lambda: setup(seed, rec), setup_times)
    site_ids = anyopt.testbed.site_ids()

    def sample_setup():
        # The other set-ups are timed between the loop's steps, outside
        # their timers, so their median sees the host across the run.
        if len(setup_times) < setups:
            timed_setup(lambda: setup(seed, rec), setup_times)

    phase_s = {}

    @contextmanager
    def phase(name):
        start = time.perf_counter()
        with rec.span(f"phase.{name}"):
            yield
        phase_s[name] = phase_s.get(name, 0.0) + time.perf_counter() - start

    before = {name: rec.calls(name) for name in DISCOVER_COUNTS}
    with phase("discover"):
        model = anyopt.discover()
    discover_counts = {name: rec.calls(name) - before[name] for name in DISCOVER_COUNTS}
    sample_setup()
    with phase("audit"):
        audit = anyopt.audit(model)
    frontier = {}
    for k in range(1, len(site_ids) + 1):
        with phase("frontier"):
            frontier[k] = anyopt.optimize(model, sizes=[k], audit_report=audit)
        if k % 3 == 0:
            sample_setup()
    os.makedirs(OUT_DIR, exist_ok=True)
    snap_path = os.path.join(OUT_DIR, f"campaign-paper-{seed}.snap")
    with phase("snapshot"):
        with rec.span("serve.snapshot.compile"):
            snapshot = compile_snapshot(model)
        with rec.span("serve.snapshot.write"):
            write_snapshot(snapshot, snap_path)
        with rec.span("serve.snapshot.load"):
            engine = LookupEngine(load_snapshot(snap_path))
    optimum = frontier[OPTIMUM_SIZE].best_config
    configs = [optimum] + validation_configs(site_ids, seed)
    with phase("validate"):
        evaluations = [anyopt.evaluate(model, config) for config in configs]
    os.remove(snap_path)
    sample_setup()

    discover_s = phase_s["discover"]
    campaign_s = sum(phase_s.values())
    deployments = model.experiments_used
    predicted = sum(e.n_predicted for e in evaluations)
    accuracy = sum(e.n_correct for e in evaluations) / predicted if predicted else 0.0
    optimum_rtt = evaluations[0].measured_mean_rtt
    model_digest = digest(model_to_dict(model))

    outcome = Outcome(
        metrics={
            "setup_s": median(setup_times),
            "latency_ms": campaign_s * 1000.0,
            "rss_mb": peak_rss_mb(),
        },
        attempted=anyopt.orchestrator.experiment_count,
        failed=len(anyopt.orchestrator.failures),
        report={
            "campaign_s": (campaign_s, "s"),
            "discover_s": (discover_s, "s"),
            "deployments_per_s": (deployments / discover_s, "1/s"),
            "audit_s": (phase_s["audit"], "s"),
            "optimize_s": (phase_s["frontier"], "s"),
            "snapshot_s": (phase_s["snapshot"], "s"),
            "validate_s": (phase_s["validate"], "s"),
            "prediction_accuracy": (accuracy, "ratio"),
            "optimized_rtt_ms": (optimum_rtt, "ms"),
            "deployments": (deployments, "count"),
            "targets": (len(anyopt.targets), "count"),
            "model_digest": (model_digest, "blake2b"),
            **{
                f"discover.{name}.calls": (count, "count")
                for name, count in discover_counts.items()
                if rec.enabled
            },
        },
        layers={
            **campaign_counters(anyopt),
            "audit.findings": sum(len(c.findings) for c in audit.clients.values()),
            "splpo.evaluations": sum(r.evaluations for r in frontier.values()),
            "core.predict.accuracy": accuracy,
            "splpo.optimum_rtt_ms": optimum_rtt,
        },
        overhead_basis=campaign_s,
        fingerprint=model_digest,
    )

    # Output checks, outside the timed loop.
    check_repeatable(outcome, "model digest", f"seed {seed}", model_digest)
    clients = engine.client_ids()
    mismatched = [
        config.site_order
        for config in configs
        if engine.predict(config).to_dict()
        != model.predictor.predict(config, clients).to_dict()
    ]
    outcome.check(
        "snapshot LookupEngine answers equal CatchmentPredictor.predict",
        not mismatched,
        f"{len(configs)} validation configurations, mismatched: {mismatched}",
    )
    outcome.check(
        f"prediction accuracy >= {MIN_ACCURACY}", accuracy >= MIN_ACCURACY, f"{accuracy:.4f}"
    )
    outcome.check(
        f"k={OPTIMUM_SIZE} optimum deploys {OPTIMUM_SIZE} sites",
        len(optimum.site_order) == OPTIMUM_SIZE,
        str(optimum.site_order),
    )
    return outcome
