"""The campaign runtime: executors, settings, caching, metrics.

The load-bearing property is determinism: a pooled campaign must be
bit-identical to the serial reference path for the same seed, because
experiment ids — not completion times — key every noise stream.
"""

import threading
import time

import pytest

from repro import AnyOpt, CampaignSettings
from repro.core import ExperimentRunner
from repro.core.config import AnycastConfig
from repro.io import ConvergenceStore, topology_fingerprint
from repro.measurement import Orchestrator
from repro.runtime import (
    ConvergenceCache,
    MetricsRegistry,
    PooledExecutor,
    ProcessExecutor,
    SerialExecutor,
    auto_chunk_size,
    make_executor,
)
from repro.splpo import available_strategies, get_solver, register_solver
from repro.splpo.registry import _REGISTRY
from repro.util.errors import ConfigurationError

from tests.conftest import SEED


# --- executors --------------------------------------------------------------


def test_make_executor_policy():
    assert isinstance(make_executor(None), SerialExecutor)
    assert isinstance(make_executor(1), SerialExecutor)
    pooled = make_executor(4)
    assert isinstance(pooled, PooledExecutor)
    assert pooled.max_workers == 4
    with pytest.raises(ConfigurationError):
        make_executor(0)


def test_make_executor_kind_policy():
    # parallelism 1 is serial regardless of the requested kind.
    assert isinstance(make_executor(1, kind="process"), SerialExecutor)
    process = make_executor(4, kind="process")
    assert isinstance(process, ProcessExecutor)
    assert process.max_workers == 4
    process.close()
    with pytest.raises(ConfigurationError):
        make_executor(4, kind="fibers")


def test_process_executor_rejects_inprocess_callables():
    executor = ProcessExecutor(2)
    try:
        with pytest.raises(ConfigurationError, match="process boundary"):
            executor.run([lambda: 1])
    finally:
        executor.close()


def test_pooled_executor_preserves_task_order():
    tasks = [lambda i=i: i * i for i in range(40)]
    assert PooledExecutor(8).run(tasks) == [i * i for i in range(40)]


def test_executors_report_progress():
    for executor in (SerialExecutor(), PooledExecutor(3)):
        calls = []
        executor.run(
            [lambda i=i: i for i in range(7)],
            progress=lambda done, total: calls.append((done, total)),
        )
        assert len(calls) == 7
        assert all(total == 7 for _, total in calls)
        assert sorted(done for done, _ in calls) == list(range(1, 8))


def test_pooled_executor_cancels_pending_on_failure():
    # One worker, so the queue order is deterministic: once a task
    # raises, everything still queued behind it must be cancelled —
    # not silently run to completion before the error surfaces.  Each
    # task sleeps so the worker cannot drain the whole queue before
    # the main thread observes the failure and cancels.
    ran = []

    def ok(i):
        time.sleep(0.05)
        ran.append(i)
        return i

    def boom():
        ran.append("boom")
        raise ValueError("boom")

    tasks = [lambda: ok(0), boom] + [lambda i=i: ok(i) for i in range(1, 12)]
    with pytest.raises(ValueError, match="boom"):
        PooledExecutor(1).run(tasks)
    assert "boom" in ran
    # The failing task and its predecessor ran; at most a couple more
    # can have started before the cancellation landed.  Without the
    # cancel, all 13 would run.
    assert len(ran) <= 5


def test_auto_chunk_size_policy():
    assert auto_chunk_size(0, 4) == 1
    # Small dispatches degenerate to per-task chunks.
    assert auto_chunk_size(6, 4) == 1
    assert auto_chunk_size(16, 4) == 1
    # Large campaigns amortize: ~4 chunks per worker.
    assert auto_chunk_size(160, 4) == 10
    assert auto_chunk_size(161, 4) == 11  # ceiling, never a lost task
    assert auto_chunk_size(1000, 2) == 125


def test_make_executor_chunk_size_passthrough():
    process = make_executor(4, kind="process", chunk_size=5)
    assert isinstance(process, ProcessExecutor)
    assert process.chunk_size == 5
    process.close()
    with pytest.raises(ConfigurationError):
        ProcessExecutor(2, chunk_size=0)


def test_process_pool_reused_across_equal_specs(testbed, targets):
    # The pool is keyed on the campaign spec, not the orchestrator
    # object: a rebuilt orchestrator with the same spec that continues
    # the campaign's id space (what audit and the repair rounds do)
    # keeps the warm forked workers.
    sites = testbed.site_ids()[:3]
    executor = ProcessExecutor(2)
    try:
        orch_a = Orchestrator(testbed, targets, seed=SEED)
        ExperimentRunner(orch_a).pairwise_sweep(sites, executor=executor)
        pool = executor._pool
        assert pool is not None

        orch_b = Orchestrator(testbed, targets, seed=SEED)
        orch_b.restore_experiment_state(orch_a.experiment_count)
        ExperimentRunner(orch_b).pairwise_sweep(sites, executor=executor)
        assert executor._pool is pool

        # A genuinely different spec (workers must honor the new retry
        # budget) forces a re-fork.
        orch_c = Orchestrator(
            testbed,
            targets,
            seed=SEED,
            settings=CampaignSettings(retry_max_attempts=5),
        )
        orch_c.restore_experiment_state(orch_b.experiment_count)
        ExperimentRunner(orch_c).pairwise_sweep(sites, executor=executor)
        assert executor._pool is not pool
    finally:
        executor.close()


def test_process_pool_reforks_when_id_space_restarts(testbed, targets):
    # A same-spec orchestrator whose experiment ids start over is a
    # NEW campaign: its ids would collide with the warm workers'
    # id-reuse guard, so the executor must re-fork — and the fresh
    # campaign must still produce the serial-identical matrix.
    sites = testbed.site_ids()[:3]
    serial = ExperimentRunner(
        Orchestrator(testbed, targets, seed=SEED)
    ).pairwise_sweep(sites)
    executor = ProcessExecutor(2)
    try:
        orch_a = Orchestrator(testbed, targets, seed=SEED)
        first = ExperimentRunner(orch_a).pairwise_sweep(sites, executor=executor)
        pool = executor._pool
        orch_b = Orchestrator(testbed, targets, seed=SEED)  # ids restart at 1
        second = ExperimentRunner(orch_b).pairwise_sweep(sites, executor=executor)
        assert executor._pool is not pool
        assert first == serial
        assert second == serial
    finally:
        executor.close()


def test_process_executor_reports_completion_order_progress(testbed, targets):
    # Same contract as PooledExecutor: progress fires as chunks
    # complete, cumulatively, and reaches the exact total.
    orch = Orchestrator(testbed, targets, seed=SEED)
    calls = []
    executor = ProcessExecutor(2, chunk_size=1)
    try:
        ExperimentRunner(orch).pairwise_sweep(
            testbed.site_ids()[:4],  # 6 pairs
            executor=executor,
            progress=lambda done, total: calls.append((done, total)),
        )
    finally:
        executor.close()
    assert calls == [(i, 6) for i in range(1, 7)]


# --- settings and the deprecation shim --------------------------------------


def test_settings_validation():
    with pytest.raises(ConfigurationError):
        CampaignSettings(session_churn_prob=1.5)
    with pytest.raises(ConfigurationError):
        CampaignSettings(rtt_drift_sigma=-0.1)
    with pytest.raises(ConfigurationError):
        CampaignSettings(parallelism=0)
    with pytest.raises(ConfigurationError):
        CampaignSettings(convergence_cache_size=0)
    with pytest.raises(ConfigurationError):
        CampaignSettings(fault_announcement_prob=1.5)
    with pytest.raises(ConfigurationError):
        CampaignSettings(fault_probe_blackout_prob=-0.1)
    with pytest.raises(ConfigurationError):
        CampaignSettings(retry_max_attempts=0)
    with pytest.raises(ConfigurationError):
        CampaignSettings(retry_backoff_factor=0.5)
    with pytest.raises(ConfigurationError):
        CampaignSettings(executor="fibers")
    with pytest.raises(ConfigurationError):
        CampaignSettings(process_chunk_size=0)
    assert not CampaignSettings().faults_enabled
    assert CampaignSettings(fault_session_reset_prob=0.2).faults_enabled


def test_noiseless_preset_and_replace():
    settings = CampaignSettings.noiseless()
    assert settings.session_churn_prob == 0.0
    assert settings.rtt_drift_sigma == 0.0
    assert settings.rtt_bias_sigma == 0.0
    assert settings.bgp_delay_jitter_ms == 0.0
    wider = settings.replace(parallelism=8)
    assert wider.parallelism == 8
    assert settings.parallelism == 1  # frozen original untouched
    with pytest.raises(ConfigurationError):
        settings.replace(parallelism=0)


# --- determinism: pooled == serial ------------------------------------------


def test_pairwise_sweep_parallel_matches_serial(testbed, targets):
    sites = testbed.site_ids()[:4]
    serial_orch = Orchestrator(testbed, targets, seed=SEED)
    pooled_orch = Orchestrator(testbed, targets, seed=SEED)
    serial = ExperimentRunner(serial_orch).pairwise_sweep(sites)
    pooled = ExperimentRunner(pooled_orch).pairwise_sweep(
        sites, executor=PooledExecutor(4)
    )
    assert serial == pooled
    assert serial_orch.experiment_count == pooled_orch.experiment_count


def test_rtt_matrix_parallel_matches_serial(testbed, targets):
    serial = Orchestrator(testbed, targets, seed=SEED).measure_rtt_matrix()
    pooled = Orchestrator(testbed, targets, seed=SEED).measure_rtt_matrix(
        executor=PooledExecutor(4)
    )
    assert serial.values == pooled.values


def test_discover_parallel_matches_serial(testbed, targets, anyopt_model):
    """A pooled campaign reproduces the session's serial model exactly."""
    pooled = AnyOpt(testbed, targets=targets, seed=SEED).discover(parallelism=4)
    assert pooled.rtt_matrix.values == anyopt_model.rtt_matrix.values
    assert pooled.experiments_used == anyopt_model.experiments_used
    assert pooled.twolevel.provider_matrix == anyopt_model.twolevel.provider_matrix
    assert pooled.twolevel.site_matrices == anyopt_model.twolevel.site_matrices


@pytest.mark.parametrize("chunk_size", [1, 3, 10_000], ids=["one", "three", "all"])
def test_chunked_process_sweep_matches_serial(testbed, targets, chunk_size):
    # Chunk boundaries must be invisible: one task per dispatch, a
    # partial final chunk, and everything-in-one-chunk all reproduce
    # the serial matrix and counters exactly.
    sites = testbed.site_ids()[:4]
    serial_orch = Orchestrator(testbed, targets, seed=SEED)
    chunked_orch = Orchestrator(testbed, targets, seed=SEED)
    serial = ExperimentRunner(serial_orch).pairwise_sweep(sites)
    executor = ProcessExecutor(2, chunk_size=chunk_size)
    try:
        chunked = ExperimentRunner(chunked_orch).pairwise_sweep(
            sites, executor=executor
        )
    finally:
        executor.close()
    assert serial == chunked
    assert serial_orch.experiment_count == chunked_orch.experiment_count
    assert (
        serial_orch.metrics.snapshot()["counters"]
        == chunked_orch.metrics.snapshot()["counters"]
    )


@pytest.mark.parametrize("chunk_size", [1, 3, None], ids=["one", "three", "auto"])
def test_discover_chunked_process_matches_serial(
    testbed, targets, anyopt_model, chunk_size
):
    """A chunked process-pool campaign reproduces the serial model
    exactly, whatever the chunk size."""
    settings = CampaignSettings(
        parallelism=2, executor="process", process_chunk_size=chunk_size
    )
    with AnyOpt(testbed, targets=targets, seed=SEED, settings=settings) as anyopt:
        model = anyopt.discover()
    assert model.rtt_matrix.values == anyopt_model.rtt_matrix.values
    assert model.experiments_used == anyopt_model.experiments_used
    assert model.twolevel.provider_matrix == anyopt_model.twolevel.provider_matrix
    assert model.twolevel.site_matrices == anyopt_model.twolevel.site_matrices


def test_incorporate_peers_parallel_matches_serial(testbed, targets):
    config = AnycastConfig(site_order=tuple(testbed.site_ids()[:3]))
    peer_ids = testbed.peer_ids()[:4]
    serial = AnyOpt(testbed, targets=targets, seed=SEED).incorporate_peers(
        config, peer_ids=peer_ids
    )
    pooled = AnyOpt(testbed, targets=targets, seed=SEED).incorporate_peers(
        config, peer_ids=peer_ids, parallelism=4
    )
    assert serial.selected_peers == pooled.selected_peers
    assert [p.peer_id for p in serial.probes] == [p.peer_id for p in pooled.probes]
    assert [p.mean_rtt_ms for p in serial.probes] == [
        p.mean_rtt_ms for p in pooled.probes
    ]


# --- convergence cache ------------------------------------------------------


def test_noiseless_redeploy_hits_cache(clean_orchestrator):
    config = AnycastConfig(
        site_order=tuple(clean_orchestrator.testbed.site_ids()[:3])
    )
    first = clean_orchestrator.deploy(config)
    second = clean_orchestrator.deploy(config)
    cache = clean_orchestrator.convergence_cache
    assert cache.misses == 1
    assert cache.hits == 1
    # A hit substitutes the identical converged state.
    assert second.converged is first.converged
    # ...but the redeployment still counts as a fresh BGP experiment.
    assert second.experiment_id == first.experiment_id + 1


def test_noisy_redeploy_never_hits_cache(noisy_orchestrator):
    config = AnycastConfig(
        site_order=tuple(noisy_orchestrator.testbed.site_ids()[:3])
    )
    noisy_orchestrator.deploy(config)
    noisy_orchestrator.deploy(config)
    cache = noisy_orchestrator.convergence_cache
    assert cache.hits == 0
    assert cache.misses == 2


def test_cache_disabled_by_settings(testbed, targets):
    orch = Orchestrator(
        testbed,
        targets,
        seed=SEED,
        settings=CampaignSettings.noiseless(convergence_cache=False),
    )
    assert orch.convergence_cache is None
    config = AnycastConfig(site_order=tuple(testbed.site_ids()[:2]))
    first = orch.deploy(config)
    second = orch.deploy(config)
    assert second.converged is not first.converged


def test_cache_lru_eviction():
    cache = ConvergenceCache(max_entries=2)
    cache.store(("a",), "A")
    cache.store(("b",), "B")
    assert cache.lookup(("a",)) == "A"  # refreshes ("a",)
    cache.store(("c",), "C")  # evicts ("b",)
    assert len(cache) == 2
    assert cache.lookup(("b",)) is None
    assert cache.lookup(("a",)) == "A"
    assert cache.lookup(("c",)) == "C"


def test_cache_concurrent_eviction_stays_consistent():
    # Pooled workers hammer a deliberately tiny cache: interleaved
    # lookups and evicting stores must never corrupt the LRU order,
    # lose the size bound, or drop a hit/miss count.
    cache = ConvergenceCache(max_entries=2)
    errors = []
    per_thread = 300

    def hammer(worker):
        try:
            for i in range(per_thread):
                key = ("shared", (worker + i) % 5)
                if cache.lookup(key) is None:
                    cache.store(key, f"state-{worker}-{i}")
        except Exception as exc:  # pragma: no cover - the assertion payload
            errors.append(exc)

    threads = [threading.Thread(target=hammer, args=(w,)) for w in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    assert len(cache) <= 2
    assert cache.hits + cache.misses == 4 * per_thread


def test_cache_key_ignores_nonce_without_jitter():
    key_a = ConvergenceCache.key_for((1, 2), {}, 0.0, 17)
    key_b = ConvergenceCache.key_for((1, 2), None, 0.0, 99)
    assert key_a == key_b
    with_jitter_a = ConvergenceCache.key_for((1, 2), {}, 5.0, 17)
    with_jitter_b = ConvergenceCache.key_for((1, 2), {}, 5.0, 99)
    assert with_jitter_a != with_jitter_b


# --- persistent convergence store -------------------------------------------


def test_store_round_trip(tmp_path):
    store = ConvergenceStore(str(tmp_path), "ns")
    key = (("inj", 1), (), (0.0, 0), ())
    assert store.load(key) is None
    store.save(key, {"routes": [1, 2, 3]})
    assert store.load(key) == {"routes": [1, 2, 3]}
    assert len(store) == 1
    store.clear()
    assert store.load(key) is None


def test_store_corruption_degrades_to_miss(tmp_path):
    store = ConvergenceStore(str(tmp_path), "ns")
    store.save(("k",), "state")
    (entry,) = (tmp_path / "ns").glob("*.pkl")
    entry.write_bytes(b"not a pickle")
    assert store.load(("k",)) is None


def test_cache_spills_to_store_and_fresh_cache_reloads(tmp_path):
    store = ConvergenceStore(str(tmp_path), "ns")
    metrics = MetricsRegistry()
    first = ConvergenceCache(max_entries=4, store=store)
    first.store(("k",), "state")
    # A different cache instance (new process, next CLI run) hits the
    # spilled entry; the disk hit has its own counter.
    fresh = ConvergenceCache(max_entries=4, metrics=metrics, store=store)
    assert fresh.lookup(("k",)) == "state"
    assert fresh.hits == 1
    counters = metrics.snapshot()["counters"]
    assert counters["convergence_cache_hits"] == 1
    assert counters["convergence_cache_disk_hits"] == 1
    # Now cached in memory: the second lookup is a plain hit.
    assert fresh.lookup(("k",)) == "state"
    assert metrics.snapshot()["counters"]["convergence_cache_disk_hits"] == 1


def test_topology_fingerprint_is_stable_and_discriminating(testbed):
    graph = testbed.internet.graph
    same = topology_fingerprint(graph, "192.0.2.0/24")
    assert same == topology_fingerprint(graph, "192.0.2.0/24")
    assert same != topology_fingerprint(graph, "198.51.100.0/24")


def test_persistent_cache_hits_across_orchestrators(testbed, targets, tmp_path):
    settings = CampaignSettings.noiseless(convergence_cache_path=str(tmp_path))
    config = AnycastConfig(site_order=tuple(testbed.site_ids()[:2]))
    first = Orchestrator(testbed, targets, seed=SEED, settings=settings)
    first_deploy = first.deploy(config)
    # A brand-new orchestrator (fresh in-memory cache) reuses the
    # spilled state without a single engine run.
    second = Orchestrator(testbed, targets, seed=SEED, settings=settings)
    second_deploy = second.deploy(config)
    assert second.convergence_cache.hits == 1
    assert second.convergence_cache.misses == 0
    counters = second.metrics.snapshot()["counters"]
    assert counters["convergence_cache_disk_hits"] == 1
    assert counters.get("convergence_runs", 0) == 0
    # The reloaded state produces the same measurements bit-for-bit.
    assert [second_deploy.measure_rtt(t) for t in targets] == [
        first_deploy.measure_rtt(t) for t in targets
    ]


# --- metrics ----------------------------------------------------------------


def test_metrics_counters_and_timers():
    metrics = MetricsRegistry()
    metrics.counter("probes").increment()
    metrics.counter("probes").increment(2)
    with metrics.timer("convergence").time():
        pass
    snap = metrics.snapshot()
    assert snap["counters"]["probes"] == 3
    assert snap["timers"]["convergence"]["count"] == 1
    assert snap["timers"]["convergence"]["total_seconds"] >= 0.0


def test_metrics_phase_records_counter_deltas():
    metrics = MetricsRegistry()
    metrics.counter("experiments").increment(5)
    with metrics.phase("sweep"):
        metrics.counter("experiments").increment(3)
    phases = metrics.snapshot()["phases"]
    assert [p["name"] for p in phases] == ["sweep"]
    assert phases[0]["counter_deltas"] == {"experiments": 3}
    assert phases[0]["wall_seconds"] >= 0.0


def test_metrics_merge_deltas():
    # How process-pool workers report: snapshot deltas shipped back and
    # merged into the main-process registry.
    metrics = MetricsRegistry()
    metrics.counter("experiments").increment(2)
    metrics.merge_deltas(
        {"experiments": 3, "noop": 0},
        {"convergence": {"total_seconds": 1.5, "count": 2}, "idle": {"count": 0}},
    )
    snap = metrics.snapshot()
    assert snap["counters"]["experiments"] == 5
    assert "noop" not in snap["counters"]
    assert snap["timers"]["convergence"] == {"total_seconds": 1.5, "count": 2}
    assert "idle" not in snap["timers"]


def test_stats_rendering_includes_cache_hit_rate(clean_orchestrator):
    from repro.report import render_metrics

    config = AnycastConfig(
        site_order=tuple(clean_orchestrator.testbed.site_ids()[:2])
    )
    clean_orchestrator.deploy(config)
    clean_orchestrator.deploy(config)  # noiseless redeploy: one hit
    out = render_metrics(clean_orchestrator.metrics.snapshot())
    assert "convergence_cache_hit_rate" in out
    assert "50.0%" in out


def test_campaign_records_metrics(clean_orchestrator):
    clean_orchestrator.deploy(
        AnycastConfig(site_order=tuple(clean_orchestrator.testbed.site_ids()[:2]))
    )
    snap = clean_orchestrator.metrics.snapshot()
    assert snap["counters"]["experiments"] == 1
    assert snap["counters"]["convergence_runs"] == 1
    assert snap["counters"]["convergence_messages"] > 0
    assert snap["timers"]["deploy"]["count"] == 1


def test_discover_attaches_metrics_snapshot(anyopt_model):
    snap = anyopt_model.metrics
    assert snap is not None
    assert snap["counters"]["experiments"] == anyopt_model.experiments_used
    assert any(p["name"] == "discover" for p in snap["phases"])


# --- solver registry --------------------------------------------------------


def test_builtin_strategies_registered():
    for name in ("exhaustive", "greedy", "local_search", "annealing"):
        assert name in available_strategies()
        assert callable(get_solver(name))


def test_unknown_strategy_lists_alternatives():
    with pytest.raises(ConfigurationError, match="exhaustive"):
        get_solver("does-not-exist")


def test_register_custom_solver():
    marker = object()

    @register_solver("runtime-test-solver")
    def _solver(instance, *, seed=0, sizes=None, max_evaluations=None, **kwargs):
        return marker

    try:
        assert get_solver("runtime-test-solver")(None) is marker
        assert "runtime-test-solver" in available_strategies()
    finally:
        _REGISTRY.pop("runtime-test-solver", None)


def test_register_solver_rejects_bad_names():
    with pytest.raises(ConfigurationError):
        register_solver("", lambda instance, **kwargs: None)
