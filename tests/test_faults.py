"""Fault injection, retry/backoff, graceful degradation, checkpoints.

The campaign must survive injected faults the way a real measurement
platform survives a flaky testbed: retry transients, record what kept
failing, leave UNDECIDED preference cells behind, and still produce a
usable model.  Determinism contract: the fault streams are keyed by
``(seed, fault, experiment_id, attempt)``, so pooled campaigns degrade
bit-identically to serial ones, and a killed-then-resumed checkpoint
run is byte-identical to an uninterrupted one.
"""

import json

import pytest

from repro.core.anyopt import AnyOpt
from repro.core.config import AnycastConfig
from repro.core.experiments import ExperimentRunner
from repro.core.preferences import PairObservation, PreferenceOutcome
from repro.io import checkpoint as checkpoint_io
from repro.io import load_checkpoint, model_to_dict, save_checkpoint
from repro.measurement.orchestrator import Orchestrator
from repro.runtime import CampaignSettings, PooledExecutor, ProcessExecutor
from repro.runtime.faults import FaultInjector
from repro.runtime.retry import FailedExperiment, RetryPolicy, run_with_retry
from repro.util.errors import (
    ConfigurationError,
    MeasurementError,
    ReproError,
    RetriesExhaustedError,
    TransientError,
)

from tests.conftest import SEED

FAULTY = CampaignSettings.noiseless(
    fault_announcement_prob=0.2,
    fault_convergence_timeout_prob=0.1,
    fault_probe_blackout_prob=0.1,
    fault_session_reset_prob=0.05,
    retry_max_attempts=2,
)

ALWAYS_FAILING = CampaignSettings.noiseless(
    fault_announcement_prob=1.0, retry_max_attempts=2
)


# --- retry policy -----------------------------------------------------------


class TestRetry:
    def test_succeeds_after_transients(self):
        calls = []

        def flaky(attempt):
            calls.append(attempt)
            if attempt < 2:
                raise TransientError("transient")
            return "done"

        assert run_with_retry(flaky, RetryPolicy(max_attempts=3)) == "done"
        assert calls == [0, 1, 2]

    def test_exhaustion_raises_typed_error(self):
        def always_fails(attempt):
            raise TransientError("still down")

        with pytest.raises(RetriesExhaustedError) as err:
            run_with_retry(
                always_fails, RetryPolicy(max_attempts=3), description="probe"
            )
        assert err.value.attempts == 3
        assert "probe" in str(err.value)
        assert "still down" in str(err.value)
        assert isinstance(err.value, MeasurementError)

    def test_non_transient_propagates_immediately(self):
        calls = []

        def broken(attempt):
            calls.append(attempt)
            raise ValueError("not retryable")

        with pytest.raises(ValueError):
            run_with_retry(broken, RetryPolicy(max_attempts=5))
        assert calls == [0]

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            backoff_base_ms=100.0, backoff_factor=2.0, backoff_max_ms=300.0
        )
        assert policy.backoff_ms(0) == 100.0
        assert policy.backoff_ms(1) == 200.0
        assert policy.backoff_ms(2) == 300.0  # capped
        assert policy.backoff_ms(10) == 300.0

    def test_backoff_is_virtual_and_counted(self, testbed, targets):
        orch = Orchestrator(testbed, targets, seed=SEED, settings=FAULTY)

        def flaky(attempt):
            if attempt == 0:
                raise TransientError("once")
            return None

        run_with_retry(flaky, orch.retry_policy, metrics=orch.metrics)
        snap = orch.metrics.snapshot()["counters"]
        assert snap["retries"] == 1
        assert snap["retry_backoff_virtual_ms"] == int(FAULTY.retry_backoff_base_ms)


# --- fault injector ---------------------------------------------------------


class TestFaultInjector:
    def test_streams_are_deterministic(self):
        a = FaultInjector(SEED, FAULTY)
        b = FaultInjector(SEED, FAULTY)

        def pattern(inj):
            fired = []
            for exp_id in range(1, 40):
                for attempt in range(2):
                    try:
                        inj.raise_if("announcement", exp_id, attempt)
                    except TransientError:
                        fired.append((exp_id, attempt))
            return fired

        assert pattern(a) == pattern(b)
        assert pattern(a)  # nonzero probability actually fires

    def test_attempt_nonce_rederives_stream(self):
        inj = FaultInjector(SEED, ALWAYS_FAILING.replace(fault_announcement_prob=0.5))
        outcomes = set()
        for attempt in range(8):
            try:
                inj.raise_if("announcement", 1, attempt)
                outcomes.add("ok")
            except TransientError:
                outcomes.add("fault")
        # A fresh draw per attempt: both outcomes appear across retries.
        assert outcomes == {"ok", "fault"}

    def test_disabled_fault_never_fires(self):
        inj = FaultInjector(SEED, CampaignSettings.noiseless())
        assert not inj.any_enabled
        for exp_id in range(1, 50):
            inj.raise_if("convergence-timeout", exp_id, 0)  # must not raise

    def test_unknown_fault_rejected(self):
        inj = FaultInjector(SEED, FAULTY)
        with pytest.raises(KeyError):
            inj.raise_if("meteor-strike", 1, 0)


# --- degradation in the drivers ---------------------------------------------


class TestDegradation:
    def test_pooled_sweep_matches_serial_under_faults(self, testbed, targets):
        sites = testbed.site_ids()[:4]
        serial_orch = Orchestrator(testbed, targets, seed=SEED, settings=FAULTY)
        pooled_orch = Orchestrator(testbed, targets, seed=SEED, settings=FAULTY)
        serial = ExperimentRunner(serial_orch).pairwise_sweep(sites)
        pooled = ExperimentRunner(pooled_orch).pairwise_sweep(
            sites, executor=PooledExecutor(4)
        )
        assert serial == pooled
        assert serial_orch.experiment_count == pooled_orch.experiment_count
        assert serial_orch.failures == pooled_orch.failures

    def test_process_sweep_matches_serial_under_faults(self, testbed, targets):
        # The strongest determinism claim: fault streams are keyed by
        # (seed, fault, experiment_id, attempt), so even campaigns run
        # in forked worker *processes* degrade bit-identically —
        # including which experiments failed and every merged counter.
        sites = testbed.site_ids()[:4]
        serial_orch = Orchestrator(testbed, targets, seed=SEED, settings=FAULTY)
        process_orch = Orchestrator(testbed, targets, seed=SEED, settings=FAULTY)
        serial = ExperimentRunner(serial_orch).pairwise_sweep(sites)
        executor = ProcessExecutor(2)
        try:
            process = ExperimentRunner(process_orch).pairwise_sweep(
                sites, executor=executor
            )
        finally:
            executor.close()
        assert serial == process
        assert serial_orch.experiment_count == process_orch.experiment_count
        assert serial_orch.failures == process_orch.failures
        serial_counters = serial_orch.metrics.snapshot()["counters"]
        process_counters = process_orch.metrics.snapshot()["counters"]
        assert serial_counters == process_counters

    @pytest.mark.parametrize(
        "chunk_size", [1, 3, 10_000], ids=["one", "three", "all"]
    )
    def test_chunked_process_sweep_matches_serial_under_faults(
        self, testbed, targets, chunk_size
    ):
        # Chunk boundaries must not leak into the fault streams: the
        # injected faults, retries, failures, and merged counters are
        # keyed by experiment id, never by which dispatch carried the
        # experiment.
        sites = testbed.site_ids()[:4]
        serial_orch = Orchestrator(testbed, targets, seed=SEED, settings=FAULTY)
        chunked_orch = Orchestrator(testbed, targets, seed=SEED, settings=FAULTY)
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
        assert serial_orch.failures == chunked_orch.failures
        assert (
            serial_orch.metrics.snapshot()["counters"]
            == chunked_orch.metrics.snapshot()["counters"]
        )

    def test_worker_crash_merges_partial_metrics_and_fails_fast(
        self, testbed, targets
    ):
        # A non-measurement error in a worker (here: a corrupted task
        # descriptor) must fail the campaign promptly — but the chunks
        # that already completed still merge their metrics first, so
        # the post-mortem counters reflect the work actually done.
        import dataclasses

        orch = Orchestrator(testbed, targets, seed=SEED)
        runner = ExperimentRunner(orch)
        sites = testbed.site_ids()[:5]
        pairs = [(a, b) for i, a in enumerate(sites) for b in sites[i + 1:]]
        tasks = runner.pairwise_tasks(pairs)  # 10 tasks
        tasks[1] = dataclasses.replace(tasks[1], kind="explode")
        executor = ProcessExecutor(1, chunk_size=1)
        try:
            with pytest.raises(ConfigurationError, match="explode"):
                executor.run_experiments(orch, tasks)
        finally:
            executor.close()
        counters = orch.metrics.snapshot()["counters"]
        # The first chunk completed before the crash and its delta
        # survived the failure...
        assert counters.get("experiments", 0) >= 1
        # ...and the cancellation kept the tail from running.
        assert counters.get("experiments", 0) < len(tasks) - 1

    def test_exhausted_retries_become_undecided_cells(self, testbed, targets):
        orch = Orchestrator(testbed, targets, seed=SEED, settings=ALWAYS_FAILING)
        sites = testbed.site_ids()[:3]
        matrix = ExperimentRunner(orch).pairwise_sweep(sites)
        # Every deployment fails, so every pair degrades to UNDECIDED.
        assert len(orch.failures) == 3
        for failure in orch.failures:
            assert failure.kind == "pairwise"
            assert failure.attempts == 2
            # Exhaustion accounting: the record names the final fault
            # kind, so the audit can say *why* a cell is UNDECIDED.
            assert failure.fault == "announcement"
        client = targets[0].target_id
        obs = matrix.observation(client, sites[0], sites[1])
        assert obs.outcome() is PreferenceOutcome.UNDECIDED
        assert obs.winner_given(sites[0]) is None
        counters = orch.metrics.snapshot()["counters"]
        assert counters["experiments_failed"] == 3
        assert counters["undecided_cells"] == 3 * len(targets)
        assert counters["faults_injected"] >= 6

    def test_measurement_error_does_not_escape_sweep(self, testbed, targets):
        orch = Orchestrator(testbed, targets, seed=SEED, settings=ALWAYS_FAILING)
        ExperimentRunner(orch).pairwise_sweep(testbed.site_ids()[:3])  # no raise

    def test_discover_completes_and_predicts_under_faults(self, testbed, targets):
        # Mild faults: enough injections to exercise the retry path,
        # rare enough that most experiments succeed and prediction
        # still finds clients with total orders.
        settings = CampaignSettings.noiseless(
            fault_announcement_prob=0.05,
            fault_probe_blackout_prob=0.02,
            retry_max_attempts=3,
        )
        anyopt = AnyOpt(testbed, targets=targets, seed=SEED, settings=settings)
        model = anyopt.discover()
        counters = model.metrics["counters"]
        assert counters["faults_injected"] > 0
        assert counters["retries"] > 0
        assert len(model.failures) == counters.get("experiments_failed", 0)
        # Prediction still runs over the degraded model.
        order = tuple(testbed.site_ids())
        results = [
            model.total_order(t.target_id, order) for t in targets
        ]
        assert any(r.has_total_order for r in results)

    def test_undecided_observation_shape(self):
        obs = PairObservation.undecided_pair(1, 2)
        assert obs.outcome() is PreferenceOutcome.UNDECIDED
        with pytest.raises(ReproError):
            PairObservation(1, 2, 1, None, undecided=True)

    def test_failed_experiment_round_trip(self):
        failure = FailedExperiment(
            kind="pairwise",
            subject="pair (2, 5)",
            experiment_ids=(7, 8),
            error="deployment of experiment 7 failed after 2 attempt(s)",
            attempts=2,
            fault="announcement",
        )
        assert FailedExperiment.from_dict(failure.to_dict()) == failure

    def test_failed_experiment_legacy_dict_has_no_fault(self):
        raw = {
            "kind": "pairwise",
            "subject": "pair (2, 5)",
            "experiment_ids": [7, 8],
            "error": "gone",
            "attempts": 2,
        }
        assert FailedExperiment.from_dict(raw).fault is None

    def test_retries_exhausted_error_carries_fault_kind(self):
        from repro.runtime.faults import AnnouncementFailureError

        def always_fails(attempt):
            raise AnnouncementFailureError("announcement lost")

        with pytest.raises(RetriesExhaustedError) as err:
            run_with_retry(always_fails, RetryPolicy(max_attempts=2))
        assert err.value.fault_kind == "announcement"
        # A plain transient has no fault taxonomy entry.
        with pytest.raises(RetriesExhaustedError) as err:
            run_with_retry(
                lambda attempt: (_ for _ in ()).throw(TransientError("x")),
                RetryPolicy(max_attempts=2),
            )
        assert err.value.fault_kind is None


# --- empty measurements -----------------------------------------------------


class TestEmptyMeasurement:
    def test_mean_rtt_none_when_all_unreachable(self, clean_orchestrator, monkeypatch):
        dep = clean_orchestrator.deploy(AnycastConfig(site_order=(1,)))
        monkeypatch.setattr(dep, "forwarding", lambda target: None)
        assert dep.measure_mean_rtt() is None
        counters = clean_orchestrator.metrics.snapshot()["counters"]
        assert counters["measurements_empty"] == 1

    def test_mean_rtt_none_on_empty_target_set(self, clean_orchestrator):
        dep = clean_orchestrator.deploy(AnycastConfig(site_order=(1,)))
        assert dep.measure_mean_rtt(targets=[]) is None

    def test_stability_raises_cleanly_on_empty_epoch(
        self, clean_orchestrator, monkeypatch
    ):
        from repro.core.stability import run_stability_study
        from repro.measurement.orchestrator import Deployment

        monkeypatch.setattr(
            Deployment, "measure_mean_rtt", lambda self, targets=None: None
        )
        with pytest.raises(MeasurementError, match="stability epoch 0"):
            run_stability_study(
                clean_orchestrator, AnycastConfig(site_order=(1,)), epochs=1
            )


# --- experiment-id hygiene --------------------------------------------------


class TestExperimentIds:
    def test_reused_id_rejected(self, clean_orchestrator):
        ids = clean_orchestrator.reserve_experiment_ids(1)
        clean_orchestrator.deploy(
            AnycastConfig(site_order=(1,)), experiment_id=ids[0]
        )
        with pytest.raises(ConfigurationError, match="already deployed"):
            clean_orchestrator.deploy(
                AnycastConfig(site_order=(2,)), experiment_id=ids[0]
            )

    def test_never_reserved_id_rejected(self, clean_orchestrator):
        with pytest.raises(ConfigurationError, match="never reserved"):
            clean_orchestrator.deploy(
                AnycastConfig(site_order=(1,)), experiment_id=99
            )

    def test_out_of_range_id_rejected(self, clean_orchestrator):
        clean_orchestrator.reserve_experiment_ids(2)
        with pytest.raises(ConfigurationError, match="never reserved"):
            clean_orchestrator.deploy(
                AnycastConfig(site_order=(1,)), experiment_id=0
            )


# --- checkpoint / resume ----------------------------------------------------


@pytest.fixture(scope="module")
def checkpoint_env(testbed, targets, tmp_path_factory):
    """One uninterrupted faulty run plus a killed-then-resumed one."""
    settings = CampaignSettings.noiseless(
        fault_announcement_prob=0.1, retry_max_attempts=2
    )
    path = tmp_path_factory.mktemp("ckpt") / "campaign.json"

    uninterrupted = AnyOpt(testbed, targets=targets, seed=SEED, settings=settings)
    full_model = uninterrupted.discover()

    real_save = checkpoint_io.save_checkpoint
    saves = {"count": 0}

    def killing_save(progress, target_path):
        real_save(progress, target_path)
        saves["count"] += 1
        if saves["count"] >= 3:
            raise KeyboardInterrupt

    killed = AnyOpt(testbed, targets=targets, seed=SEED, settings=settings)
    checkpoint_io.save_checkpoint = killing_save
    try:
        with pytest.raises(KeyboardInterrupt):
            killed.discover(checkpoint_path=path)
    finally:
        checkpoint_io.save_checkpoint = real_save

    resumed = AnyOpt(testbed, targets=targets, seed=SEED, settings=settings)
    resumed_model = resumed.discover(checkpoint_path=path, resume_from=path)
    return settings, path, full_model, resumed_model


class TestCheckpointResume:
    def test_resumed_model_byte_identical(self, checkpoint_env):
        _, _, full_model, resumed_model = checkpoint_env
        assert json.dumps(model_to_dict(full_model)) == json.dumps(
            model_to_dict(resumed_model)
        )

    def test_resumed_failures_match_uninterrupted(self, checkpoint_env):
        _, _, full_model, resumed_model = checkpoint_env
        assert resumed_model.failures == full_model.failures

    def test_checkpoint_validates_seed_and_settings(
        self, checkpoint_env, testbed, targets
    ):
        settings, path, _, _ = checkpoint_env
        from repro.core.twolevel import SiteLevelMode

        with pytest.raises(ConfigurationError, match="seed"):
            load_checkpoint(path, SEED + 1, settings, SiteLevelMode.PAIRWISE)
        with pytest.raises(ConfigurationError, match="settings"):
            load_checkpoint(
                path, SEED, settings.replace(retry_max_attempts=9),
                SiteLevelMode.PAIRWISE,
            )
        with pytest.raises(ConfigurationError, match="mode"):
            load_checkpoint(path, SEED, settings, SiteLevelMode.RTT_HEURISTIC)

    def test_save_is_atomic(self, checkpoint_env, tmp_path):
        settings, path, _, _ = checkpoint_env
        from repro.core.twolevel import SiteLevelMode

        progress = checkpoint_io.DiscoveryProgress(
            seed=SEED, settings=settings, site_level_mode=SiteLevelMode.PAIRWISE
        )
        target = tmp_path / "atomic.json"
        save_checkpoint(progress, target)
        assert target.exists()
        assert not (tmp_path / "atomic.json.tmp").exists()
        loaded = load_checkpoint(target, SEED, settings, SiteLevelMode.PAIRWISE)
        assert loaded.experiment_count == 0
        assert loaded.rtt_matrix is None


def _checkpoint_documents():
    """One minimal document per checkpoint kind, with its loader."""
    from repro.core.twolevel import SiteLevelMode

    settings = CampaignSettings()
    discovery = checkpoint_io.progress_to_dict(
        checkpoint_io.DiscoveryProgress(
            seed=SEED, settings=settings, site_level_mode=SiteLevelMode.PAIRWISE
        )
    )
    repair = checkpoint_io.repair_progress_to_dict(
        checkpoint_io.RepairProgress(
            seed=SEED,
            settings=settings,
            announce_order=(1, 2),
            max_rounds=2,
            budget=None,
            escalate_attempts=1,
            model_fingerprint="0" * 64,
        )
    )
    return [
        (discovery, checkpoint_io.progress_from_dict),
        (repair, checkpoint_io.repair_progress_from_dict),
    ]


@pytest.mark.parametrize(
    "document,loader", _checkpoint_documents(), ids=["discovery", "repair"]
)
class TestCheckpointDocuments:
    """Malformed checkpoints fail with a typed error naming the
    problem, never a bare TypeError or KeyError."""

    def test_retired_settings_field_is_typed(self, document, loader):
        """A checkpoint written while ``engine_mode`` was a setting."""
        doc = json.loads(json.dumps(document))
        doc["settings"]["engine_mode"] = "delta"
        with pytest.raises(checkpoint_io.CheckpointError, match="'engine_mode'"):
            loader(doc)

    def test_missing_key_is_typed(self, document, loader):
        doc = json.loads(json.dumps(document))
        del doc["rtt_matrix"]
        with pytest.raises(checkpoint_io.CheckpointError, match="'rtt_matrix'"):
            loader(doc)

    def test_wrong_format_is_typed(self, document, loader):
        with pytest.raises(checkpoint_io.CheckpointError, match="document"):
            loader({**document, "format": "anyopt-model"})
        with pytest.raises(checkpoint_io.CheckpointError, match="document"):
            loader([document])
