"""The AnyOpt facade: measure, model, predict, optimize (S4.5).

Typical use::

    testbed = build_paper_testbed(seed=7)
    anyopt = AnyOpt(testbed, seed=7)
    model = anyopt.discover()                  # BGP experiments
    report = anyopt.optimize(model)            # offline SPLPO search
    evaluation = anyopt.evaluate(model, report.best_config)
    peers = anyopt.incorporate_peers(report.best_config)
"""

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Sequence

from repro.core.config import AnycastConfig
from repro.core.experiments import ExperimentRunner
from repro.core.optimizer import OptimizationReport, search_configurations
from repro.core.peers import OnePassReport, one_pass_peer_selection
from repro.core.prediction import CatchmentPredictor, PredictionReport
from repro.core.twolevel import SiteLevelMode, TwoLevelModel, discover_two_level
from repro.measurement.orchestrator import Deployment, Orchestrator
from repro.measurement.rtt import RttMatrix
from repro.measurement.targets import TargetSet, select_targets
from repro.runtime.executor import CampaignExecutor, make_executor
from repro.runtime.settings import CampaignSettings
from repro.topology.testbed import Testbed


@dataclass
class AnyOptModel:
    """Everything AnyOpt learned from its measurement campaign."""

    testbed: Testbed
    rtt_matrix: RttMatrix
    twolevel: TwoLevelModel
    predictor: CatchmentPredictor
    experiments_used: int
    #: Campaign metrics snapshot taken when discovery finished (None
    #: for models loaded from disk); see :mod:`repro.runtime.metrics`.
    metrics: Optional[Dict] = field(default=None, compare=False)
    #: Experiments the campaign gave up on (degradation report); not
    #: serialized with the model.
    failures: list = field(default_factory=list, compare=False)

    def total_order(self, client_id: int, site_order: Sequence[int]):
        """Delegate so the model can be used wherever a preference
        model is expected."""
        return self.twolevel.total_order(client_id, site_order)


class AnyOpt:
    """End-to-end driver for the AnyOpt pipeline on a testbed.

    Campaign knobs — the drift/noise models plus the runtime options
    (parallelism, convergence caching, fault injection, retries) —
    live in one :class:`~repro.runtime.settings.CampaignSettings`
    value.

    With ``executor="process"`` the pool of forked workers is shared
    across the campaign's phases (discover → audit → repair → peers);
    call :meth:`close` — or use ``AnyOpt`` as a context manager — to
    shut the workers down when the campaign is over.
    """

    def __init__(
        self,
        testbed: Testbed,
        targets: Optional[TargetSet] = None,
        seed=0,
        site_level_mode: SiteLevelMode = SiteLevelMode.PAIRWISE,
        settings: Optional[CampaignSettings] = None,
    ):
        self.settings = settings if settings is not None else CampaignSettings()
        self.testbed = testbed
        self.seed = seed
        self.site_level_mode = site_level_mode
        self.targets = (
            targets
            if targets is not None
            else select_targets(testbed.internet, seed=seed)
        )
        self.orchestrator = Orchestrator(
            testbed, self.targets, seed=seed, settings=self.settings
        )
        self.runner = ExperimentRunner(self.orchestrator)
        #: The campaign's executor, cached across phases so a process
        #: pool forked for discovery stays warm for audit repair and
        #: peer incorporation instead of re-forking per phase.
        self._executor: Optional[CampaignExecutor] = None
        self._executor_key = None

    def _campaign_executor(self, parallelism: Optional[int]) -> CampaignExecutor:
        """The warm, phase-spanning executor for this campaign.

        One executor per (width, kind, chunk size): repeated phases at
        the same parallelism reuse it — for ``executor="process"``
        that keeps the forked worker pool (and its warm convergence
        caches) alive across discover → audit → repair.  Changing the
        width swaps the executor (the old one is closed).
        """
        width = self.settings.parallelism if parallelism is None else parallelism
        key = (width, self.settings.executor, self.settings.process_chunk_size)
        if self._executor is None or self._executor_key != key:
            self.close()
            self._executor = make_executor(
                width,
                kind=self.settings.executor,
                chunk_size=self.settings.process_chunk_size,
            )
            self._executor_key = key
        return self._executor

    def close(self) -> None:
        """Shut down the campaign's pooled workers (idempotent).

        Only matters for ``executor="process"`` — forked workers stay
        warm between phases and need an explicit shutdown when the
        campaign is over.  ``AnyOpt`` is also a context manager::

            with AnyOpt(testbed, seed=7, settings=settings) as anyopt:
                model = anyopt.discover()
        """
        if self._executor is not None:
            self._executor.close()
            self._executor = None
            self._executor_key = None

    def __enter__(self) -> "AnyOpt":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    @property
    def metrics(self):
        """The campaign's :class:`~repro.runtime.metrics.MetricsRegistry`."""
        return self.orchestrator.metrics

    @property
    def tracer(self):
        """The campaign's :class:`~repro.obs.trace.Tracer`."""
        return self.orchestrator.tracer

    # -- measurement -------------------------------------------------------

    def discover(
        self,
        parallelism: Optional[int] = None,
        checkpoint_path=None,
        resume_from=None,
    ) -> AnyOptModel:
        """Run the full measurement campaign (S4.5 steps 1-2):
        singleton RTT experiments plus two-level pairwise discovery.

        ``parallelism`` is the single entry point selecting serial vs.
        pooled execution: ``1`` (or the settings default) runs the
        classic serial campaign, ``N > 1`` dispatches the independent
        experiments onto an ``N``-worker pool.  Experiment ids are
        reserved in serial order before dispatch, so the resulting
        model is bit-identical either way.

        ``checkpoint_path`` makes discovery write a checkpoint after
        each completed phase; ``resume_from`` loads one (it must match
        this campaign's seed, settings, and site-level mode), replays
        its completed phases, and runs only the remainder — producing
        a model byte-identical to an uninterrupted run.
        """
        # Imported lazily: repro.io imports repro.core.anyopt for the
        # model serializer, so a module-level import would be a cycle.
        from repro.io import checkpoint as checkpoint_io

        executor = self._campaign_executor(parallelism)
        before = self.orchestrator.experiment_count
        failures_before = len(self.orchestrator.failures)

        if resume_from is not None:
            progress = checkpoint_io.load_checkpoint(
                resume_from, self.seed, self.settings, self.site_level_mode
            )
            # Completed phases already consumed ids 1..k; mark them
            # spent so the remaining phases draw the same ids they
            # would have in the uninterrupted run.
            self.orchestrator.restore_experiment_state(progress.experiment_count)
            for failure in progress.failures:
                self.orchestrator.record_failure(failure)
        else:
            progress = checkpoint_io.DiscoveryProgress(
                seed=self.seed,
                settings=self.settings,
                site_level_mode=self.site_level_mode,
            )

        def save() -> None:
            progress.experiment_count = self.orchestrator.experiment_count
            progress.failures = list(self.orchestrator.failures[failures_before:])
            if checkpoint_path is not None:
                checkpoint_io.save_checkpoint(progress, checkpoint_path)

        # The campaign root span.  Executor kind and parallelism are
        # deliberately NOT attributes: the exported trace must be
        # identical across --executor modes.  The executor is NOT
        # closed here — it stays warm for the audit/repair phases that
        # typically follow; AnyOpt.close() shuts it down.
        with self.metrics.phase("discover"), self.tracer.span(
            "discover",
            sites=len(self.testbed.site_ids()),
            providers=len(self.testbed.provider_asns()),
            site_level=self.site_level_mode.value,
            resumed=resume_from is not None,
        ):
            if progress.rtt_matrix is not None:
                rtt_matrix = progress.rtt_matrix
            else:
                rtt_matrix = self.orchestrator.measure_rtt_matrix(executor=executor)
                progress.rtt_matrix = rtt_matrix
                save()
            twolevel = discover_two_level(
                self.runner,
                rtt_matrix=rtt_matrix,
                site_level_mode=self.site_level_mode,
                executor=executor,
                progress=progress,
                checkpoint=save,
            )
        return AnyOptModel(
            testbed=self.testbed,
            rtt_matrix=rtt_matrix,
            twolevel=twolevel,
            predictor=CatchmentPredictor(twolevel, rtt_matrix),
            experiments_used=self.orchestrator.experiment_count - before,
            metrics=self.metrics.snapshot(),
            failures=list(self.orchestrator.failures[failures_before:]),
        )

    # -- integrity ------------------------------------------------------------

    def audit(
        self,
        model: AnyOptModel,
        ground_truth_k: int = 0,
        min_accuracy: float = 0.9,
        announce_order: Optional[Sequence[int]] = None,
    ):
        """Audit ``model`` for prediction-integrity violations.

        Sweeps every client's tournaments for cycles, INCONSISTENT,
        UNDECIDED, and unmeasured cells plus RTT-matrix holes, and
        marks the clients without a usable total order as quarantined.
        With ``ground_truth_k > 0`` the audit additionally deploys
        that many seeded-random configurations and cross-checks
        predicted catchments against measured ones, raising
        :class:`~repro.audit.findings.AuditViolation` (report
        attached) when accuracy lands below ``min_accuracy``.
        """
        # Imported lazily: repro.audit imports repro.io for repair
        # checkpoints, which imports repro.core — keep the cycle cut.
        from repro.audit import audit_model, cross_check

        report = audit_model(
            model,
            self.targets,
            announce_order=announce_order,
            failures=model.failures or self.orchestrator.failures,
            metrics=self.metrics,
            tracer=self.tracer,
        )
        if ground_truth_k > 0:
            cross_check(
                self.orchestrator,
                model,
                self.targets,
                k=ground_truth_k,
                seed=self.seed,
                min_accuracy=min_accuracy,
                quarantined=frozenset(report.quarantined_clients()),
                audit_report=report,
                metrics=self.metrics,
                tracer=self.tracer,
            )
        return report

    def repair(
        self,
        model: AnyOptModel,
        report=None,
        max_rounds: int = 3,
        budget: Optional[int] = None,
        parallelism: Optional[int] = None,
        checkpoint_path=None,
        resume_from=None,
        announce_order: Optional[Sequence[int]] = None,
    ):
        """Self-heal ``model`` (mutated in place) by re-running only
        the experiments implicated in audit findings.

        Runs up to ``max_rounds`` escalating repair rounds under an
        optional overall experiment ``budget``; same seed ⇒ same
        repair transcript on any executor.  ``checkpoint_path`` /
        ``resume_from`` give repair the discovery campaign's
        kill-and-resume contract.
        """
        from repro.audit import repair_model

        return repair_model(
            self.orchestrator,
            model,
            self.targets,
            report=report,
            announce_order=announce_order,
            max_rounds=max_rounds,
            budget=budget,
            executor=self._campaign_executor(parallelism),
            checkpoint_path=checkpoint_path,
            resume_from=resume_from,
        )

    # -- offline computation ---------------------------------------------------

    def optimize(
        self,
        model: AnyOptModel,
        strategy: str = "exhaustive",
        sizes: Optional[Iterable[int]] = None,
        max_evaluations: Optional[int] = None,
        audit_report=None,
        exclude_clients: Optional[Iterable[int]] = None,
        **solver_kwargs,
    ) -> OptimizationReport:
        """Search configurations offline (S4.5 step 3).

        ``audit_report`` (or an explicit ``exclude_clients``) keeps
        quarantined clients out of the SPLPO input; the exclusion is
        accounted in the ``splpo_clients_excluded`` counter so
        ``--stats`` can show what the audit removed.
        """
        excluded = set(exclude_clients) if exclude_clients is not None else set()
        if audit_report is not None:
            excluded.update(audit_report.quarantined_clients())
        return search_configurations(
            model.twolevel,
            model.rtt_matrix,
            self.targets,
            strategy=strategy,
            sizes=sizes,
            max_evaluations=max_evaluations,
            seed=self.seed,
            exclude_clients=excluded if excluded else None,
            metrics=self.metrics,
            **solver_kwargs,
        )

    # -- deployment & validation --------------------------------------------------

    def deploy(self, config: AnycastConfig) -> Deployment:
        return self.orchestrator.deploy(config)

    def evaluate(self, model: AnyOptModel, config: AnycastConfig) -> PredictionReport:
        """Deploy ``config`` and compare predictions with measurements
        (the S5.2 experiment)."""
        deployment = self.orchestrator.deploy(config)
        return model.predictor.evaluate(
            config, deployment, self.targets, metrics=self.metrics
        )

    def incorporate_peers(
        self,
        config: AnycastConfig,
        peer_ids: Optional[Sequence[int]] = None,
        parallelism: Optional[int] = None,
    ) -> OnePassReport:
        """Run the one-pass peer heuristic on top of ``config`` (S4.4).

        The single-peer trials are independent; ``parallelism`` pools
        them like :meth:`discover` does for pairwise experiments.
        """
        return one_pass_peer_selection(
            self.orchestrator,
            config,
            peer_ids=peer_ids,
            executor=self._campaign_executor(parallelism),
        )
