"""Campaign-level settings: one immutable value for every knob.

The noise models (session churn, RTT drift, delay jitter) and the
runtime knobs (parallelism, convergence cache, fault injection,
retries) live in a single :class:`CampaignSettings` value that
:class:`AnyOpt` and :class:`~repro.measurement.orchestrator.Orchestrator`
both take, so their signatures do not grow with every refinement."""

import dataclasses
from dataclasses import dataclass
from typing import Optional

from repro.util.errors import ConfigurationError


@dataclass(frozen=True)
class CampaignSettings:
    """Everything that tunes how a measurement campaign runs.

    Attributes:
        session_churn_prob: per-experiment probability that an AS's
            interior-routing state changed since the topology was
            built (the measurement-to-deployment drift).
        rtt_drift_sigma: relative sigma of per-target path-RTT drift.
        rtt_bias_sigma: relative sigma of the per-experiment epoch bias.
        bgp_delay_jitter_ms: mean of the per-run exponential jitter on
            every link's control-plane delay.
        max_convergence_events: event budget per convergence run;
            exhaustion raises
            :class:`~repro.util.errors.ConvergenceBudgetError` with an
            event census.  ``None`` (the default) auto-scales the cap
            with topology size (never below the historical 2M floor).
        parallelism: default worker count for campaign execution; 1
            runs experiments serially.
        executor: which worker pool ``parallelism > 1`` selects:
            ``"thread"`` (the default; workers share the orchestrator)
            or ``"process"`` (workers are forked processes, each with
            its own orchestrator rebuilt from the campaign spec).
            Results are bit-identical either way — experiment ids, not
            workers, key every noise stream.
        process_chunk_size: how many experiment tasks the process
            executor ships to a worker per dispatch.  ``None`` (the
            default) auto-sizes chunks from the task count and pool
            width; explicit values trade scheduling granularity
            (smaller chunks balance better) against per-dispatch
            pickling and metrics-merge overhead (larger chunks
            amortize better).  Chunking never changes results — only
            how many main-process round trips a campaign costs.
        convergence_cache: reuse converged BGP state across identical
            deployments (bit-identical; see :mod:`repro.runtime.cache`).
        convergence_cache_size: LRU capacity of that cache.
        convergence_cache_path: directory for the persistent on-disk
            convergence store (see :mod:`repro.io.cachestore`); None
            keeps the cache purely in memory.  A shared directory is
            what lets process workers and repeated CLI invocations hit
            each other's converged states.
        fault_announcement_prob: per-attempt probability that a BGP
            announcement transiently fails (see
            :mod:`repro.runtime.faults`).
        fault_convergence_timeout_prob: per-attempt probability that an
            experiment's convergence window times out.
        fault_probe_blackout_prob: per-attempt probability that an
            experiment's measurement session loses every probe.
        fault_session_reset_prob: per-attempt probability that the
            orchestrator's testbed session resets mid-experiment.
        retry_max_attempts: attempts per experiment operation before a
            transient failure becomes a ``FailedExperiment`` (1
            disables retrying).
        retry_backoff_base_ms: virtual backoff before the first retry.
        retry_backoff_factor: multiplier per further retry.
        retry_backoff_max_ms: cap on a single virtual backoff interval.
    """

    session_churn_prob: float = 0.02
    rtt_drift_sigma: float = 0.04
    rtt_bias_sigma: float = 0.03
    bgp_delay_jitter_ms: float = 20.0
    max_convergence_events: Optional[int] = None
    parallelism: int = 1
    executor: str = "thread"
    process_chunk_size: Optional[int] = None
    convergence_cache: bool = True
    convergence_cache_size: int = 256
    convergence_cache_path: Optional[str] = None
    fault_announcement_prob: float = 0.0
    fault_convergence_timeout_prob: float = 0.0
    fault_probe_blackout_prob: float = 0.0
    fault_session_reset_prob: float = 0.0
    retry_max_attempts: int = 3
    retry_backoff_base_ms: float = 1000.0
    retry_backoff_factor: float = 2.0
    retry_backoff_max_ms: float = 60_000.0

    def __post_init__(self):
        if not 0.0 <= self.session_churn_prob <= 1.0:
            raise ConfigurationError("session_churn_prob must be in [0, 1]")
        if self.rtt_drift_sigma < 0 or self.rtt_bias_sigma < 0:
            raise ConfigurationError("RTT drift sigmas must be non-negative")
        if self.bgp_delay_jitter_ms < 0:
            raise ConfigurationError("bgp_delay_jitter_ms must be non-negative")
        if self.max_convergence_events is not None and self.max_convergence_events < 1:
            raise ConfigurationError(
                "max_convergence_events must be >= 1 (or None for auto)"
            )
        if self.parallelism < 1:
            raise ConfigurationError("parallelism must be >= 1")
        if self.executor not in ("thread", "process"):
            raise ConfigurationError(
                f"executor must be 'thread' or 'process', got {self.executor!r}"
            )
        if self.process_chunk_size is not None and self.process_chunk_size < 1:
            raise ConfigurationError("process_chunk_size must be >= 1 (or None)")
        if self.convergence_cache_size < 1:
            raise ConfigurationError("convergence_cache_size must be >= 1")
        for knob in (
            "fault_announcement_prob",
            "fault_convergence_timeout_prob",
            "fault_probe_blackout_prob",
            "fault_session_reset_prob",
        ):
            if not 0.0 <= getattr(self, knob) <= 1.0:
                raise ConfigurationError(f"{knob} must be in [0, 1]")
        if self.retry_max_attempts < 1:
            raise ConfigurationError("retry_max_attempts must be >= 1")
        if self.retry_backoff_base_ms < 0 or self.retry_backoff_max_ms < 0:
            raise ConfigurationError("retry backoff intervals must be non-negative")
        if self.retry_backoff_factor < 1.0:
            raise ConfigurationError("retry_backoff_factor must be >= 1")

    @property
    def faults_enabled(self) -> bool:
        """True when any fault-injection knob is nonzero."""
        return (
            self.fault_announcement_prob > 0.0
            or self.fault_convergence_timeout_prob > 0.0
            or self.fault_probe_blackout_prob > 0.0
            or self.fault_session_reset_prob > 0.0
        )

    @classmethod
    def noiseless(cls, **overrides) -> "CampaignSettings":
        """Settings with every stochastic drift model disabled.

        Deployments become exactly repeatable, which also makes the
        convergence cache hit on every redeployment of a configuration.
        """
        base = dict(
            session_churn_prob=0.0,
            rtt_drift_sigma=0.0,
            rtt_bias_sigma=0.0,
            bgp_delay_jitter_ms=0.0,
        )
        base.update(overrides)
        return cls(**base)

    def replace(self, **changes) -> "CampaignSettings":
        """A copy with the given fields changed (re-validated)."""
        return dataclasses.replace(self, **changes)

