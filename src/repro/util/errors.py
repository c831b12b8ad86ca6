"""Exception hierarchy for the repro package.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything from this package with a single except clause while
still distinguishing subsystems when they need to.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class TopologyError(ReproError):
    """An AS-level or router-level topology is malformed or inconsistent.

    Raised, for example, when an edge references an unknown AS, when an
    AS is given two conflicting relationships with the same neighbor, or
    when a generated topology fails its structural invariants.
    """


class ConfigurationError(ReproError):
    """An anycast configuration is invalid.

    Raised when a configuration enables a site that does not exist,
    enables zero sites, or pairs a site with a provider it does not
    connect to.
    """


class ConvergenceBudgetError(ReproError):
    """A BGP convergence run exhausted its event budget.

    Gao-Rexford policies guarantee convergence, so hitting the budget
    means either a topology far larger than the configured cap (raise
    ``CampaignSettings.max_convergence_events``) or a genuine policy
    bug producing an oscillation.  The census attributes let the
    operator tell the two apart without rerunning under a debugger:
    a run touching nearly every AS with ever-growing virtual time is
    an oscillation; one that merely ran out of headroom touches a
    bounded set.

    Attributes:
        budget: the event cap that was exhausted.
        events: events processed when the run was aborted (the first
            census to exceed the budget; on the delta path this includes
            the reconstructed deliveries to aggregated stubs, so it can
            land past ``budget + 1``).
        ases_touched: distinct ASes that had received at least one event.
        virtual_time_ms: the virtual clock at the aborting event.
    """

    def __init__(self, budget: int, events: int, ases_touched: int, virtual_time_ms: float):
        self.budget = budget
        self.events = events
        self.ases_touched = ases_touched
        self.virtual_time_ms = virtual_time_ms
        super().__init__(
            f"BGP event budget exhausted ({events} events > budget {budget}; "
            f"{ases_touched} ASes touched, virtual time {virtual_time_ms:.1f} ms); "
            "the configuration did not converge"
        )


class MeasurementError(ReproError):
    """A measurement could not be carried out.

    Raised when an experiment is asked to probe targets while no site is
    announcing, or when too few ICMP replies survive loss to produce a
    valid RTT sample.
    """


class TransientError(MeasurementError):
    """A retryable, transient campaign failure.

    Raised by the fault-injection layer (:mod:`repro.runtime.faults`)
    for the failure modes a days-long real-Internet campaign sees —
    announcement failures, convergence timeouts, probe blackouts,
    orchestrator-session resets.  :func:`repro.runtime.retry.run_with_retry`
    retries these with exponential backoff (in virtual time); anything
    else propagates immediately.

    ``fault_kind`` identifies which injected failure mode a subclass
    models (the :data:`repro.runtime.faults.FAULT_KINDS` vocabulary);
    None for transient errors with no fault identity.
    """

    fault_kind = None


class RetriesExhaustedError(MeasurementError):
    """An operation kept failing transiently until its retry budget ran out.

    Campaign drivers catch this (and any other
    :class:`MeasurementError`) per experiment, record a typed
    ``FailedExperiment``, and degrade gracefully instead of aborting
    the whole campaign.
    """

    def __init__(self, description: str, attempts: int, last_error=None):
        self.description = description
        self.attempts = attempts
        self.last_error = last_error
        detail = f": {last_error}" if last_error is not None else ""
        super().__init__(
            f"{description} failed after {attempts} attempt(s){detail}"
        )

    @property
    def fault_kind(self):
        """The final attempt's fault kind (e.g. ``"probe-blackout"``),
        or None when the last error carried no fault identity."""
        return getattr(self.last_error, "fault_kind", None)
