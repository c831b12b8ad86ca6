"""Event-driven propagation of anycast announcements to convergence.

The engine owns a virtual clock in milliseconds.  Each
:class:`SiteInjection` schedules a route injection at its announcement
time; speaker exports are delivered to neighbors after the link's
control-plane propagation delay.  Because delays are seeded at topology
build, the *arrival order* of competing advertisements at every AS is
deterministic — which is exactly what the paper's S4.2 experiments
manipulate by spacing announcements.

Campaigns run the engine thousands of times over one topology, so by
default each run goes through :mod:`repro.bgp.delta`, which keeps its
speakers (and the graph's precomputed
:class:`~repro.topology.precompute.TopologyTables`) alive across runs
and only pays for the state a run actually touched.
``reuse_state=False`` selects the build-everything-per-run path, kept
as the reference the delta path is benchmarked and bit-compared
against.
"""

import heapq
import itertools
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bgp.delta import DeltaConverger
from repro.bgp.messages import SitePop
from repro.bgp.rib import RouterState
from repro.bgp.router import BGPSpeaker
from repro.obs.log import get_logger
from repro.topology.astopo import Relationship
from repro.topology.generator import Internet
from repro.util.errors import ConvergenceBudgetError, ReproError
from repro.util.rng import derive_rng

logger = get_logger("engine")

#: Private ASN used as the anycast origin network (the CDN).
ANYCAST_ORIGIN_ASN = 65000

#: Test prefix announced in all experiments (paper: prefixes the
#: authors control, serving no clients).
DEFAULT_ANYCAST_PREFIX = "192.0.2.0/24"

#: Floor of the auto-scaled per-run event budget (the historical hard
#: cap; topologies large enough to need more get more — see
#: :meth:`BGPEngine.event_budget`).
_MAX_EVENTS = 2_000_000

#: Auto-budget headroom per AS: generously above the events-per-AS any
#: converging Gao-Rexford run produces (the tracked 174-AS workload
#: averages ~4 events per AS per run).
_EVENTS_PER_AS = 400


@dataclass(frozen=True)
class SiteInjection:
    """One site announcing the anycast prefix through one neighbor AS.

    Attributes:
        host_asn: the AS receiving the announcement (a transit provider
            or a settlement-free peer of the anycast network).
        site_id: the announcing anycast site.
        pop_id: attachment PoP inside ``host_asn`` (None if single-PoP).
        link_rtt_ms: RTT across the site's access link to that AS.
        rel_from_host: the anycast origin's relationship as seen by the
            host — CUSTOMER when the host sells transit to the anycast
            network, PEER for settlement-free peering.
        announce_time_ms: virtual time at which the announcement is
            made; staggering these reproduces the paper's
            announcement-order experiments.
        prepend: extra copies of the origin ASN prepended to the
            announced AS path (traffic-engineering knob; paper S6).
        poison: ASNs inserted into the announced path so their loop
            prevention drops the route — the BGP poisoning technique
            the paper lists among its future-work control knobs (S6).
    """

    host_asn: int
    site_id: int
    pop_id: Optional[int]
    link_rtt_ms: float
    rel_from_host: Relationship = Relationship.CUSTOMER
    announce_time_ms: float = 0.0
    prepend: int = 0
    poison: Tuple[int, ...] = ()


@dataclass(frozen=True)
class SiteWithdrawal:
    """Scheduled removal of one site's announcement from its host AS.

    Used to model reconfiguration: a running deployment withdraws a
    site (maintenance, DDoS response) and the engine reconverges.
    """

    host_asn: int
    site_id: int
    withdraw_time_ms: float


@dataclass
class ConvergedState:
    """The outcome of running the engine to quiescence.

    ``states`` covers every AS in the topology.  Treat the contained
    :class:`RouterState` objects as immutable: states of ASes the run
    never touched are shared between results (and with the convergence
    cache), so mutating one would corrupt other results.
    """

    prefix: str
    origin_asn: int
    states: Dict[int, RouterState]
    injections: Tuple[SiteInjection, ...]
    convergence_time_ms: float = 0.0
    message_count: int = 0
    enabled_sites: Tuple[int, ...] = field(default=())

    def state_of(self, asn: int) -> RouterState:
        try:
            return self.states[asn]
        except KeyError:
            raise ReproError(f"no BGP state for AS {asn}") from None


class BGPEngine:
    """Runs anycast announcements over an :class:`Internet` to
    convergence and returns the per-AS routing state.

    ``cache`` (a :class:`repro.runtime.cache.ConvergenceCache`) stores
    converged states keyed by the exact run inputs; a hit skips
    propagation entirely and is bit-identical to re-running.
    ``metrics`` (a :class:`repro.runtime.metrics.MetricsRegistry`)
    receives the convergence work counters.

    The engine has two convergence paths, bit-identical to each other.
    ``reuse_state=True`` (the default) runs delta convergence (see
    :mod:`repro.bgp.delta`): it tracks the touched-AS set, restores
    only it between runs, and collapses pure-stub ASes (every session
    with a provider, any homing degree) out of the event heap.  Each
    run checks out its own speaker set, so one engine remains safe to
    share across executor threads.  ``reuse_state=False`` builds one
    speaker per AS for every run: the reference the delta path is
    tested and benchmarked against.

    ``max_events`` caps the events one run may process; ``None``
    auto-scales the cap with topology size.  Exhausting it raises
    :class:`~repro.util.errors.ConvergenceBudgetError` with an event
    census.
    """

    def __init__(
        self,
        internet: Internet,
        origin_asn: int = ANYCAST_ORIGIN_ASN,
        prefix: str = DEFAULT_ANYCAST_PREFIX,
        cache=None,
        metrics=None,
        tracer=None,
        reuse_state: bool = True,
        max_events: Optional[int] = None,
    ):
        if max_events is not None and max_events < 1:
            raise ReproError("max_events must be >= 1 (or None for auto)")
        self.internet = internet
        self.origin_asn = origin_asn
        self.prefix = prefix
        self.cache = cache
        self.metrics = metrics
        self.tracer = tracer
        self.reuse_state = reuse_state
        self.max_events = max_events
        self._delta = DeltaConverger(self) if reuse_state else None

    def event_budget(self) -> int:
        """The per-run event cap: explicit ``max_events``, or a budget
        scaling with topology size (never below the historical 2M
        floor, so small topologies keep their old headroom)."""
        if self.max_events is not None:
            return self.max_events
        return max(_MAX_EVENTS, _EVENTS_PER_AS * len(self.internet.graph))

    def run(
        self,
        injections: Sequence[SiteInjection],
        igp_overlay: Optional[Dict[Tuple[int, int], int]] = None,
        delay_jitter_ms: float = 0.0,
        delay_nonce: int = 0,
        withdrawals: Sequence[SiteWithdrawal] = (),
    ) -> ConvergedState:
        """Announce the prefix per ``injections`` and converge.

        ``igp_overlay`` overrides per-session interior costs for this
        run only, modeling interior-routing changes between
        experiments (the drift that costs the paper its last few
        accuracy points).

        ``delay_jitter_ms`` adds a per-run exponential jitter to every
        link's control-plane delay (seeded by ``delay_nonce``).  With
        *spaced* announcements the spacing dominates and arrival order
        stays controlled; with *simultaneous* announcements the race
        outcome varies run to run — exactly why the paper's naive
        no-order experiments produce cyclic preferences (S5.1).

        Raises :class:`ReproError` if an injection or withdrawal
        references an AS not in the topology, and
        :class:`~repro.util.errors.ConvergenceBudgetError` (with an
        event census) if the event budget is exhausted — which would
        indicate a routing oscillation, impossible under Gao-Rexford
        policies, so treated as a bug.
        """
        graph = self.internet.graph
        if not injections:
            raise ReproError("cannot run BGP engine with no injections")
        for inj in injections:
            if inj.host_asn not in graph:
                raise ReproError(f"injection references unknown AS {inj.host_asn}")
        for wd in withdrawals:
            if wd.host_asn not in graph:
                raise ReproError(f"withdrawal references unknown AS {wd.host_asn}")

        start_unix = time.time()
        start = time.perf_counter()
        cache_key = None
        if self.cache is not None:
            cache_key = self.cache.key_for(
                injections, igp_overlay, delay_jitter_ms, delay_nonce, withdrawals
            )
            cached = self.cache.lookup(cache_key)
            if cached is not None:
                elapsed = time.perf_counter() - start
                if self.metrics is not None:
                    self.metrics.histogram("convergence_cached_s").observe(elapsed)
                if self.tracer is not None:
                    # Attributes are virtual-clock quantities, so the
                    # span is identical whether served cold or cached —
                    # except for the cache_hit flag itself.
                    self.tracer.record(
                        "converge",
                        attributes={
                            "cache_hit": True,
                            "messages": cached.message_count,
                            "convergence_time_ms": cached.convergence_time_ms,
                        },
                        start_unix=start_unix,
                        duration_s=elapsed,
                    )
                return cached

        jitter: Dict[Tuple[int, int], float] = {}
        if delay_jitter_ms > 0.0:
            rng = derive_rng(self.internet.seed, "delay-jitter", delay_nonce)
            for link in graph.links():
                jitter[(link.a, link.b)] = rng.expovariate(1.0 / delay_jitter_ms)
                jitter[(link.b, link.a)] = rng.expovariate(1.0 / delay_jitter_ms)

        budget = self.event_budget()
        if self._delta is not None:
            states, last_time, messages, events = self._delta.converge(
                injections, igp_overlay, jitter, withdrawals, budget
            )
        else:
            states, last_time, messages, events = self._run_reference(
                injections, igp_overlay, jitter, withdrawals, budget
            )

        elapsed = time.perf_counter() - start
        if self.metrics is not None:
            self.metrics.counter("convergence_runs").increment()
            self.metrics.counter("convergence_messages").increment(messages)
            self.metrics.counter("convergence_events").increment(events)
            self.metrics.histogram("convergence_cold_s").observe(elapsed)
            self.metrics.histogram("convergence_events_per_run").observe(events)
        if self.tracer is not None:
            self.tracer.record(
                "converge",
                attributes={
                    "cache_hit": False if self.cache is not None else None,
                    "messages": messages,
                    "events": events,
                    "convergence_time_ms": last_time,
                },
                start_unix=start_unix,
                duration_s=elapsed,
            )

        withdrawn = {(wd.host_asn, wd.site_id) for wd in withdrawals}
        state = ConvergedState(
            prefix=self.prefix,
            origin_asn=self.origin_asn,
            states=states,
            injections=tuple(injections),
            convergence_time_ms=last_time,
            message_count=messages,
            enabled_sites=tuple(sorted({
                inj.site_id
                for inj in injections
                if (inj.host_asn, inj.site_id) not in withdrawn
            })),
        )
        if cache_key is not None:
            self.cache.store(cache_key, state)
        return state

    def _run_reference(self, injections, igp_overlay, jitter, withdrawals, budget):
        """The reference event loop: one fresh speaker per AS, every
        session and delay looked up in the graph, nothing carried
        between runs.  The delta path is bit-compared against it.
        """
        graph = self.internet.graph
        speakers = {
            asn: BGPSpeaker(graph, graph.as_of(asn), self.prefix, igp_overlay)
            for asn in graph.asns()
        }

        counter = itertools.count()
        heap: List[Tuple[float, int, str, int, int, Optional[Tuple[int, ...]], int]] = []

        def schedule(time_ms, kind, receiver, sender, as_path, med=0):
            heapq.heappush(heap, (time_ms, next(counter), kind, receiver, sender, as_path, med))

        for inj in injections:
            schedule(inj.announce_time_ms, "inject", inj.host_asn, inj.site_id, None)
        for wd in withdrawals:
            schedule(wd.withdraw_time_ms, "uninject", wd.host_asn, wd.site_id, None)
        inj_by_key = {(inj.host_asn, inj.site_id): inj for inj in injections}

        messages = 0
        last_time = 0.0
        events = 0
        while heap:
            time_ms, _, kind, receiver, sender, as_path, med = heapq.heappop(heap)
            events += 1
            if events > budget:
                # The census scan is failure-path-only, so the hot loop
                # does not pay for touched-AS bookkeeping in this mode.
                touched = sum(
                    1
                    for sp in speakers.values()
                    if sp.state.adj_rib_in
                    or sp.state.advertised_to
                    or sp.state.best is not None
                )
                logger.error(
                    "BGP event budget exhausted",
                    extra={"fields": {
                        "events": events,
                        "budget": budget,
                        "messages": messages,
                        "ases_touched": touched,
                        "virtual_time_ms": time_ms,
                    }},
                )
                raise ConvergenceBudgetError(budget, events, touched, time_ms)
            # The heap pops in nondecreasing time order, so the last
            # event's timestamp is the convergence time.
            last_time = time_ms
            speaker = speakers[receiver]
            if kind == "announce":
                messages += 1
                out = speaker.receive_announcement(sender, as_path, med, time_ms)
            elif kind == "withdraw":
                messages += 1
                out = speaker.receive_withdrawal(sender)
            elif kind == "inject":
                inj = inj_by_key[(receiver, sender)]
                out = speaker.inject(
                    self.origin_asn,
                    inj.rel_from_host,
                    SitePop(inj.site_id, inj.pop_id, inj.link_rtt_ms),
                    time_ms,
                    prepend=inj.prepend,
                    poison=inj.poison,
                )
            elif kind == "uninject":
                out = speaker.withdraw_injection(self.origin_asn, sender)
            else:  # pragma: no cover - defensive
                raise ReproError(f"unknown event kind {kind!r}")

            for update in out:
                link = graph.link(receiver, update.neighbor)
                arrive = time_ms + link.prop_delay_ms + jitter.get(
                    (receiver, update.neighbor), 0.0
                )
                if update.as_path is None:
                    schedule(arrive, "withdraw", update.neighbor, receiver, None)
                else:
                    schedule(arrive, "announce", update.neighbor, receiver, update.as_path, update.med)

        states = {asn: sp.state for asn, sp in speakers.items()}
        return states, last_time, messages, events
