"""Delta convergence: internet-scale runs that only pay for the wavefront.

A campaign runs thousands of experiments over one topology, and each
experiment differs only in which sites announce.  The reference engine
path (one fresh speaker per AS per run) pays per-run costs proportional
to the whole topology: building every speaker, and one heap event per
delivered update — including the huge majority delivered to stub ASes
that can never say anything back.

This module removes both, bit-identically:

- **Touched-AS tracking / copy-on-restore**: the per-topology base
  state is the empty RIB (only the anycast prefix exists), so a run's
  announce/withdraw wavefront *is* the set of events.  The converger
  records which ASes the wavefront reached and, between runs, restores
  exactly those — checkout, detach, and release are all O(touched),
  not O(|ASes|).

- **Stub aggregation**: a *pure stub* — an AS every one of whose BGP
  sessions is with a provider — exports nothing, ever: a provider- or
  peer-learned route exports to customers only, and it has none.  (Its
  own injections are the one exception; see below.)  Removing such an
  AS from the event heap therefore cannot perturb any other AS, single-
  or multi-homed alike.  Aggregated stubs are pruned from their
  providers' export bases entirely, so the simulated core is just the
  transit hierarchy.  What a provider *would* have sent them is
  reconstructed from the provider's **export episodes**: a provider
  sends the same update to every (non-poisoned) stub customer exactly
  when its best route materially changes to a new export path, so
  recording ``(virtual time, export path)`` per change captures every
  stub-bound message without enumerating the stubs.  Stub states are
  synthesized lazily from the episode log on first read
  (:class:`LazyStates`), and message/event counts and the convergence
  timestamp are reconstructed from episode arithmetic, so metrics and
  traces match the reference path too.

Bit-identity argument for the event order: removing a heap entry that
generates no further events preserves the relative order of all
remaining entries (the tie-breaking sequence numbers are monotonic in
push order, and a subsequence keeps its order), so every live AS sees
the exact event sequence the reference path delivers.  A provider never
sends consecutive duplicates to one neighbor (``advertised_to`` dedup)
and link delay plus per-run jitter are constant per directed pair, so
deliveries to a stub arrive in send order and the episode replay
reproduces exactly the deliveries the reference path makes.  Poisoned
episodes (an aggregated stub spliced into the announced path, which
the real export loop skips for that stub) mark the provider
*complicated* and fall back to an exact per-stub replay of its episode
list — the same dedup rules, applied stub by stub.

An injection or withdrawal hosted *at* a normally-aggregated stub
un-aggregates that AS for the run (it gets an ephemeral live speaker
and its providers get a run-local export base that re-admits it): an
injecting stub does export — toward its providers — so it must sit on
the heap like any other AS.
"""

import heapq
import itertools
import threading
from typing import Dict, List, Optional, Tuple

try:  # pragma: no cover - exercised implicitly on import
    from collections.abc import Mapping
except ImportError:  # pragma: no cover
    from collections import Mapping

from repro.bgp.decision import evaluate
from repro.bgp.messages import Route, SitePop, make_route
from repro.bgp.rib import RouterState
from repro.bgp.router import BGPSpeaker
from repro.topology.astopo import Relationship
from repro.util.errors import ConvergenceBudgetError, ReproError


class _PrunedTables:
    """Core speakers' view of the topology tables: identical session
    imports, export bases with the aggregated stubs removed.  Pruning
    preserves the base's sorted order (a subsequence of a sorted tuple),
    so the surviving exports are emitted in exactly the reference
    path's relative order."""

    __slots__ = ("session_import", "export_all", "export_customers")

    def __init__(self, session_import, export_all, export_customers):
        self.session_import = session_import
        self.export_all = export_all
        self.export_customers = export_customers

    def export_targets(self, asn: int, learned_rel) -> Tuple[int, ...]:
        if learned_rel is Relationship.CUSTOMER:
            return self.export_all[asn]
        return self.export_customers[asn]


class _RunExport:
    """A per-run export-base override for one provider of a live stub:
    prunes only the stubs aggregated *this run*, so the live stub gets
    real heap deliveries while its siblings stay aggregated."""

    __slots__ = ("session_import", "_all", "_customers")

    def __init__(self, session_import, all_targets, customer_targets):
        self.session_import = session_import
        self._all = all_targets
        self._customers = customer_targets

    def export_targets(self, asn: int, learned_rel) -> Tuple[int, ...]:
        if learned_rel is Relationship.CUSTOMER:
            return self._all
        return self._customers


def _final_delivery(episodes, stub):
    """The last update actually delivered to ``stub`` by a provider
    with episode list ``episodes``: forward replay with the export
    loop's own filters.  A poisoned episode (the stub inside the new
    path) withdraws a previously advertised route — the export loop's
    stale-target branch — and otherwise delivers nothing; an episode
    matching the advertised path is deduplicated; a None episode
    withdraws only when something is advertised.  Returns ``(time_ms,
    path)`` with ``path`` None when the stub ends route-less."""
    last_t = 0.0
    advertised = None
    for t, path in episodes:
        if path is None or stub in path:
            if advertised is not None:
                last_t, advertised = t, None
        elif path == advertised:
            continue
        else:
            last_t, advertised = t, path
    return last_t, advertised


class LazyStates(Mapping):
    """A per-AS state mapping that synthesizes aggregated-stub states
    on first read.

    Behaves exactly like the ``Dict[int, RouterState]`` the engine's
    reference path returns: same keys (every AS in the topology), same
    values (by ``==``).  Internally it holds only the states the run
    actually materialized; untouched ASes resolve to the shared
    pristine state, aggregated stubs are built from their providers'
    episode logs on demand (then cached), and a touched provider's
    ``advertised_to`` entries for its aggregated stubs are patched in
    on first access.  Pickling materializes to a plain dict, so
    persisted convergence-store entries are plain state dicts.
    """

    __slots__ = ("_materialized", "_pristine", "_aggregated", "_synth", "_pending", "_patch")

    def __init__(self, materialized, pristine, aggregated, synth, pending, patch):
        self._materialized: Dict[int, RouterState] = materialized
        self._pristine: Dict[int, RouterState] = pristine
        self._aggregated = aggregated
        self._synth = synth
        #: Providers whose advertised_to still lacks its stub entries.
        self._pending = pending
        self._patch = patch

    def __getitem__(self, asn: int) -> RouterState:
        state = self._materialized.get(asn)
        if state is not None:
            if asn in self._pending:
                self._pending.discard(asn)
                self._patch(asn, state)
            return state
        if asn in self._aggregated:
            state = self._synth(asn)
            self._materialized[asn] = state
            return state
        return self._pristine[asn]

    def __iter__(self):
        return iter(self._pristine)

    def __len__(self) -> int:
        return len(self._pristine)

    def __eq__(self, other):
        if not isinstance(other, (Mapping, dict)):
            return NotImplemented
        if len(self) != len(other):
            return False
        getter = other.get
        missing = object()
        for asn in self._pristine:
            if getter(asn, missing) != self[asn]:
                return False
        return True

    def __ne__(self, other):
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    __hash__ = None

    def live_items(self):
        """Items the run materialized so far (touched live ASes, plus
        any stub states already synthesized).  Provider states reached
        this way may still have their stub ``advertised_to`` patches
        pending; use ``states[asn]`` for the fully-patched view."""
        return self._materialized.items()

    def __reduce__(self):
        return (dict, ({asn: self[asn] for asn in self._pristine},))


class DeltaConverger:
    """The delta convergence core of one :class:`BGPEngine`.

    Owns a pool of *core* speaker sets (every AS except the aggregated
    stubs) plus the shared pristine states, both keyed to the graph's
    current :class:`~repro.topology.precompute.TopologyTables`.  Safe
    to share across executor threads: each run checks out its own
    speaker set.
    """

    def __init__(self, engine):
        self.engine = engine
        self._lock = threading.Lock()
        self._pool: List[Dict[int, BGPSpeaker]] = []
        self._pool_tables = None
        self._pristine: Dict[int, RouterState] = {}
        self._aggregated: frozenset = frozenset()
        self._pruned: Optional[_PrunedTables] = None
        #: provider ASN -> sorted tuple of its aggregated stub customers
        self._parents: Dict[int, Tuple[int, ...]] = {}
        self._parent_stubset: Dict[int, frozenset] = {}
        #: provider ASN -> max one-way delay to any of its stubs (the
        #: jitter-free fast path for the convergence timestamp).
        self._parent_maxdelay: Dict[int, float] = {}
        #: Diagnostics of the most recent completed run (serial use
        #: only — concurrent runs overwrite each other's entry).
        self.last_run_stats: Dict[str, float] = {}

    # -- per-topology state ---------------------------------------------

    def _rebuild(self, tables):
        """Recompute aggregation structures for a new tables revision.
        Caller holds the lock."""
        graph = self.engine.internet.graph
        self._pool = []
        self._pool_tables = tables
        self._pristine = {asn: RouterState(asn) for asn in graph.asns()}
        aggregated = frozenset(tables.stub_providers)
        self._aggregated = aggregated
        parents: Dict[int, List[int]] = {}
        for stub in aggregated:
            for provider in tables.stub_providers[stub]:
                parents.setdefault(provider, []).append(stub)
        self._parents = {p: tuple(sorted(s)) for p, s in parents.items()}
        self._parent_stubset = {p: frozenset(s) for p, s in self._parents.items()}
        prop_delay = tables.prop_delay
        self._parent_maxdelay = {
            p: max(prop_delay[(p, s)] for s in stubs)
            for p, stubs in self._parents.items()
        }
        export_all = {
            asn: tuple(t for t in targets if t not in aggregated)
            for asn, targets in tables.export_all.items()
            if asn not in aggregated
        }
        export_customers = {
            asn: tuple(t for t in targets if t not in aggregated)
            for asn, targets in tables.export_customers.items()
            if asn not in aggregated
        }
        self._pruned = _PrunedTables(tables.session_import, export_all, export_customers)

    def _checkout(self, tables, igp_overlay):
        graph = self.engine.internet.graph
        with self._lock:
            if self._pool_tables is not tables:
                self._rebuild(tables)
            speakers = self._pool.pop() if self._pool else None
        aggregated = self._aggregated
        if speakers is None:
            prefix = self.engine.prefix
            pruned = self._pruned
            speakers = {
                asn: BGPSpeaker(
                    graph, graph.as_of(asn), prefix, igp_overlay, tables=pruned
                )
                for asn in graph.asns()
                if asn not in aggregated
            }
        else:
            overlay = igp_overlay or {}
            for sp in speakers.values():
                sp.igp_overlay = overlay
        return speakers, aggregated

    def _release(self, speakers, tables):
        with self._lock:
            if self._pool_tables is tables:
                self._pool.append(speakers)

    # -- one run ----------------------------------------------------------

    def converge(
        self,
        injections,
        igp_overlay,
        jitter: Dict[Tuple[int, int], float],
        withdrawals,
        budget: int,
    ):
        """Run one convergence; returns ``(states, last_time, messages,
        events)`` with ``states`` a :class:`LazyStates`.

        ``jitter`` is the per-run delay jitter the engine already drew
        (the RNG stream iterates the full link list, so drawing it in
        one place keeps both engine paths on the same stream).
        """
        engine = self.engine
        graph = engine.internet.graph
        tables = graph.tables()
        speakers, aggregated = self._checkout(tables, igp_overlay)
        prop_delay = tables.prop_delay
        jitter_get = jitter.get

        # An AS hosting an injection or withdrawal must be live even if
        # it would normally aggregate: it exports toward its providers.
        hosts = {inj.host_asn for inj in injections}
        hosts.update(wd.host_asn for wd in withdrawals)
        extra: Dict[int, BGPSpeaker] = {}
        agg = aggregated
        live_stubs = hosts & aggregated
        patched: List[Tuple[BGPSpeaker, object]] = []
        #: Per-run override of a provider's aggregated-stub list when
        #: some of its stubs are live this run.
        stubs_run: Dict[int, Tuple[int, ...]] = {}
        if live_stubs:
            agg = aggregated - live_stubs
            prefix = engine.prefix
            extra = {
                asn: BGPSpeaker(
                    graph, graph.as_of(asn), prefix, igp_overlay, tables=tables
                )
                for asn in live_stubs
            }
            affected: Dict[int, set] = {}
            for stub in live_stubs:
                for provider in tables.stub_providers[stub]:
                    affected.setdefault(provider, set()).add(stub)
            for provider, live_of in affected.items():
                spk = speakers[provider]
                run_tables = _RunExport(
                    tables.session_import,
                    tuple(t for t in tables.export_all[provider] if t not in agg),
                    tuple(t for t in tables.export_customers[provider] if t not in agg),
                )
                patched.append((spk, spk._tables))
                spk._tables = run_tables
                stubs_run[provider] = tuple(
                    s for s in self._parents.get(provider, ()) if s not in live_of
                )

        counter = itertools.count()
        next_seq = counter.__next__
        heap: List[Tuple[float, int, str, int, int, Optional[Tuple[int, ...]], int]] = []
        for inj in injections:
            heapq.heappush(
                heap,
                (inj.announce_time_ms, next_seq(), "inject", inj.host_asn, inj.site_id, None, 0),
            )
        for wd in withdrawals:
            heapq.heappush(
                heap,
                (wd.withdraw_time_ms, next_seq(), "uninject", wd.host_asn, wd.site_id, None, 0),
            )
        inj_by_key = {(inj.host_asn, inj.site_id): inj for inj in injections}

        # ep_log holds, per provider, the export episodes (time, export
        # path or None) its aggregated stubs would have received;
        # `complicated` flags providers with a stub spliced into an
        # episode's path (BGP poisoning), which forces per-stub replay.
        ep_log: Dict[int, List[Tuple[float, Optional[Tuple[int, ...]]]]] = {}
        complicated = set()
        agg_est = 0  # running upper bound on aggregated deliveries
        parents_get = self._parents.get
        stubs_run_get = stubs_run.get
        stubset = self._parent_stubset
        touched = set()
        touched_add = touched.add
        messages = 0
        last_time = 0.0
        events = 0
        origin_asn = engine.origin_asn
        heappop = heapq.heappop
        heappush = heapq.heappush
        while heap:
            time_ms, _, kind, receiver, sender, as_path, med = heappop(heap)
            events += 1
            if events + agg_est > budget:
                raise ConvergenceBudgetError(
                    budget, events + agg_est, len(touched), time_ms
                )
            last_time = time_ms
            touched_add(receiver)
            speaker = speakers.get(receiver)
            if speaker is None:
                speaker = extra[receiver]
            old_best = speaker.state.best
            if kind == "announce":
                messages += 1
                out = speaker.receive_announcement(sender, as_path, med, time_ms)
            elif kind == "withdraw":
                messages += 1
                out = speaker.receive_withdrawal(sender)
            elif kind == "inject":
                inj = inj_by_key[(receiver, sender)]
                out = speaker.inject(
                    origin_asn,
                    inj.rel_from_host,
                    SitePop(inj.site_id, inj.pop_id, inj.link_rtt_ms),
                    time_ms,
                    prepend=inj.prepend,
                    poison=inj.poison,
                )
            elif kind == "uninject":
                out = speaker.withdraw_injection(origin_asn, sender)
            else:  # pragma: no cover - defensive
                raise ReproError(f"unknown event kind {kind!r}")

            stubs_p = parents_get(receiver)
            if stubs_p is not None:
                # Export-episode detection: mirror _export_updates for
                # the pruned stub targets.  An episode happens exactly
                # when the best route materially changes to a new
                # export path (or is withdrawn while stubs hold one).
                new_best = speaker.state.best
                if new_best is not old_best:
                    run_stubs = stubs_run_get(receiver, stubs_p)
                    if run_stubs:
                        eps = ep_log.get(receiver)
                        if new_best is None:
                            if eps and eps[-1][1] is not None:
                                eps.append((time_ms, None))
                                agg_est += len(run_stubs)
                        elif not (
                            old_best is not None
                            and new_best.as_path == old_best.as_path
                            and new_best.learned_from == old_best.learned_from
                            and new_best.med == old_best.med
                            and new_best.origin_code == old_best.origin_code
                        ):
                            export_path = (receiver,) + new_best.as_path
                            if eps is None:
                                ep_log[receiver] = eps = []
                            if not eps or eps[-1][1] != export_path:
                                eps.append((time_ms, export_path))
                                agg_est += len(run_stubs)
                                if not stubset[receiver].isdisjoint(export_path):
                                    complicated.add(receiver)

            for update in out:
                neighbor = update.neighbor
                pair = (receiver, neighbor)
                arrive = time_ms + prop_delay[pair] + jitter_get(pair, 0.0)
                path = update.as_path
                if path is None:
                    heappush(heap, (arrive, next_seq(), "withdraw", neighbor, receiver, None, 0))
                else:
                    heappush(heap, (arrive, next_seq(), "announce", neighbor, receiver, path, update.med))

        for spk, orig in patched:
            spk._tables = orig

        # -- aggregated-delivery accounting -------------------------------
        # Exact counts and the last aggregated arrival, from episode
        # arithmetic (per-stub replay only for complicated providers).
        agg_count = 0
        agg_last = 0.0
        parents = self._parents
        maxdelay = self._parent_maxdelay
        jittered = bool(jitter)
        for provider, eps in ep_log.items():
            stubs = stubs_run_get(provider)
            full_set = stubs is None
            if full_set:
                stubs = parents[provider]
            if not stubs:
                continue
            if provider in complicated:
                # Arrivals are computed as (episode time + delay) +
                # jitter, matching the engine's push expression term
                # for term so the convergence timestamp is bit-equal.
                for stub in stubs:
                    pair = (provider, stub)
                    prop = prop_delay[pair]
                    jit = jitter_get(pair, 0.0)
                    advertised = None
                    for t, path in eps:
                        if path is None or stub in path:
                            if advertised is not None:
                                agg_count += 1
                                arrive = t + prop + jit
                                if arrive > agg_last:
                                    agg_last = arrive
                                advertised = None
                        elif path == advertised:
                            continue
                        else:
                            agg_count += 1
                            arrive = t + prop + jit
                            if arrive > agg_last:
                                agg_last = arrive
                            advertised = path
            else:
                agg_count += len(eps) * len(stubs)
                t_last = eps[-1][0]
                if jittered:
                    arrive = max(
                        t_last + prop_delay[(provider, s)] + jitter_get((provider, s), 0.0)
                        for s in stubs
                    )
                else:
                    # Float addition is monotone, so adding the max
                    # delay equals the max of the per-stub sums.
                    reach = maxdelay[provider] if full_set else max(
                        prop_delay[(provider, s)] for s in stubs
                    )
                    arrive = t_last + reach
                if arrive > agg_last:
                    agg_last = arrive

        # -- detach touched states (copy-on-restore) ----------------------
        materialized: Dict[int, RouterState] = {}
        pristine = self._pristine
        for asn in touched:
            sp = speakers.get(asn)
            if sp is None:
                sp = extra[asn]
            st = sp.state
            if st.adj_rib_in or st.advertised_to or st.best is not None or st.multipath:
                materialized[asn] = st
                sp.state = RouterState(asn)
            else:
                materialized[asn] = pristine[asn]
        self._release(speakers, tables)

        states = LazyStates(
            materialized,
            pristine,
            agg,
            self._make_synth(tables, igp_overlay, pristine, ep_log, complicated, jitter),
            set(ep_log),
            self._make_patch(tables, ep_log, complicated, stubs_run),
        )
        last_time = max(last_time, agg_last)
        messages += agg_count
        events += agg_count
        self.last_run_stats = {
            "touched": len(touched),
            "aggregated": len(aggregated),
            "agg_messages": agg_count,
            "events": events,
        }
        return states, last_time, messages, events

    def _make_synth(self, tables, igp_overlay, pristine, ep_log, complicated, jitter):
        """The stub-state synthesizer for one run's :class:`LazyStates`.

        Mirrors ``BGPSpeaker.receive_announcement``'s tables path per
        provider session and the speaker's decision step over the
        result: same import values, same route constructor, same
        decision, so the synthesized state is ``==`` to the one the
        reference path builds by simulation.
        """
        session_import = tables.session_import
        stub_providers = tables.stub_providers
        prop_delay = tables.prop_delay
        overlay = igp_overlay or {}
        jitter_get = jitter.get
        prefix = self.engine.prefix
        graph = self.engine.internet.graph
        ep_get = ep_log.get

        def synth(stub: int) -> RouterState:
            adj: Dict[int, Route] = {}
            for provider in stub_providers[stub]:
                eps = ep_get(provider)
                if not eps:
                    continue
                if provider in complicated:
                    t, path = _final_delivery(eps, stub)
                else:
                    t, path = eps[-1]
                if path is None:
                    continue
                session = (stub, provider)
                local_pref, interior, rel = session_import[session]
                session_interior = overlay.get(session)
                if session_interior is not None:
                    interior = session_interior
                pair = (provider, stub)
                arrive = t + prop_delay[pair] + jitter_get(pair, 0.0)
                adj[provider] = make_route(
                    prefix, path, provider, local_pref, rel, 0, interior, arrive
                )
            if not adj:
                return pristine[stub]
            state = RouterState(stub)
            state.adj_rib_in = adj
            routes = list(adj.values())
            if len(routes) == 1:
                best = routes[0]
                multipath = routes
            else:
                best, multipath = evaluate(routes, graph.as_of(stub))
            state.best = best
            state.multipath = multipath
            return state

        return synth

    def _make_patch(self, tables, ep_log, complicated, stubs_run):
        """The provider ``advertised_to`` patcher: re-adds the entries
        the pruned export base never wrote, value-equal to the routes
        the reference path's export loop shares across its targets."""
        parents = self._parents
        stubs_run_get = stubs_run.get
        prefix = self.engine.prefix

        def patch(provider: int, state: RouterState) -> None:
            eps = ep_log.get(provider)
            if not eps:
                return
            stubs = stubs_run_get(provider)
            if stubs is None:
                stubs = parents[provider]
            advertised = state.advertised_to
            if provider in complicated:
                shared: Dict[Tuple[int, ...], Route] = {}
                for stub in stubs:
                    _t, path = _final_delivery(eps, stub)
                    if path is None:
                        continue
                    route = shared.get(path)
                    if route is None:
                        route = make_route(prefix, path, provider, 0)
                        shared[path] = route
                    advertised[stub] = route
            else:
                _t, path = eps[-1]
                if path is None:
                    return
                route = make_route(prefix, path, provider, 0)
                for stub in stubs:
                    advertised[stub] = route

        return patch
