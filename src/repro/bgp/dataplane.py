"""Data-plane resolution: from a client AS to its anycast site.

Given a converged control plane, this module walks a flow hop by hop —
each AS forwards toward the ``learned_from`` neighbor of its chosen
route, multipath ASes hash the flow over their tied set — until it
reaches an AS holding an *injected* route.  There, hot-potato (IGP
shortest path from the ingress PoP) picks the concrete anycast site,
mirroring the paper's two-level structure: BGP decides the inter-AS
catchment, interior routing decides the intra-AS catchment (S4.3).

The walk also accumulates the path RTT: inter-AS link RTTs, intra-AS
backbone traversal for multi-PoP transits, and the site access link.
"""

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.bgp.engine import ConvergedState
from repro.bgp.messages import Route
from repro.topology.generator import Internet
from repro.util.rng import stable_hash


@dataclass(frozen=True)
class ForwardingOutcome:
    """Where a client flow ends up and what it costs.

    Attributes:
        site_id: the anycast site that receives the flow.
        terminating_asn: the AS hosting that site's announcement.
        as_path: ASes traversed, client first, terminating AS last.
        rtt_ms: round-trip latency from the client AS border to the
            site (the client's last-mile is added by the measurement
            layer).
        ingress_pop: PoP at which the flow entered the terminating AS,
            or None for single-PoP hosts.
    """

    site_id: int
    terminating_asn: int
    as_path: Tuple[int, ...]
    rtt_ms: float
    ingress_pop: Optional[int]


class _Onward(NamedTuple):
    """The flow-free rest of a walk from one AS entered at one PoP."""

    hops: Tuple[int, ...]
    #: RTT addends in walk order (the walk adds them one by one).
    costs: Tuple[float, ...]
    site_id: int
    ingress_pop: Optional[int]


class DataPlane:
    """Resolves client flows against one converged control plane.

    ``flow_nonce`` seeds the per-flow ECMP hash of multipath ASes; two
    data planes built over the same converged state but with different
    nonces can map the same flow differently, which models the ECMP
    rehashing that breaks preference consistency in the paper's
    measurements (S4.2, "Multi-path routing").

    :meth:`trace` is the reference hop-by-hop walk.  :meth:`forward`
    gives the same outcome, memoized: a walk that crosses no multipath
    AS with tied routes does not depend on the flow key, so it runs
    once per client AS.  And what happens after an AS depends only on
    that AS and the PoP the flow entered it at, so walks sharing such a
    step share the rest of the walk; its RTT addends are replayed in
    order, so the sum is the reference's to the bit.
    """

    def __init__(self, internet: Internet, converged: ConvergedState, flow_nonce: int = 0):
        self.internet = internet
        self.converged = converged
        self.flow_nonce = flow_nonce
        #: Per client AS: its outcome, or ``_FLOW_DEPENDENT``.
        self._walks: Dict[int, object] = {}
        #: Per (AS, entry PoP): an ``_Onward``, None when the flow is
        #: dropped further on, or ``_FLOW_DEPENDENT``.
        self._onward: Dict[Tuple[int, Optional[int]], object] = {}

    def forward(self, client_asn: int, flow_key) -> Optional[ForwardingOutcome]:
        """Trace one flow; returns None when the client has no route
        (e.g. a peers-only configuration that cannot reach it)."""
        outcome = self._walks.get(client_asn, _UNWALKED)
        if outcome is _UNWALKED:
            outcome = self._walks[client_asn] = self._walk_flow_free(client_asn)
        if outcome is _FLOW_DEPENDENT:
            return self.trace(client_asn, flow_key)
        return outcome

    def trace(self, client_asn: int, flow_key) -> Optional[ForwardingOutcome]:
        """The reference walk of one flow, hop by hop, without memos."""
        graph = self.internet.graph
        cur = client_asn
        prev: Optional[int] = None
        rtt = 0.0
        hops = [cur]
        visited = {cur}
        while True:
            state = self.converged.states.get(cur)
            if state is None or state.best is None:
                return None
            route = self._choose_route(cur, flow_key, state)
            if route.is_injected():
                site_id, ingress, cost = self._terminal(cur, prev, route)
                rtt += cost
                return ForwardingOutcome(site_id, cur, tuple(hops), rtt, ingress)
            nxt = route.learned_from
            if nxt in visited:
                # A forwarding loop across inconsistent multipath
                # choices; the flow is effectively blackholed.
                return None
            rtt += self._transit_cost(prev, cur, nxt)
            rtt += graph.link(cur, nxt).rtt_ms
            prev, cur = cur, nxt
            hops.append(cur)
            visited.add(cur)

    # -- internals ---------------------------------------------------------

    def _walk_flow_free(self, client_asn: int):
        """:meth:`trace` along best routes, stopping at the first step
        whose rest is memoized; returns the outcome, or
        ``_FLOW_DEPENDENT`` when the walk meets an ECMP split."""
        graph = self.internet.graph
        cur = client_asn
        prev: Optional[int] = None
        hops: List[int] = []
        costs: List[float] = []
        # (memo key, hops index, costs index) of each step walked here.
        steps = []
        while True:
            key = (cur, self._entry_key(prev, cur))
            rest = self._onward.get(key, _UNWALKED)
            if rest is not _UNWALKED:
                break
            steps.append((key, len(hops), len(costs)))
            hops.append(cur)
            state = self.converged.states.get(cur)
            if state is None or state.best is None:
                rest = None
                break
            if self._splits_flows(cur, state):
                rest = _FLOW_DEPENDENT
                break
            route = state.best
            if route.is_injected():
                site_id, ingress, cost = self._terminal(cur, prev, route)
                costs.append(cost)
                rest = _Onward((), (), site_id, ingress)
                break
            nxt = route.learned_from
            if nxt in hops:
                rest = None
                break
            costs.append(self._transit_cost(prev, cur, nxt))
            costs.append(graph.link(cur, nxt).rtt_ms)
            prev, cur = cur, nxt
        if not isinstance(rest, _Onward):
            for key, _, _ in steps:
                self._onward[key] = rest
            return rest
        # Along best routes the next AS depends on the current AS
        # alone, so a memoized rest (itself loop-free) never re-enters
        # the ASes walked here: the reference walk finds no loop either.
        walk = rest
        for key, hop_index, cost_index in reversed(steps):
            walk = self._onward[key] = _Onward(
                tuple(hops[hop_index:]) + rest.hops,
                tuple(costs[cost_index:]) + rest.costs,
                rest.site_id,
                rest.ingress_pop,
            )
        rtt = 0.0
        for cost in walk.costs:
            rtt += cost
        return ForwardingOutcome(
            walk.site_id, walk.hops[-1], walk.hops, rtt, walk.ingress_pop
        )

    def _entry_key(self, prev: Optional[int], cur: int) -> Optional[int]:
        """What of ``prev`` the rest of a walk at ``cur`` depends on:
        the entry PoP of a multi-PoP AS, nothing otherwise."""
        net = self.internet.pop_network(cur)
        if net is None or net.pop_count == 1:
            return None
        return self._entry_pop(prev, cur, net)

    def _splits_flows(self, asn: int, state) -> bool:
        return self.internet.graph.as_of(asn).multipath and len(state.multipath) > 1

    def _choose_route(self, asn: int, flow_key, state) -> Route:
        if self._splits_flows(asn, state):
            idx = stable_hash(flow_key, asn, self.flow_nonce) % len(state.multipath)
            return state.multipath[idx]
        return state.best

    def _transit_cost(self, prev: Optional[int], cur: int, nxt: int) -> float:
        """Intra-AS backbone RTT for crossing a multi-PoP AS."""
        net = self.internet.pop_network(cur)
        if net is None or net.pop_count == 1:
            return 0.0
        exit_pop = self.internet.attach_pop(cur, nxt)
        entry_pop = self._entry_pop(prev, cur, net)
        return net.igp_rtt_ms(entry_pop, exit_pop)

    def _entry_pop(self, prev: Optional[int], cur: int, net) -> int:
        if prev is None:
            # The flow originates inside this AS; it enters the
            # backbone at the PoP nearest the AS's nominal location.
            return net.nearest_pop(self.internet.graph.as_of(cur).location)
        return self.internet.attach_pop(cur, prev)

    def _terminal(
        self, cur: int, prev: Optional[int], route: Route
    ) -> Tuple[int, Optional[int], float]:
        """The site, ingress PoP and last RTT addend of a flow that
        reaches an injected route at ``cur``."""
        net = self.internet.pop_network(cur)
        candidates = list(route.site_pops)
        if net is not None and net.pop_count > 1 and all(sp.pop_id is not None for sp in candidates):
            ingress = self._entry_pop(prev, cur, net)
            best_pop = net.closest_pop_of(ingress, [sp.pop_id for sp in candidates])
            at_pop = [sp for sp in candidates if sp.pop_id == best_pop]
            chosen = min(at_pop, key=lambda sp: (sp.link_rtt_ms, sp.site_id))
            return chosen.site_id, ingress, net.igp_rtt_ms(ingress, best_pop) + chosen.link_rtt_ms
        chosen = min(candidates, key=lambda sp: (sp.link_rtt_ms, sp.site_id))
        return chosen.site_id, chosen.pop_id, chosen.link_rtt_ms


_UNWALKED = object()
_FLOW_DEPENDENT = object()
