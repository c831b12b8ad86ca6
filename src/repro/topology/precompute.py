"""Shared per-topology precomputation for the BGP fast path.

Every :class:`~repro.bgp.engine.BGPEngine` run used to re-derive the
same facts about the topology — export-target sets, import local
preferences, static interior costs, link propagation delays — once per
speaker per run, through :class:`~repro.topology.astopo.ASGraph`
lookups that allocate a ``frozenset`` or list per call.  Campaigns run
the engine thousands of times over one topology, so those derivations
are pure waste after the first run.

:class:`TopologyTables` computes them once per graph and caches the
result on the graph itself (see :meth:`ASGraph.tables
<repro.topology.astopo.ASGraph.tables>`).  Structural mutation
(``add_as`` / ``add_link``) invalidates the cache automatically; code
that mutates AS or link *attributes* in place after a table was built
must call :meth:`ASGraph.invalidate_tables
<repro.topology.astopo.ASGraph.invalidate_tables>` explicitly.

Everything in the tables is a pure function of the graph, so using
them never changes any engine result — only how fast it is produced.
"""

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.topology.astopo import ASGraph, Relationship
from repro.bgp import policy


@dataclass
class TopologyTables:
    """Derived lookup tables for one :class:`ASGraph` revision.

    Attributes:
        export_all: per ASN, the sorted tuple of all neighbors — the
            export set for customer-learned routes (Gao-Rexford:
            customer routes go to everyone).
        export_customers: per ASN, the sorted tuple of customer
            neighbors — the export set for peer/provider-learned
            routes.
        session_import: per directed ``(asn, neighbor)`` session, the
            tuple ``(local_pref, interior_cost, relationship)`` applied
            on import: local preference with policy-deviant overrides
            already applied, the static interior cost (BGP decision
            step 6; per-run IGP overlays still take precedence), and
            the neighbor's relationship.  Fused into one dict so the
            per-message import path pays a single lookup.
        prop_delay: one-way control-plane delay per directed ``(a,
            b)`` link, for update scheduling without a link lookup.
        stub_providers: per *pure stub* ASN, the sorted tuple of its
            provider ASNs.  A pure stub is an AS every one of whose
            sessions is with a provider (any homing degree): whatever
            it learns arrived from a provider, and provider-learned
            routes export to customers only — of which it has none —
            so it can never say anything back.  The delta engine
            collapses such ASes into their providers' catchments and
            reconstructs their states from the providers' export
            episodes, bit-identically (see
            :mod:`repro.bgp.delta`).  ASes with any peer or customer
            session stay live.
        stub_provider: the single-homed subset of ``stub_providers``
            (stub ASN → its sole provider), kept for callers that only
            handle degree-1 stubs.
        revision: the graph mutation counter the tables were built
            from; a mismatch means the tables are stale.
    """

    export_all: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    export_customers: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    session_import: Dict[Tuple[int, int], Tuple[int, int, Relationship]] = field(
        default_factory=dict
    )
    prop_delay: Dict[Tuple[int, int], float] = field(default_factory=dict)
    stub_providers: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    stub_provider: Dict[int, int] = field(default_factory=dict)
    revision: int = 0

    def export_targets(self, asn: int, learned_rel: Relationship) -> Tuple[int, ...]:
        """The precomputed export base set (sorted, unfiltered)."""
        if learned_rel is Relationship.CUSTOMER:
            return self.export_all[asn]
        return self.export_customers[asn]


def build_tables(graph: ASGraph, revision: int = 0) -> TopologyTables:
    """Derive :class:`TopologyTables` from ``graph`` (one O(V+E) pass)."""
    tables = TopologyTables(revision=revision)
    for asn in graph.asns():
        node = graph.as_of(asn)
        neighbors = graph.neighbors(asn)
        tables.export_all[asn] = tuple(sorted(neighbors))
        customers = []
        pure_stub = bool(neighbors)
        for neighbor in neighbors:
            rel = graph.rel(asn, neighbor)
            if rel is Relationship.CUSTOMER:
                customers.append(neighbor)
            if rel is not Relationship.PROVIDER:
                pure_stub = False
            link = graph.link(asn, neighbor)
            tables.session_import[(asn, neighbor)] = (
                policy.local_pref_for(node, neighbor, rel),
                link.igp_cost.get(asn, 0),
                rel,
            )
        tables.export_customers[asn] = tuple(sorted(customers))
        if pure_stub:
            tables.stub_providers[asn] = tables.export_all[asn]
            if len(neighbors) == 1:
                tables.stub_provider[asn] = neighbors[0]
    for link in graph.links():
        tables.prop_delay[(link.a, link.b)] = link.prop_delay_ms
        tables.prop_delay[(link.b, link.a)] = link.prop_delay_ms
    return tables
