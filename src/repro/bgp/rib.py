"""Per-AS routing state: Adj-RIB-In, Loc-RIB, and export bookkeeping.

:class:`RouterState` is one object per AS holding
:class:`~repro.bgp.messages.Route` objects, used by the engine,
``bgp.explain``, and the data plane.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.bgp.messages import Route


@dataclass
class RouterState:
    """The BGP state of one AS for one prefix.

    Attributes:
        asn: the AS this state belongs to.
        adj_rib_in: best-known route per sending neighbor (keyed by
            neighbor ASN; an injected route is keyed by the anycast
            origin ASN).
        best: the Loc-RIB winner, or None.
        multipath: routes tied through the MED step, used by
            multipath-enabled ASes for per-flow load balancing.
        advertised_to: the route last advertised to each neighbor, so
            export-set changes generate the right withdrawals.
    """

    asn: int
    adj_rib_in: Dict[int, Route] = field(default_factory=dict)
    best: Optional[Route] = None
    multipath: List[Route] = field(default_factory=list)
    advertised_to: Dict[int, Route] = field(default_factory=dict)

    def routes(self) -> List[Route]:
        """All candidate routes currently known."""
        return list(self.adj_rib_in.values())

    def has_route(self) -> bool:
        return self.best is not None
