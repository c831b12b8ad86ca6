"""SPLPO problem model and assignment evaluation.

The defining constraint (Appendix B, equation 6): each client is served
by its most-preferred open facility, regardless of cost.  The optimizer
only controls *which* facilities open.
"""

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.util.errors import ConfigurationError, ReproError

import numpy as _np


@dataclass(frozen=True)
class Client:
    """One SPLPO client.

    Attributes:
        client_id: identifier (a target id in the anycast mapping).
        preference: facility ids, most preferred first; the client is
            served by the first open facility in this list.
        costs: service cost per facility (RTT in the anycast mapping).
        weight: multiplier on the client's cost in the objective
            (e.g. query volume).
        load: load the client imposes on its serving facility, used by
            capacity constraints.
    """

    client_id: int
    preference: Tuple[int, ...]
    costs: Mapping[int, float]
    weight: float = 1.0
    load: float = 1.0

    def __post_init__(self):
        if not self.preference:
            raise ConfigurationError(f"client {self.client_id}: empty preference")
        if len(set(self.preference)) != len(self.preference):
            raise ConfigurationError(f"client {self.client_id}: duplicate preferences")
        missing = [f for f in self.preference if f not in self.costs]
        if missing:
            raise ConfigurationError(
                f"client {self.client_id}: no cost for facilities {missing}"
            )


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a solver run."""

    open_facilities: FrozenSet[int]
    cost: float
    evaluations: int
    solver: str


class SPLPOInstance:
    """An SPLPO instance with optional facility capacities."""

    def __init__(
        self,
        facilities: Sequence[int],
        clients: Sequence[Client],
        open_costs: Optional[Mapping[int, float]] = None,
        capacities: Optional[Mapping[int, float]] = None,
    ):
        if len(set(facilities)) != len(facilities):
            raise ConfigurationError("duplicate facilities")
        self.facilities: Tuple[int, ...] = tuple(facilities)
        self.clients: Tuple[Client, ...] = tuple(clients)
        self.open_costs: Dict[int, float] = dict(open_costs or {})
        self.capacities: Optional[Dict[int, float]] = (
            dict(capacities) if capacities is not None else None
        )
        facility_set = set(self.facilities)
        for client in self.clients:
            unknown = [f for f in client.preference if f not in facility_set]
            if unknown:
                raise ConfigurationError(
                    f"client {client.client_id} prefers unknown facilities {unknown}"
                )
        self._index = {f: i for i, f in enumerate(self.facilities)}
        self._rank_matrix = None
        self._cost_matrix = None

    # -- assignment -----------------------------------------------------------

    def assignment(self, open_facilities: Iterable[int]) -> Dict[int, Optional[int]]:
        """client id -> serving facility (None when no open facility
        appears in the client's preference list)."""
        open_set = set(open_facilities)
        out: Dict[int, Optional[int]] = {}
        for client in self.clients:
            out[client.client_id] = next(
                (f for f in client.preference if f in open_set), None
            )
        return out

    def cost(self, open_facilities: Iterable[int], unserved_penalty: float = math.inf) -> float:
        """Total weighted cost of a facility subset.

        Infeasible subsets (capacity exceeded, or a client unserved
        with an infinite penalty) return ``math.inf``.
        """
        open_set = frozenset(open_facilities)
        if not open_set:
            return math.inf
        unknown = open_set - set(self.facilities)
        if unknown:
            raise ConfigurationError(f"unknown facilities {sorted(unknown)}")
        total = sum(self.open_costs.get(f, 0.0) for f in open_set)
        loads: Dict[int, float] = {f: 0.0 for f in open_set}
        for client in self.clients:
            facility = next((f for f in client.preference if f in open_set), None)
            if facility is None:
                if math.isinf(unserved_penalty):
                    return math.inf
                total += client.weight * unserved_penalty
                continue
            total += client.weight * client.costs[facility]
            loads[facility] += client.load
        if self.capacities is not None:
            for f, load in loads.items():
                if load > self.capacities.get(f, math.inf):
                    return math.inf
        return total

    def mean_cost(self, open_facilities: Iterable[int]) -> float:
        """Average (unweighted by ``weight``) served-client cost."""
        open_set = frozenset(open_facilities)
        costs: List[float] = []
        for client in self.clients:
            facility = next((f for f in client.preference if f in open_set), None)
            if facility is not None:
                costs.append(client.costs[facility])
        if not costs:
            raise ReproError("no client is served by this facility subset")
        return sum(costs) / len(costs)

    def weighted_mean_cost(self, open_facilities: Iterable[int]) -> float:
        """Workload-weighted mean served-client cost (Appendix B's
        "weigh each host's RTT with its workload")."""
        open_set = frozenset(open_facilities)
        total = 0.0
        weight_sum = 0.0
        for client in self.clients:
            facility = next((f for f in client.preference if f in open_set), None)
            if facility is not None:
                total += client.weight * client.costs[facility]
                weight_sum += client.weight
        if weight_sum == 0.0:
            raise ReproError("no client is served by this facility subset")
        return total / weight_sum

    # -- vectorized evaluation ------------------------------------------------

    def _ensure_matrices(self):
        if self._rank_matrix is not None:
            return
        n_f = len(self.facilities)
        n_c = len(self.clients)
        ranks = _np.full((n_c, n_f), n_f, dtype=_np.int32)
        costs = _np.full((n_c, n_f), _np.inf, dtype=_np.float64)
        weights = _np.empty(n_c, dtype=_np.float64)
        for ci, client in enumerate(self.clients):
            weights[ci] = client.weight
            for rank, f in enumerate(client.preference):
                fi = self._index[f]
                ranks[ci, fi] = rank
                costs[ci, fi] = client.costs[f]
        self._rank_matrix = ranks
        self._cost_matrix = costs
        self._weights = weights

    def fast_cost(self, open_facilities: Iterable[int], unserved_penalty: float = math.inf) -> float:
        """Vectorized :meth:`cost` (numpy); identical semantics.

        Falls back to the pure-Python path when capacities are set.
        """
        if self.capacities is not None:
            return self.cost(open_facilities, unserved_penalty)
        open_set = frozenset(open_facilities)
        if not open_set:
            return math.inf
        self._ensure_matrices()
        cols = [self._index[f] for f in open_set]
        sub_ranks = self._rank_matrix[:, cols]
        best = sub_ranks.argmin(axis=1)
        n_f = len(self.facilities)
        served = sub_ranks[_np.arange(len(self.clients)), best] < n_f
        if not served.all() and math.isinf(unserved_penalty):
            return math.inf
        picked_costs = self._cost_matrix[:, cols][_np.arange(len(self.clients)), best]
        total = float(
            (self._weights[served] * picked_costs[served]).sum()
            + self._weights[~served].sum() * (0.0 if math.isinf(unserved_penalty) else unserved_penalty)
        )
        total += sum(self.open_costs.get(f, 0.0) for f in open_set)
        return total
