"""Catchment mapping (the Verfploeter technique).

An echo request is sent to each target with the anycast prefix as its
source address; the reply routes to the target's catchment site and
arrives at the orchestrator through that site's GRE tunnel, which
identifies the catchment (S3, "Measuring Catchments").  A target whose
probes are all lost stays unmapped for that experiment.
"""

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

import numpy as np

from repro.measurement.icmp import IcmpProber
from repro.measurement.targets import PingTarget
from repro.util.errors import MeasurementError


@dataclass
class CatchmentMap:
    """target id -> catchment site id (None while unmapped)."""

    experiment_id: int
    mapping: Dict[int, Optional[int]] = field(default_factory=dict)

    def site_of(self, target_id: int) -> Optional[int]:
        try:
            return self.mapping[target_id]
        except KeyError:
            raise MeasurementError(
                f"target {target_id} was not probed in experiment "
                f"{self.experiment_id}"
            ) from None

    def targets_of_site(self, site_id: int) -> Set[int]:
        return {t for t, s in self.mapping.items() if s == site_id}

    def mapped_count(self) -> int:
        return sum(1 for s in self.mapping.values() if s is not None)

    def catchment_sizes(self) -> Dict[int, int]:
        sizes: Dict[int, int] = {}
        for site in self.mapping.values():
            if site is not None:
                sizes[site] = sizes.get(site, 0) + 1
        return sizes


def measure_catchments(
    deployment,
    targets: Iterable[PingTarget],
    prober: IcmpProber,
    retries: int = 3,
) -> CatchmentMap:
    """Map every target's catchment under ``deployment``, in one pass.

    ``deployment`` must expose ``experiment_id`` and
    ``forwarding(target)`` (see
    :class:`repro.measurement.orchestrator.Deployment`).  Each target is
    probed up to ``1 + retries`` times and is mapped as soon as one
    reply returns; loss applies per probe.
    """
    targets = list(targets)
    outcomes = [deployment.forwarding(target) for target in targets]
    # A target without a route back to any site never replies.
    sites: List[Optional[int]] = [None] * len(targets)
    routed = [i for i, outcome in enumerate(outcomes) if outcome is not None]
    if routed:
        lost = prober.lost(
            deployment.experiment_id,
            np.array([targets[i].target_id for i in routed]),
            np.array([targets[i].loss_rate for i in routed]),
            range(100, 101 + retries),
        )
        for i, replied in zip(routed, (~lost.all(axis=1)).tolist()):
            if replied:
                sites[i] = outcomes[i].site_id
    cmap = CatchmentMap(experiment_id=deployment.experiment_id)
    for target, site in zip(targets, sites):
        cmap.mapping[target.target_id] = site
    return cmap
