"""Site-to-target RTT estimation.

The paper's protocol (S3, "Measuring RTTs"): announce the prefix from a
single site, probe each target seven times from the orchestrator
through that site's tunnel, take the median of the valid replies, and
subtract the separately estimated tunnel RTT.  At least three valid
replies are required for a sample.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.measurement.icmp import IcmpProber
from repro.measurement.targets import PingTarget
from repro.measurement.tunnels import TunnelManager
from repro.util.errors import MeasurementError
from repro.util.stats import mean

#: Probes per target per RTT measurement (the paper uses seven).
PROBES_PER_TARGET = 7
#: Minimum valid replies for a usable median (the paper uses three).
MIN_VALID_REPLIES = 3


def estimate_rtts(
    prober: IcmpProber,
    tunnels: TunnelManager,
    targets: Sequence[PingTarget],
    site_ids: Sequence[int],
    true_path_rtts_ms: np.ndarray,
    experiment_id: int,
    probes: int = PROBES_PER_TARGET,
    min_valid: int = MIN_VALID_REPLIES,
) -> List[Optional[float]]:
    """Estimate the RTT between each target and its site, in one pass.

    ``targets[i]`` is measured through ``site_ids[i]``'s tunnel over a
    true path RTT of ``true_path_rtts_ms[i]``.  An entry is None when
    fewer than ``min_valid`` replies survive loss.  An estimate can
    differ from the true path RTT through probe jitter and
    tunnel-estimate error — the noise floor visible in the paper's
    Figure 5b/5c.
    """
    if not targets:
        return []
    tunnel = [tunnels.tunnel(site_id) for site_id in site_ids]
    tunnel_true = np.array([t.true_rtt_ms for t in tunnel])
    tunnel_estimate = np.array([t.estimated_rtt_ms for t in tunnel])
    samples = prober.probe_rtts(
        experiment_id,
        np.array([t.target_id for t in targets]),
        np.array([t.loss_rate for t in targets]),
        true_path_rtts_ms + tunnel_true,
        range(probes),
    )
    # Lost probes are NaN, which sorts last: each row's valid replies
    # lead, and the median sits in the middle of those.
    ordered = np.sort(samples, axis=1)
    valid = probes - np.isnan(samples).sum(axis=1)
    upper = np.take_along_axis(ordered, (valid // 2)[:, None], axis=1)[:, 0]
    lower = np.take_along_axis(
        ordered, np.maximum(valid // 2 - 1, 0)[:, None], axis=1
    )[:, 0]
    median = np.where(valid % 2 == 1, upper, (lower + upper) / 2)
    estimates = np.maximum(0.0, median - tunnel_estimate)
    return [
        estimate if ok else None
        for estimate, ok in zip(estimates.tolist(), (valid >= min_valid).tolist())
    ]


def estimate_rtt(
    prober: IcmpProber,
    tunnels: TunnelManager,
    target: PingTarget,
    site_id: int,
    true_path_rtt_ms: float,
    experiment_id: int,
    probes: int = PROBES_PER_TARGET,
    min_valid: int = MIN_VALID_REPLIES,
) -> Optional[float]:
    """:func:`estimate_rtts` for one target: the RTT between
    ``site_id`` and ``target`` (S3, "Measuring RTTs")."""
    return estimate_rtts(
        prober,
        tunnels,
        [target],
        [site_id],
        np.array([true_path_rtt_ms], dtype=np.float64),
        experiment_id,
        probes,
        min_valid,
    )[0]


@dataclass
class RttMatrix:
    """Estimated RTTs from every site to every target.

    Built from one singleton BGP experiment per site; the paper needs
    ``O(|S|)`` such experiments (S3.4).
    """

    values: Dict[Tuple[int, int], Optional[float]] = field(default_factory=dict)

    def set(self, site_id: int, target_id: int, rtt_ms: Optional[float]) -> None:
        self.values[(site_id, target_id)] = rtt_ms

    def rtt(self, site_id: int, target_id: int) -> Optional[float]:
        try:
            return self.values[(site_id, target_id)]
        except KeyError:
            raise MeasurementError(
                f"no RTT measurement for site {site_id}, target {target_id}"
            ) from None

    def has(self, site_id: int, target_id: int) -> bool:
        return self.values.get((site_id, target_id)) is not None

    def sites(self) -> List[int]:
        return sorted({s for s, _ in self.values})

    def mean_unicast_rtt(self, site_id: int) -> float:
        """Mean RTT from one site to all measurable targets — the
        ranking criterion of the paper's greedy baseline (S5.3)."""
        rtts = [v for (s, _), v in self.values.items() if s == site_id and v is not None]
        if not rtts:
            raise MeasurementError(f"site {site_id} has no valid RTT samples")
        return mean(rtts)

    def best_site_for(self, target_id: int) -> Optional[int]:
        """The site with the lowest measured RTT to ``target_id``."""
        best: Optional[Tuple[float, int]] = None
        for (s, t), v in self.values.items():
            if t == target_id and v is not None and (best is None or v < best[0]):
                best = (v, s)
        return best[1] if best else None
