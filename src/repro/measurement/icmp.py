"""Probe-level ICMP simulation: loss and jitter.

Each echo request either disappears (per-target loss rate) or returns
with the path's true RTT plus queueing jitter.  Jitter is modeled as a
small always-present component plus an occasional congestion spike —
exactly the outliers the paper's median-of-seven filtering exists to
remove.

The model is computed for whole target-by-sequence grids at once: a
probe's noise is a pure function of ``(seed, experiment_id,
target_id, sequence)`` drawn from a :class:`~repro.util.rng.KeyedStream`,
so one probe and a deployment's hundred thousand probes go through the
same kernel and agree exactly.
"""

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.measurement.targets import PingTarget
from repro.util.rng import KeyedStream, pack_counters

#: Draw slots of one probe's counter: the loss uniform, the two
#: Box-Muller uniforms of the jitter, the spike uniform, the spike size.
_LOSS, _JITTER, _SPIKE, _SPIKE_SIZE = 0, 1, 3, 4


@dataclass(frozen=True)
class ProbeResult:
    """One echo request's outcome."""

    target_id: int
    sequence: int
    rtt_ms: Optional[float]

    @property
    def lost(self) -> bool:
        return self.rtt_ms is None


class IcmpProber:
    """Simulates echo requests against known true path RTTs.

    Determinism: probes are keyed by ``(seed, experiment_id,
    target_id, sequence)`` so repeating an experiment reproduces the
    same loss pattern and jitter, while distinct experiments see
    independent noise.  Target ids must lie in ``[0, 2**48)`` and
    sequence numbers in ``[0, 4096)``.
    """

    #: Typical magnitude of per-probe queueing jitter (ms).
    BASE_JITTER_MS = 0.6
    #: Probability that a probe hits a congestion spike.
    SPIKE_PROB = 0.04
    #: Mean size of a congestion spike (ms, exponential).
    SPIKE_MEAN_MS = 25.0

    def __init__(self, seed=0):
        self.seed = seed

    def _grid(self, experiment_id: int, target_ids, sequences):
        stream = KeyedStream(self.seed, "icmp", experiment_id)
        ids = np.asarray(target_ids, dtype=np.int64)
        return stream, pack_counters(ids[:, None], np.asarray(sequences)[None, :])

    def lost(
        self,
        experiment_id: int,
        target_ids: np.ndarray,
        loss_rates: np.ndarray,
        sequences: Sequence[int],
    ) -> np.ndarray:
        """Which probes are lost: a bool array, one row per target and
        one column per sequence number."""
        stream, counters = self._grid(experiment_id, target_ids, sequences)
        return stream.random(counters + np.uint64(_LOSS)) < loss_rates[:, None]

    def probe_rtts(
        self,
        experiment_id: int,
        target_ids: np.ndarray,
        loss_rates: np.ndarray,
        true_rtts_ms: np.ndarray,
        sequences: Sequence[int],
    ) -> np.ndarray:
        """Every probe's RTT sample (NaN when lost), one row per target
        and one column per sequence number."""
        lost = self.lost(experiment_id, target_ids, loss_rates, sequences)
        stream, counters = self._grid(experiment_id, target_ids, sequences)
        jitter = np.abs(stream.gauss(counters + np.uint64(_JITTER), self.BASE_JITTER_MS))
        spike = stream.random(counters + np.uint64(_SPIKE)) < self.SPIKE_PROB
        jitter[spike] += stream.expovariate(
            counters[spike] + np.uint64(_SPIKE_SIZE), self.SPIKE_MEAN_MS
        )
        rtts = true_rtts_ms[:, None] + jitter
        rtts[lost] = np.nan
        return rtts

    def probe(
        self,
        target: PingTarget,
        true_rtt_ms: float,
        experiment_id: int,
        sequence: int,
    ) -> ProbeResult:
        """Send one echo request; returns a lost probe or a sample."""
        return self._results(target, true_rtt_ms, experiment_id, [sequence])[0]

    def probe_train(
        self,
        target: PingTarget,
        true_rtt_ms: float,
        experiment_id: int,
        count: int = 7,
    ) -> List[ProbeResult]:
        """The paper's seven-probe train for one target."""
        return self._results(target, true_rtt_ms, experiment_id, range(count))

    def _results(self, target, true_rtt_ms, experiment_id, sequences) -> List[ProbeResult]:
        rtts = self.probe_rtts(
            experiment_id,
            np.array([target.target_id]),
            np.array([target.loss_rate]),
            np.array([true_rtt_ms], dtype=np.float64),
            sequences,
        )[0]
        return [
            ProbeResult(target.target_id, seq, None if math.isnan(rtt) else rtt)
            for seq, rtt in zip(sequences, rtts.tolist())
        ]
