"""Convergence cache: reuse converged BGP state across deployments.

Running a configuration to convergence is the dominant cost of every
campaign, and several workflows redeploy the *same* configuration —
``evaluate`` after ``optimize``, stability studies, Monte-Carlo
baselines.  The cache is keyed by every input that determines the
converged state (the injection tuple, the per-experiment IGP overlay,
the delay-jitter parameters, and any scheduled withdrawals), so a hit
is bit-identical to re-running the engine: substituting the cached
:class:`~repro.bgp.engine.ConvergedState` never changes any result.

Hits therefore occur exactly when the stochastic per-experiment inputs
coincide — always for noise-free settings
(:meth:`~repro.runtime.settings.CampaignSettings.noiseless`), never
when churn or jitter resample per experiment.  That is the sound
trade: the cache accelerates repeated deployments without silently
freezing the drift models.
"""

import threading
from collections import OrderedDict
from typing import Dict, Optional, Sequence, Tuple

from repro.runtime.metrics import MetricsRegistry
from repro.util.errors import ConfigurationError

#: Metrics counter names used by the cache.
HITS_COUNTER = "convergence_cache_hits"
MISSES_COUNTER = "convergence_cache_misses"
DISK_HITS_COUNTER = "convergence_cache_disk_hits"


class ConvergenceCache:
    """A bounded LRU cache of converged control-plane states.

    Thread-safe: pooled campaign executors look up and store entries
    from worker threads.  Two threads racing on the same key may both
    miss and both converge — the results are identical by construction,
    so the duplicate store is harmless.

    ``store`` optionally spills entries to a persistent
    :class:`~repro.io.cachestore.ConvergenceStore`: every stored state
    is also written to disk, and a memory miss consults the disk
    before reporting a miss.  Disk hits count as hits (plus their own
    counter) because the engine run they replace is skipped all the
    same — that is how repeated CLI invocations and process-pool
    workers reuse each other's convergence work.

    Delta states hold a :class:`~repro.bgp.delta.LazyStates` mapping
    whose pickle reduces to a plain dict, so a spilled entry is a plain
    state dict on disk.
    """

    def __init__(
        self,
        max_entries: int = 256,
        metrics: Optional[MetricsRegistry] = None,
        store=None,
    ):
        if max_entries < 1:
            raise ConfigurationError("convergence cache needs at least one entry")
        self.max_entries = max_entries
        self.metrics = metrics
        self.disk_store = store
        self._entries: "OrderedDict[Tuple, object]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._lock = threading.Lock()

    # -- key construction ---------------------------------------------------

    @staticmethod
    def key_for(
        injections: Sequence,
        igp_overlay: Optional[Dict[Tuple[int, int], int]],
        delay_jitter_ms: float,
        delay_nonce: int,
        withdrawals: Sequence = (),
    ) -> Tuple:
        """The exact-input cache key for one engine run.

        The jitter nonce only participates when jitter is actually
        applied — with ``delay_jitter_ms == 0`` the nonce is never
        read, so runs differing only in nonce are identical.
        """
        overlay_key = (
            () if not igp_overlay else tuple(sorted(igp_overlay.items()))
        )
        jitter_key = (delay_jitter_ms, delay_nonce if delay_jitter_ms > 0.0 else 0)
        return (tuple(injections), overlay_key, jitter_key, tuple(withdrawals))

    # -- stats --------------------------------------------------------------

    @property
    def hits(self) -> int:
        return self._hits

    @property
    def misses(self) -> int:
        return self._misses

    def __len__(self) -> int:
        return len(self._entries)

    # -- operations ---------------------------------------------------------

    def lookup(self, key: Tuple):
        """The cached state for ``key``, or None (counts a hit/miss)."""
        with self._lock:
            state = self._entries.get(key)
            if state is not None:
                self._entries.move_to_end(key)
        from_disk = False
        if state is None and self.disk_store is not None:
            state = self.disk_store.load(key)
            if state is not None:
                from_disk = True
                self._insert(key, state)
        with self._lock:
            if state is not None:
                self._hits += 1
            else:
                self._misses += 1
        if self.metrics is not None:
            counter = HITS_COUNTER if state is not None else MISSES_COUNTER
            self.metrics.counter(counter).increment()
            if from_disk:
                self.metrics.counter(DISK_HITS_COUNTER).increment()
        return state

    def _insert(self, key: Tuple, state) -> None:
        with self._lock:
            self._entries[key] = state
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def store(self, key: Tuple, state) -> None:
        """Insert ``state``, evicting the least recently used entry;
        also spilled to the persistent store when one is attached."""
        self._insert(key, state)
        if self.disk_store is not None:
            self.disk_store.save(key, state)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
