"""Batched, vectorized catchment lookup over a model snapshot.

The live :class:`~repro.core.prediction.CatchmentPredictor` rebuilds a
client's tournament from Python dicts on every call.  The
:class:`LookupEngine` answers the same queries for *all* snapshot
clients at once with dense array indexing:

- provider level: the effective winner of every ordered provider pair
  comes from one ``prov_w[:, i, j]`` slice (provider ``i`` announced
  first); a client has a provider order iff every pair is usable and
  its win counts are a permutation of ``0..P-1`` — the same
  transitivity criterion as
  :func:`~repro.core.preferences.build_total_order`;
- site level, inside each enabled provider: either the analogous
  ``site_w`` tournament (announce order = sorted site ids, so the
  lower-indexed site is always first) or the S4.3 RTT heuristic
  (argmin over per-site RTT with any hole invalidating the ranking);
- the catchment is the top site of the top provider, and the predicted
  RTT is the (site, client) cell of the RTT matrix.

Predictions are byte-identical to ``CatchmentPredictor.predict``: the
engine mirrors its reason taxonomy (``unmapped`` / ``quarantined`` /
``rtt-hole``) and converts array scalars back to the exact Python ints
and floats the live path produces (float64 round-trips exactly).
"""

from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from repro.core.config import AnycastConfig
from repro.core.prediction import (
    REASON_QUARANTINED,
    REASON_RTT_HOLE,
    REASON_UNMAPPED,
    Prediction,
    PredictionBatch,
)
from repro.serve.snapshot import Snapshot, SnapshotError
from repro.util.errors import ConfigurationError

#: Cached (site, rtt) answer vectors kept per engine.  Serving traffic
#: is heavily repeated-config, so this turns steady-state ``/predict``
#: into pure indexing; the cap bounds memory for config sweeps.
_CACHE_CAP = 128


class LookupEngine:
    """Answers catchment/RTT queries for a :class:`Snapshot`.

    The engine never mutates the snapshot; hot reload swaps in a whole
    new engine, so in-flight requests keep a consistent view.
    """

    def __init__(self, snapshot: Snapshot):
        self.snapshot = snapshot
        arrays = snapshot.arrays
        self._clients = arrays["clients"]
        self._sites = arrays["sites"]
        self._site_provider = arrays["site_provider"]
        self._prov_w = arrays["prov_w"]
        self._site_w = arrays["site_w"]
        self._rtt = arrays["rtt"]
        self._client_pos: Dict[int, int] = {
            int(cid): i for i, cid in enumerate(self._clients)
        }
        self._site_pos: Dict[int, int] = {
            int(sid): i for i, sid in enumerate(self._sites)
        }
        self._site_ids = self._sites.tolist()
        self._answers: Dict[Tuple[int, ...], Tuple["np.ndarray", "np.ndarray"]] = {}

    @property
    def version(self) -> str:
        return self.snapshot.version

    def client_ids(self) -> Tuple[int, ...]:
        return tuple(int(c) for c in self._clients)

    def site_ids(self) -> Tuple[int, ...]:
        return tuple(int(s) for s in self._sites)

    def knows_site(self, site_id: int) -> bool:
        return site_id in self._site_pos

    # -- vectorized core -------------------------------------------------------

    def predict_arrays(
        self, site_order: Tuple[int, ...]
    ) -> Tuple["np.ndarray", "np.ndarray"]:
        """Answers for *every* snapshot client, as arrays.

        Returns ``(site_index, rtt)``: per client, the index into the
        snapshot's site vector (``-1`` = quarantined) and the predicted
        RTT (NaN = quarantined or rtt-hole).  Uncached; :meth:`predict`
        adds the per-config memo on top.
        """
        if not site_order:
            raise ConfigurationError("empty announcement order")
        unknown = [s for s in site_order if s not in self._site_pos]
        if unknown:
            raise SnapshotError(f"sites {unknown} are not in this snapshot")

        n_clients = len(self._clients)
        # Providers in first-appearance order, each with its enabled
        # site indices — mirroring TwoLevelModel.total_order's grouping.
        prov_order = []
        prov_sites: Dict[int, list] = {}
        for site in site_order:
            site_idx = self._site_pos[site]
            provider = int(self._site_provider[site_idx])
            if provider not in prov_sites:
                prov_sites[provider] = []
                prov_order.append(provider)
            prov_sites[provider].append(site_idx)

        n_prov = len(prov_order)
        site_valid = np.ones((n_prov, n_clients), dtype=bool)
        top_site = np.empty((n_prov, n_clients), dtype=np.int64)
        rtt_mode = self.snapshot.site_level_mode == "rtt"
        for row, provider in enumerate(prov_order):
            # Ascending index == ascending site id == the announce
            # order site_ranking_within uses (sorted(sites)).
            members = sorted(prov_sites[provider])
            if len(members) == 1:
                top_site[row, :] = members[0]
                continue
            if rtt_mode:
                sub = self._rtt[members, :]
                site_valid[row] = ~np.isnan(sub).any(axis=0)
                filled = np.where(np.isnan(sub), np.inf, sub)
                # argmin's first-occurrence tie-break = lowest site id,
                # matching sorted((rtt, site)) in the live model.
                top_site[row] = np.asarray(members, dtype=np.int64)[
                    np.argmin(filled, axis=0)
                ]
            else:
                site_valid[row], best = self._tournament(self._site_w, members)
                top_site[row] = np.asarray(members, dtype=np.int64)[best]

        if n_prov == 1:
            decided = site_valid[0]
            catchment = top_site[0]
        else:
            prov_valid, top_prov = self._tournament(self._prov_w, prov_order)
            # The live path needs *every* enabled provider's site
            # ranking, not just the winner's (total_order builds the
            # full order before most_preferred picks its head).
            decided = prov_valid & site_valid.all(axis=0)
            catchment = top_site[top_prov, np.arange(n_clients)]

        site_index = np.where(decided, catchment, -1)
        rtt = np.full(n_clients, np.nan, dtype=np.float64)
        rtt[decided] = self._rtt[catchment[decided], np.flatnonzero(decided)]
        return site_index, rtt

    def _tournament(
        self, winners: "np.ndarray", members
    ) -> Tuple["np.ndarray", "np.ndarray"]:
        """Run every client's round-robin over ``members`` (index
        space positions, announce order = list order).

        Returns ``(valid, top)``: whether the tournament is usable and
        transitive, and the position *within* ``members`` of the
        most-winning member — under ``valid`` that is the unique top
        element.
        """
        n_clients = winners.shape[0]
        n = len(members)
        wins = np.zeros((n_clients, n), dtype=np.int16)
        usable = np.ones(n_clients, dtype=bool)
        for i in range(n):
            for j in range(i + 1, n):
                code = winners[:, members[i], members[j]]
                usable &= code >= 0
                wins[:, i] += code == 0
                wins[:, j] += code == 1
        # Transitive iff win counts are a permutation of 0..n-1.
        transitive = (
            np.sort(wins, axis=1) == np.arange(n, dtype=wins.dtype)
        ).all(axis=1)
        return usable & transitive, np.argmax(wins, axis=1)

    # -- typed batch API -------------------------------------------------------

    def _answers_for(
        self, site_order: Tuple[int, ...]
    ) -> Tuple["np.ndarray", "np.ndarray"]:
        key = tuple(site_order)
        cached = self._answers.get(key)
        if cached is None:
            cached = self.predict_arrays(key)
            if len(self._answers) >= _CACHE_CAP:
                self._answers.clear()
            self._answers[key] = cached
        return cached

    def predict(
        self, config: AnycastConfig, clients: Optional[Iterable] = None
    ) -> PredictionBatch:
        """Predict a batch — same signature, same result type, same
        bytes as ``CatchmentPredictor.predict``.

        ``clients=None`` answers for every client in the snapshot, in
        snapshot (sorted-id) order.
        """
        site_index, rtt = self._answers_for(config.site_order)
        # Python lists once per batch: list indexing beats per-client
        # numpy scalar extraction by an order of magnitude, and
        # ``tolist`` yields the exact ints/floats the live path does.
        answer_sites = site_index.tolist()
        answer_rtts = rtt.tolist()
        site_ids = self._site_ids
        if clients is None:
            client_ids = self._clients.tolist()
            positions: Iterable[Optional[int]] = range(len(client_ids))
        else:
            client_ids = [getattr(c, "target_id", c) for c in clients]
            positions = [self._client_pos.get(cid) for cid in client_ids]

        predictions = []
        for client_id, pos in zip(client_ids, positions):
            if pos is None:
                predictions.append(
                    Prediction(client_id, None, None, REASON_UNMAPPED)
                )
                continue
            idx = answer_sites[pos]
            if idx < 0:
                predictions.append(
                    Prediction(client_id, None, None, REASON_QUARANTINED)
                )
                continue
            value = answer_rtts[pos]
            if value != value:  # NaN: predicted site but no RTT cell
                predictions.append(
                    Prediction(client_id, site_ids[idx], None, REASON_RTT_HOLE)
                )
            else:
                predictions.append(Prediction(client_id, site_ids[idx], value))
        return PredictionBatch(config=config, predictions=predictions)
