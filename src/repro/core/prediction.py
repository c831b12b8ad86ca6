"""Catchment and RTT prediction for arbitrary configurations.

With total orders and the per-site RTT matrix in hand, predicting a
configuration is pure offline computation: a client's catchment is its
most preferred enabled site, and its RTT is the measured unicast RTT to
that site (S3.4).  ``evaluate`` deploys the configuration on the
simulated Internet and compares — the experiment behind the paper's
Figures 5a-5c.

The query API is :meth:`CatchmentPredictor.predict`: one batched call
returning a typed :class:`Prediction` per client, with an explicit
``reason`` when no (or only a partial) answer exists — ``unmapped``
(the model has never seen the client), ``quarantined`` (the client has
no usable total order under this configuration), or ``rtt-hole`` (a
catchment but no RTT sample for it).  The serving layer
(:mod:`repro.serve`), the audit cross-check, and report rendering all
consume this one result type.
"""

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional

from repro.core.config import AnycastConfig
from repro.measurement.orchestrator import Deployment
from repro.measurement.rtt import RttMatrix
from repro.measurement.targets import PingTarget
from repro.util.errors import ReproError
from repro.util.stats import mean, relative_error

#: ``Prediction.reason`` values (empty string means a full answer).
REASON_UNMAPPED = "unmapped"
REASON_QUARANTINED = "quarantined"
REASON_RTT_HOLE = "rtt-hole"


@dataclass(frozen=True)
class Prediction:
    """One client's predicted catchment under one configuration.

    ``site`` and ``rtt_ms`` are both set for a full answer; ``reason``
    explains anything missing:

    - ``"unmapped"`` — the model holds no observations for this client
      at all (``site`` and ``rtt_ms`` are None);
    - ``"quarantined"`` — the client has no usable total order under
      this configuration (cycle, inconsistent/undecided/unmeasured
      cells — the same set the audit layer quarantines);
    - ``"rtt-hole"`` — the catchment is known but the RTT matrix has
      no sample for (site, client).
    """

    client_id: int
    site: Optional[int]
    rtt_ms: Optional[float]
    reason: str = ""

    @property
    def decided(self) -> bool:
        """True when the client's catchment is predicted."""
        return self.site is not None

    def to_dict(self) -> dict:
        return {
            "client_id": self.client_id,
            "site": self.site,
            "rtt_ms": self.rtt_ms,
            "decided": self.decided,
            "reason": self.reason,
        }


@dataclass
class PredictionBatch:
    """Predictions for a batch of clients, in request order."""

    config: AnycastConfig
    predictions: List[Prediction] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.predictions)

    def __iter__(self):
        return iter(self.predictions)

    def __getitem__(self, index: int) -> Prediction:
        return self.predictions[index]

    @property
    def decided_count(self) -> int:
        return sum(1 for p in self.predictions if p.decided)

    @property
    def mean_rtt_ms(self) -> Optional[float]:
        """Mean predicted RTT over clients with an RTT, or None when
        the batch has none (never raises — the serving layer turns an
        empty answer into a structured error, not a 500)."""
        rtts = [p.rtt_ms for p in self.predictions if p.rtt_ms is not None]
        return mean(rtts) if rtts else None

    def counts_by_reason(self) -> Dict[str, int]:
        """How many predictions carry each non-empty ``reason``."""
        counts: Dict[str, int] = {}
        for p in self.predictions:
            if p.reason:
                counts[p.reason] = counts.get(p.reason, 0) + 1
        return counts

    def sites(self) -> Dict[int, Optional[int]]:
        """client id -> predicted site (None when undecided)."""
        return {p.client_id: p.site for p in self.predictions}

    def to_dict(self) -> dict:
        return {
            "sites": list(self.config.site_order),
            "summary": {
                "clients": len(self.predictions),
                "decided": self.decided_count,
                "mean_rtt_ms": self.mean_rtt_ms,
                "reasons": self.counts_by_reason(),
            },
            "predictions": [p.to_dict() for p in self.predictions],
        }


def model_clients(model, rtt_matrix: Optional[RttMatrix] = None) -> FrozenSet[int]:
    """Every client id the model holds observations for.

    Duck-typed over the model kinds ``CatchmentPredictor`` accepts: a
    :class:`~repro.core.twolevel.TwoLevelModel` (provider matrix plus
    per-provider site matrices) or a
    :class:`~repro.core.twolevel.FlatPreferenceModel` (one flat
    matrix).  RTT-matrix targets count too — a client with only RTT
    samples is *known*, merely quarantined for catchment purposes.

    The serving layer's snapshot compiler uses the same function, so
    a snapshot-backed lookup and the live predictor agree on which
    clients are ``unmapped``.
    """
    clients = set()
    provider_matrix = getattr(model, "provider_matrix", None)
    if provider_matrix is not None:
        clients.update(provider_matrix.clients())
    for matrix in getattr(model, "site_matrices", {}).values():
        clients.update(matrix.clients())
    flat = getattr(model, "matrix", None)
    if flat is not None:
        clients.update(flat.clients())
    if rtt_matrix is not None:
        clients.update(t for _, t in rtt_matrix.values)
    return frozenset(clients)


def _client_id(client) -> int:
    """Accept raw ids and ``PingTarget``-likes interchangeably."""
    return getattr(client, "target_id", client)


@dataclass
class PredictionReport:
    """Predicted-versus-measured comparison for one configuration."""

    config: AnycastConfig
    n_targets: int
    n_predicted: int
    n_correct: int
    predicted_mean_rtt: float
    measured_mean_rtt: float

    @property
    def accuracy(self) -> float:
        """Fraction of predicted clients whose measured catchment
        matched (paper: 94.7% on average)."""
        if self.n_predicted == 0:
            raise ReproError("no predictable clients to score")
        return self.n_correct / self.n_predicted

    @property
    def accuracy_or_none(self) -> Optional[float]:
        """Like :attr:`accuracy`, but None for an empty batch instead
        of raising — for callers (the HTTP layer, report renderers)
        that must degrade structurally rather than error."""
        if self.n_predicted == 0:
            return None
        return self.n_correct / self.n_predicted

    @property
    def coverage(self) -> float:
        """Fraction of clients for which a prediction was made."""
        return self.n_predicted / self.n_targets if self.n_targets else 0.0

    @property
    def abs_rtt_error_ms(self) -> float:
        return abs(self.predicted_mean_rtt - self.measured_mean_rtt)

    @property
    def rel_rtt_error(self) -> float:
        return relative_error(self.predicted_mean_rtt, self.measured_mean_rtt)


class CatchmentPredictor:
    """Predicts catchments and RTTs from a preference model.

    ``model`` is anything exposing
    ``total_order(client_id, site_order) -> TotalOrderResult`` — a
    :class:`~repro.core.twolevel.TwoLevelModel` or the naive
    :class:`~repro.core.twolevel.FlatPreferenceModel`.
    """

    def __init__(self, model, rtt_matrix: RttMatrix):
        self.model = model
        self.rtt_matrix = rtt_matrix
        self._known_clients: Optional[FrozenSet[int]] = None

    def known_clients(self) -> FrozenSet[int]:
        """Clients the model holds any observation for (cached)."""
        if self._known_clients is None:
            self._known_clients = model_clients(self.model, self.rtt_matrix)
        return self._known_clients

    # -- prediction ------------------------------------------------------------

    def predict(self, config: AnycastConfig, clients: Iterable) -> PredictionBatch:
        """Predict catchment and RTT for a batch of clients.

        ``clients`` is an iterable of client ids or
        :class:`~repro.measurement.targets.PingTarget`-likes; the
        batch preserves its order.  Never raises on a missing answer —
        each :class:`Prediction` carries its ``reason`` instead.
        """
        known = self.known_clients()
        predictions: List[Prediction] = []
        for client in clients:
            client_id = _client_id(client)
            predictions.append(self._predict_one(client_id, config, known))
        return PredictionBatch(config=config, predictions=predictions)

    def _predict_one(
        self, client_id: int, config: AnycastConfig, known: FrozenSet[int]
    ) -> Prediction:
        if client_id not in known:
            return Prediction(client_id, None, None, REASON_UNMAPPED)
        site = self._catchment(client_id, config)
        if site is None:
            return Prediction(client_id, None, None, REASON_QUARANTINED)
        rtt = self.rtt_matrix.values.get((site, client_id))
        if rtt is None:
            return Prediction(client_id, site, None, REASON_RTT_HOLE)
        return Prediction(client_id, site, rtt)

    def _catchment(self, client_id: int, config: AnycastConfig) -> Optional[int]:
        """The predicted catchment site, or None without a usable
        total order."""
        result = self.model.total_order(client_id, config.site_order)
        return result.most_preferred(config.sites)

    # -- batch conveniences ----------------------------------------------------

    def predict_mean_rtt(self, config: AnycastConfig, targets: Iterable[PingTarget]) -> float:
        """Predicted mean RTT over all predictable clients."""
        rtt = self.predict(config, targets).mean_rtt_ms
        if rtt is None:
            raise ReproError("no client is predictable under this configuration")
        return rtt

    # -- evaluation ---------------------------------------------------------------

    def evaluate(
        self,
        config: AnycastConfig,
        deployment: Deployment,
        targets: Iterable[PingTarget],
        metrics=None,
    ) -> PredictionReport:
        """Compare predictions against a real (simulated) deployment.

        Catchment accuracy is scored over clients with a prediction
        and a measured catchment; the measured mean RTT includes
        unpredictable clients too, exactly as the paper does (S4.2).

        ``metrics`` (a :class:`~repro.runtime.metrics.MetricsRegistry`)
        receives the per-target predicted RTT distribution in the
        ``predicted_rtt_ms`` histogram.
        """
        targets = list(targets)
        measured_map = deployment.measure_catchments(targets)
        batch = self.predict(config, targets)
        n_predicted = 0
        n_correct = 0
        predicted_rtts: List[float] = []
        measured_rtts: List[float] = []
        for target, prediction, measured_rtt in zip(
            targets, batch, deployment.measure_rtts(targets)
        ):
            measured_site = measured_map.site_of(target.target_id)
            if measured_rtt is not None:
                measured_rtts.append(measured_rtt)
            if not prediction.decided:
                continue
            if prediction.rtt_ms is not None:
                predicted_rtts.append(prediction.rtt_ms)
            if measured_site is None:
                continue
            n_predicted += 1
            if prediction.site == measured_site:
                n_correct += 1
        if metrics is not None:
            histogram = metrics.histogram("predicted_rtt_ms")
            for rtt in predicted_rtts:
                histogram.observe(rtt)
        if not predicted_rtts or not measured_rtts:
            raise ReproError("configuration produced no comparable RTTs")
        return PredictionReport(
            config=config,
            n_targets=len(targets),
            n_predicted=n_predicted,
            n_correct=n_correct,
            predicted_mean_rtt=mean(predicted_rtts),
            measured_mean_rtt=mean(measured_rtts),
        )
