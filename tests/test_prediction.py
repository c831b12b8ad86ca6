"""Tests for catchment/RTT prediction against deployments."""

import pytest

from repro.baselines import random_config
from repro.core.config import AnycastConfig
from repro.core.prediction import (
    REASON_UNMAPPED,
    Prediction,
    PredictionBatch,
    PredictionReport,
)
from repro.util.errors import ReproError


@pytest.fixture(scope="module")
def predictor(anyopt_model):
    return anyopt_model.predictor


class TestPredictBatch:
    def test_predicts_enabled_site_or_none(self, predictor, targets, testbed):
        cfg = AnycastConfig(site_order=(1, 4, 6))
        for p in predictor.predict(cfg, list(targets)[:100]):
            assert p.site in (1, 4, 6, None)
            assert p.decided == (p.site is not None)

    def test_singleton_prediction_is_that_site(self, predictor, targets):
        cfg = AnycastConfig(site_order=(9,))
        predicted = {p.site for p in predictor.predict(cfg, targets)}
        assert predicted <= {9, None}

    def test_prediction_respects_announce_order(self, predictor, targets):
        """For order-dependent clients, reversing the configured
        announcement order can change the prediction."""
        ab = predictor.predict(AnycastConfig(site_order=(1, 6)), targets)
        ba = predictor.predict(AnycastConfig(site_order=(6, 1)), targets)
        changed = sum(
            1
            for p, q in zip(ab, ba)
            if p.site is not None and p.site != q.site
        )
        assert changed > 0

    def test_predict_sites_bulk(self, predictor, targets):
        cfg = AnycastConfig(site_order=(1, 6))
        result = predictor.predict(cfg, targets).sites()
        assert len(result) == len(targets)

    def test_batch_preserves_request_order(self, predictor, targets):
        cfg = AnycastConfig(site_order=(1, 6))
        ids = [t.target_id for t in targets][:20][::-1]
        batch = predictor.predict(cfg, ids)
        assert [p.client_id for p in batch] == ids

    def test_unknown_client_is_unmapped(self, predictor):
        cfg = AnycastConfig(site_order=(1, 6))
        batch = predictor.predict(cfg, [10**9])
        assert batch[0] == Prediction(10**9, None, None, REASON_UNMAPPED)
        assert batch.counts_by_reason() == {REASON_UNMAPPED: 1}

    def test_reasons_partition_the_batch(self, predictor, targets):
        cfg = AnycastConfig(site_order=(1, 4, 6))
        batch = predictor.predict(cfg, targets)
        undecided = sum(batch.counts_by_reason().values()) - sum(
            1 for p in batch if p.decided and p.reason
        )
        assert batch.decided_count + undecided == len(batch)

    def test_empty_batch_mean_rtt_is_none(self, predictor):
        cfg = AnycastConfig(site_order=(1,))
        assert predictor.predict(cfg, []).mean_rtt_ms is None


class TestPredictRtt:
    def test_rtt_from_matrix(self, predictor, targets, anyopt_model):
        cfg = AnycastConfig(site_order=(1, 6))
        for p in predictor.predict(cfg, list(targets)[:50]):
            if p.rtt_ms is not None:
                assert p.rtt_ms == anyopt_model.rtt_matrix.rtt(p.site, p.client_id)

    def test_mean_rtt_positive(self, predictor, targets):
        cfg = AnycastConfig(site_order=(1, 4, 6, 12))
        assert predictor.predict_mean_rtt(cfg, targets) > 0


class TestEvaluate:
    def test_accuracy_high_on_random_configs(self, anyopt, anyopt_model, testbed):
        """The paper's S5.2 result: held-out random configurations are
        predicted with >90% catchment accuracy."""
        for i in range(3):
            cfg = random_config(testbed, 4 + 3 * i, seed=50 + i)
            report = anyopt.evaluate(anyopt_model, cfg)
            assert report.accuracy > 0.9
            assert 0.5 < report.coverage <= 1.0

    def test_rtt_error_small(self, anyopt, anyopt_model, testbed):
        cfg = random_config(testbed, 8, seed=77)
        report = anyopt.evaluate(anyopt_model, cfg)
        assert report.rel_rtt_error < 0.25

    def test_report_consistency(self, anyopt, anyopt_model, testbed):
        cfg = random_config(testbed, 5, seed=78)
        report = anyopt.evaluate(anyopt_model, cfg)
        assert report.n_correct <= report.n_predicted <= report.n_targets
        assert report.abs_rtt_error_ms == pytest.approx(
            abs(report.predicted_mean_rtt - report.measured_mean_rtt)
        )

    def test_empty_report_raises(self):
        report = PredictionReport(
            config=AnycastConfig(site_order=(1,)),
            n_targets=10, n_predicted=0, n_correct=0,
            predicted_mean_rtt=1.0, measured_mean_rtt=1.0,
        )
        with pytest.raises(ReproError):
            report.accuracy
        assert report.accuracy_or_none is None

    def test_batch_to_dict_shape(self, predictor, targets):
        cfg = AnycastConfig(site_order=(1, 6))
        doc = predictor.predict(cfg, list(targets)[:5]).to_dict()
        assert doc["sites"] == [1, 6]
        assert doc["summary"]["clients"] == 5
        assert len(doc["predictions"]) == 5
        assert isinstance(doc["predictions"][0], dict)


def test_prediction_batch_is_sequence_like():
    cfg = AnycastConfig(site_order=(3,))
    batch = PredictionBatch(
        config=cfg,
        predictions=[Prediction(1, 3, 10.0), Prediction(2, None, None, "quarantined")],
    )
    assert len(batch) == 2
    assert batch[0].decided and not batch[1].decided
    assert batch.decided_count == 1
    assert batch.sites() == {1: 3, 2: None}
    assert batch.mean_rtt_ms == 10.0
