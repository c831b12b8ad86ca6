"""Bit-identity of the delta convergence engine.

The delta engine (touched-AS tracking, copy-on-restore, pure-stub
aggregation) must be indistinguishable — states, convergence time,
message count, enabled sites — from both the pooled full engine and
the build-everything-per-run reference, across every workload shape
the campaign layer can produce: staggering, withdrawals, poisoning
(including poisoning an aggregated stub), IGP overlays, delay jitter,
injections hosted at stubs that normally aggregate, and multi-homed
stub populations.
"""

import pickle

import pytest

from repro import AnyOpt, CampaignSettings
from repro.bgp.delta import LazyStates
from repro.core.config import AnycastConfig
from repro.measurement import Orchestrator
from repro.bgp.engine import BGPEngine, SiteInjection, SiteWithdrawal
from repro.io.cachestore import topology_fingerprint
from repro.topology.astopo import Relationship
from repro.topology.generator import ScaleSweepParams, generate_scale_internet
from repro.util.errors import ConvergenceBudgetError


SEED = 7


def injection(testbed, site_id, t=0.0, poison=()):
    site = testbed.site(site_id)
    return SiteInjection(
        host_asn=site.provider_asn,
        site_id=site_id,
        pop_id=site.attach_pop,
        link_rtt_ms=site.access_rtt_ms,
        rel_from_host=Relationship.CUSTOMER,
        announce_time_ms=t,
        poison=tuple(poison),
    )


def engine_trio(internet):
    """Delta (default), pooled full, and the per-run reference."""
    return (
        BGPEngine(internet),
        BGPEngine(internet, mode="full"),
        BGPEngine(internet, reuse_state=False),
    )


def assert_identical(internet, injections, **kwargs):
    results = [e.run(injections, **kwargs) for e in engine_trio(internet)]
    first = results[0]
    for other in results[1:]:
        assert first.states == other.states
        assert first.convergence_time_ms == other.convergence_time_ms
        assert first.message_count == other.message_count
        assert first.enabled_sites == other.enabled_sites
    return first


class TestBitIdentity:
    def test_single_site(self, testbed):
        assert_identical(testbed.internet, [injection(testbed, 1)])

    def test_staggered_multi_site(self, testbed):
        assert_identical(
            testbed.internet,
            [
                injection(testbed, 1),
                injection(testbed, 4, t=1000.0),
                injection(testbed, 6, t=360000.0),
            ],
        )

    def test_simultaneous_race_with_jitter(self, testbed):
        for nonce in (0, 1, 2):
            assert_identical(
                testbed.internet,
                [injection(testbed, 1), injection(testbed, 6)],
                delay_jitter_ms=5.0,
                delay_nonce=nonce,
            )

    def test_withdrawal_reconvergence(self, testbed):
        assert_identical(
            testbed.internet,
            [injection(testbed, 1), injection(testbed, 6, t=360000.0)],
            withdrawals=[
                SiteWithdrawal(
                    host_asn=testbed.site(6).provider_asn,
                    site_id=6,
                    withdraw_time_ms=720000.0,
                )
            ],
        )

    def test_igp_overlay(self, testbed):
        tables = testbed.internet.graph.tables()
        sessions = sorted(tables.session_import)[:40]
        overlay = {s: (i % 7) * 3 for i, s in enumerate(sessions)}
        assert_identical(
            testbed.internet,
            [injection(testbed, 1), injection(testbed, 4, t=2000.0)],
            igp_overlay=overlay,
        )

    def test_poisoned_transit(self, testbed):
        plain = BGPEngine(testbed.internet, mode="full").run([injection(testbed, 1)])
        carrier = next(
            asn
            for asn, state in plain.states.items()
            if testbed.internet.graph.as_of(asn).tier == 2 and state.best is not None
        )
        assert_identical(
            testbed.internet, [injection(testbed, 1, poison=(carrier,))]
        )

    def test_poisoned_aggregated_stub(self, testbed):
        """Poisoning an AS the delta engine aggregates exercises the
        complicated (per-stub replay) path: the stub must end
        route-less while its siblings keep theirs, and a previously
        advertised route must be withdrawn, not merely skipped."""
        tables = testbed.internet.graph.tables()
        assert tables.stub_providers, "testbed has no aggregatable stubs"
        stub = sorted(tables.stub_providers)[0]
        converged = assert_identical(
            testbed.internet,
            [
                injection(testbed, 1),
                injection(testbed, 1, t=5000.0, poison=(stub,)),
            ],
        )
        assert converged.states[stub].best is None

    def test_injection_hosted_at_aggregated_stub(self, testbed):
        """A stub that normally aggregates but hosts an announcement
        this run must go live (it exports toward its providers) while
        its siblings stay aggregated."""
        tables = testbed.internet.graph.tables()
        stub = sorted(tables.stub_providers)[0]
        converged = assert_identical(
            testbed.internet,
            [
                injection(testbed, 1),
                SiteInjection(
                    host_asn=stub,
                    site_id=99,
                    pop_id=None,
                    link_rtt_ms=2.0,
                    rel_from_host=Relationship.CUSTOMER,
                    announce_time_ms=0.0,
                ),
            ],
        )
        assert converged.states[stub].best is not None

    def test_run_sequence_reuses_state_correctly(self, testbed):
        """Back-to-back heterogeneous runs on one engine (the campaign
        pattern) must each match a fresh reference run."""
        delta = BGPEngine(testbed.internet)
        reference = BGPEngine(testbed.internet, reuse_state=False)
        workloads = [
            [injection(testbed, 1)],
            [injection(testbed, 2), injection(testbed, 5, t=1000.0)],
            [injection(testbed, 1)],  # repeat: pool must have reset
            [injection(testbed, 3)],
        ]
        for w in workloads:
            a = delta.run(w)
            b = reference.run(w)
            assert a.states == b.states
            assert a.message_count == b.message_count
            assert a.convergence_time_ms == b.convergence_time_ms


class TestMultiHomedAggregation:
    """Scale-sweep topologies with weak single-homing: most stubs are
    multi-homed and still aggregate (pure stubs, any homing degree)."""

    @pytest.fixture(scope="class")
    def multihomed_internet(self):
        params = ScaleSweepParams(
            n_ases=300, single_home_bias=0.3, stub_max_providers=3
        )
        return generate_scale_internet(params, seed=11)

    def test_multi_homed_stubs_are_aggregated(self, multihomed_internet):
        tables = multihomed_internet.graph.tables()
        multi = [s for s, ps in tables.stub_providers.items() if len(ps) > 1]
        assert len(multi) > 50
        # Single-homed subset stays available for legacy callers.
        assert set(tables.stub_provider) <= set(tables.stub_providers)

    def test_equivalence_across_seeds_and_workloads(self, multihomed_internet):
        graph = multihomed_internet.graph
        tier2 = [a for a in graph.asns() if graph.as_of(a).tier == 2]
        workloads = [
            [
                SiteInjection(h, i + 1, None, 1.0, Relationship.CUSTOMER, t)
                for i, (h, t) in enumerate(zip(hosts, times))
            ]
            for hosts, times in [
                (tier2[:2], (0.0, 0.0)),
                (tier2[2:5], (0.0, 1000.0, 360000.0)),
                ((tier2[0], tier2[5]), (0.0, 50.0)),
            ]
        ]
        delta, full, reference = engine_trio(multihomed_internet)
        for w in workloads:
            a, b, c = delta.run(w), full.run(w), reference.run(w)
            assert a.states == b.states == c.states
            assert a.message_count == b.message_count == c.message_count
            assert (
                a.convergence_time_ms
                == b.convergence_time_ms
                == c.convergence_time_ms
            )

    def test_withdraw_and_jitter_on_multihomed_population(self, multihomed_internet):
        graph = multihomed_internet.graph
        tier2 = [a for a in graph.asns() if graph.as_of(a).tier == 2]
        injections = [
            SiteInjection(tier2[0], 1, None, 1.0, Relationship.CUSTOMER, 0.0),
            SiteInjection(tier2[1], 2, None, 1.0, Relationship.CUSTOMER, 0.0),
        ]
        withdrawals = [SiteWithdrawal(tier2[1], 2, 500000.0)]
        assert_identical(
            multihomed_internet,
            injections,
            withdrawals=withdrawals,
            delay_jitter_ms=3.0,
            delay_nonce=5,
        )


class TestLazyStates:
    def test_delta_returns_lazy_mapping(self, testbed):
        conv = BGPEngine(testbed.internet).run([injection(testbed, 1)])
        assert isinstance(conv.states, LazyStates)
        assert len(conv.states) == len(testbed.internet.graph)
        assert set(conv.states) == set(testbed.internet.graph.asns())

    def test_pickle_materializes_to_plain_dict(self, testbed):
        delta_conv = BGPEngine(testbed.internet).run([injection(testbed, 1)])
        full_conv = BGPEngine(testbed.internet, mode="full").run(
            [injection(testbed, 1)]
        )
        revived = pickle.loads(pickle.dumps(delta_conv.states))
        assert type(revived) is dict
        assert revived == full_conv.states

    def test_untouched_ases_share_pristine_state(self, testbed):
        """A poisoned transit receives nothing (every export path
        contains it), so consecutive runs hand out the same shared
        pristine state object for it."""
        engine = BGPEngine(testbed.internet)
        plain = engine.run([injection(testbed, 1)])
        graph = testbed.internet.graph
        carrier = next(
            asn
            for asn, state in plain.states.items()
            if graph.as_of(asn).tier == 2 and state.best is not None
        )
        workload = [injection(testbed, 1, poison=(carrier,))]
        first = engine.run(workload)
        second = engine.run(workload)
        assert first.states[carrier].best is None
        assert first.states[carrier] is second.states[carrier]


class TestBudget:
    def test_budget_census_in_delta_mode(self, testbed):
        engine = BGPEngine(testbed.internet, max_events=10)
        with pytest.raises(ConvergenceBudgetError) as exc:
            engine.run([injection(testbed, 1)])
        err = exc.value
        assert err.budget == 10
        assert err.events > 10
        assert err.ases_touched >= 1
        assert err.virtual_time_ms >= 0.0


class TestFingerprint:
    def test_engine_mode_namespaces_the_store(self, testbed):
        graph = testbed.internet.graph
        prints = {
            topology_fingerprint(graph, "192.0.2.0/24", mode, agg)
            for mode in ("delta", "full")
            for agg in (False, True)
        }
        assert len(prints) == 4
        assert topology_fingerprint(
            graph, "192.0.2.0/24", "delta", True
        ) == topology_fingerprint(graph, "192.0.2.0/24", "delta", True)


class TestCampaignEquivalence:
    """Delta versus full at the campaign layer: every executor shape
    and the fault-injection/retry machinery must see no difference."""

    @pytest.mark.parametrize(
        "executor,parallelism",
        [("thread", 1), ("thread", 3), ("process", 2)],
        ids=["serial", "thread", "process"],
    )
    def test_full_mode_discover_matches_delta(
        self, testbed, targets, anyopt_model, executor, parallelism
    ):
        settings = CampaignSettings(
            engine_mode="full", parallelism=parallelism, executor=executor
        )
        with AnyOpt(testbed, targets=targets, seed=SEED, settings=settings) as anyopt:
            model = anyopt.discover()
        assert model.rtt_matrix.values == anyopt_model.rtt_matrix.values
        assert model.experiments_used == anyopt_model.experiments_used
        assert model.twolevel.provider_matrix == anyopt_model.twolevel.provider_matrix
        assert model.twolevel.site_matrices == anyopt_model.twolevel.site_matrices

    def test_fault_injection_equivalent_across_modes(self, testbed, targets):
        outcomes = {}
        for mode in ("delta", "full"):
            settings = CampaignSettings(
                engine_mode=mode,
                fault_announcement_prob=0.15,
                fault_convergence_timeout_prob=0.05,
            )
            orch = Orchestrator(testbed, targets, seed=SEED, settings=settings)
            deployments = [
                orch.deploy(AnycastConfig(site_order=tuple(testbed.site_ids()[:k])))
                for k in (2, 3, 4)
            ]
            outcomes[mode] = [
                (
                    dict(d.converged.states.items()),
                    d.converged.message_count,
                    d.converged.convergence_time_ms,
                    d.converged.enabled_sites,
                )
                for d in deployments
            ]
        assert outcomes["delta"] == outcomes["full"]
