"""Bit-identity of the delta convergence engine.

The delta engine (touched-AS tracking, copy-on-restore, pure-stub
aggregation) must be indistinguishable — states, convergence time,
message count, enabled sites — from the build-everything-per-run
reference, across every workload shape the campaign layer can produce:
staggering, withdrawals, poisoning (including poisoning an aggregated
stub), IGP overlays, delay jitter, injections hosted at stubs that
normally aggregate, and multi-homed stub populations.  Fixed cases pin
the known-hard shapes; a hypothesis property checks generated ones.
"""

import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.delta import LazyStates
from repro.bgp.engine import BGPEngine, SiteInjection, SiteWithdrawal
from repro.io import cachestore
from repro.topology.astopo import Relationship
from repro.topology.generator import (
    ScaleSweepParams,
    TopologyParams,
    generate_internet,
    generate_scale_internet,
)
from repro.util.errors import ConvergenceBudgetError
from tests.test_engine_properties import internets_with_injections


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


def engine_pair(internet):
    """Delta (the default) and the per-run reference."""
    return BGPEngine(internet), BGPEngine(internet, reuse_state=False)


def assert_same_convergence(a, b):
    assert a.states == b.states
    assert a.convergence_time_ms == b.convergence_time_ms
    assert a.message_count == b.message_count
    assert a.enabled_sites == b.enabled_sites


def assert_identical(internet, injections, **kwargs):
    delta, reference = (e.run(injections, **kwargs) for e in engine_pair(internet))
    assert_same_convergence(delta, reference)
    return delta


@st.composite
def engine_runs(draw):
    """:func:`internets_with_injections` widened to every workload
    shape the delta engine special-cases: extra hosts drawn from tier-2
    and stub ASes (a stub host is an aggregated stub that must go
    live), an optional withdrawal, an optional poisoned ASN (possibly
    an aggregated stub, which forces per-stub replay), and per-run
    delay jitter with a drawn nonce."""
    internet, injections = draw(internets_with_injections())
    graph = internet.graph
    taken = {inj.host_asn for inj in injections}
    lower = [asn for asn in graph.asns() if graph.as_of(asn).tier != 1 and asn not in taken]
    extra = draw(st.lists(st.sampled_from(lower), max_size=2, unique=True))
    for host in extra:
        injections.append(
            SiteInjection(
                host_asn=host,
                site_id=len(injections) + 1,
                pop_id=None,
                link_rtt_ms=1.0,
                rel_from_host=Relationship.CUSTOMER,
                announce_time_ms=draw(st.sampled_from([0.0, 1000.0, 360000.0])),
            )
        )
    if draw(st.booleans()):
        idx = draw(st.integers(min_value=0, max_value=len(injections) - 1))
        victim = injections[idx]
        poison = draw(st.sampled_from([a for a in graph.asns() if a != victim.host_asn]))
        injections[idx] = dataclasses.replace(victim, poison=(poison,))
    withdrawals = []
    if draw(st.booleans()):
        inj = draw(st.sampled_from(injections))
        withdrawals.append(
            SiteWithdrawal(
                host_asn=inj.host_asn,
                site_id=inj.site_id,
                withdraw_time_ms=inj.announce_time_ms
                + draw(st.sampled_from([0.0, 500.0, 720000.0])),
            )
        )
    run_kwargs = dict(
        withdrawals=withdrawals,
        delay_jitter_ms=draw(st.sampled_from([0.0, 5.0])),
        delay_nonce=draw(st.integers(min_value=0, max_value=1000)),
    )
    return internet, injections, run_kwargs


#: Event cap for generated runs: converging ones on these small
#: topologies need a few hundred events, so hitting the cap means the
#: run oscillates (a policy-deviant AS can form a dispute wheel).
GENERATED_RUN_BUDGET = 100_000


def converge_or_none(engine, injections, **kwargs):
    """The engine's converged state, or ``None`` if it never converges."""
    try:
        return engine.run(injections, **kwargs)
    except ConvergenceBudgetError:
        return None


class TestDeltaMatchesReference:
    @given(engine_runs())
    @settings(max_examples=25, deadline=None)
    def test_generated_runs_are_bit_identical(self, run):
        """Both engines agree on every generated run — on the converged
        state when it converges, and on non-convergence when the drawn
        policies oscillate."""
        internet, injections, run_kwargs = run
        delta, reference = (
            converge_or_none(
                BGPEngine(internet, reuse_state=reuse, max_events=GENERATED_RUN_BUDGET),
                injections,
                **run_kwargs,
            )
            for reuse in (True, False)
        )
        assert (delta is None) == (reference is None)
        if delta is not None:
            assert_same_convergence(delta, reference)

    def test_oscillating_run_exhausts_both_budgets(self):
        """A generated case that never converges: the policy-deviant
        tier-2 AS 20000 hosting a site alongside two tier-1 sites forms
        a dispute wheel, so both engines must give up rather than
        either one settling on some state."""
        params = TopologyParams(
            n_tier1=5,
            n_tier2=2,
            n_stub=17,
            tier1_pop_min=2,
            tier1_pop_max=4,
            multipath_fraction=0.0,
            policy_deviant_fraction=0.1,
            igp_tie_fraction=0.0,
        )
        internet = generate_internet(params, seed=10)
        assert internet.graph.as_of(20000).policy_deviant
        injections = [
            SiteInjection(
                host_asn=host,
                site_id=idx + 1,
                pop_id=pop,
                link_rtt_ms=1.0,
                rel_from_host=Relationship.CUSTOMER,
            )
            for idx, (host, pop) in enumerate([(1299, 0), (2914, 0), (20000, None)])
        ]
        for reuse in (True, False):
            engine = BGPEngine(
                internet, reuse_state=reuse, max_events=GENERATED_RUN_BUDGET
            )
            with pytest.raises(ConvergenceBudgetError):
                engine.run(injections)


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
        plain = BGPEngine(testbed.internet).run([injection(testbed, 1)])
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
        delta, reference = engine_pair(multihomed_internet)
        for w in workloads:
            assert_same_convergence(delta.run(w), reference.run(w))

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
        reference_conv = BGPEngine(testbed.internet, reuse_state=False).run(
            [injection(testbed, 1)]
        )
        revived = pickle.loads(pickle.dumps(delta_conv.states))
        assert type(revived) is dict
        assert revived == reference_conv.states

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


class TestStoreVersion:
    def test_version_2_envelope_reads_as_a_miss(self, testbed, tmp_path):
        """An entry written before the namespace digest changed must
        never be served, even when its key matches."""
        store = cachestore.ConvergenceStore.for_topology(
            str(tmp_path), testbed.internet.graph, "192.0.2.0/24"
        )
        key = ("k",)
        store.save(key, {"state": 1})
        assert store.load(key) == {"state": 1}
        filename, _ = store._locate(key)
        with open(filename, "rb") as fh:
            payload = pickle.load(fh)
        payload["version"] = 2
        with open(filename, "wb") as fh:
            pickle.dump(payload, fh)
        assert cachestore.STORE_VERSION == 3
        assert store.load(key) is None
