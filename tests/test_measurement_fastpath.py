"""Differential tests of the measurement plane's fast paths.

Each fast path is checked against a reference on generated inputs:

- the numpy splitmix64 mixer against a pure-int splitmix64;
- batch measurements (catchment maps, RTTs, mean RTT) against the
  per-target and per-probe views, over generated target subsets and
  orders, lossy targets and peers-only configurations;
- the memoized data plane against the hop-by-hop reference walk, on
  generated Internets with multipath ASes;
- the keyed probe noise against the noise model's documented shape.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CampaignSettings
from repro.bgp.dataplane import DataPlane
from repro.bgp.engine import BGPEngine, SiteInjection
from repro.core.config import AnycastConfig
from repro.measurement import Orchestrator, select_targets
from repro.measurement.icmp import IcmpProber
from repro.measurement.targets import PingTarget
from repro.topology.astopo import Relationship
from repro.topology.generator import TopologyParams, generate_internet
from repro.util.errors import ConfigurationError
from repro.util.rng import KeyedStream, pack_counters, stable_hash
from repro.util.stats import mean, median

from tests.conftest import SEED
from tests.test_engine_properties import internets_with_injections

MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def splitmix64_next(state):
    """One step of the reference splitmix64: (new state, output)."""
    state = (state + GOLDEN) & MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return state, z ^ (z >> 31)


def reference_output(key, counter):
    """Output number ``counter`` of splitmix64 seeded with ``key``."""
    return splitmix64_next((key + counter * GOLDEN) & MASK)[1]


class TestKeyedStream:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        label=st.text(max_size=8),
        ids=st.lists(st.integers(min_value=0, max_value=2**48 - 1), min_size=1, max_size=20),
        sequence=st.integers(min_value=0, max_value=4095),
        draw=st.integers(min_value=0, max_value=15),
    )
    def test_mixer_matches_pure_int_splitmix64(self, seed, label, ids, sequence, draw):
        stream = KeyedStream(seed, label)
        assert int(stream.key) == stable_hash(seed, label)
        counters = pack_counters(ids, sequence, draw)
        bits = stream.bits(counters).tolist()
        uniforms = stream.random(counters).tolist()
        for i, counter, got, uniform in zip(ids, counters.tolist(), bits, uniforms):
            assert counter == i << 16 | sequence << 4 | draw
            want = reference_output(int(stream.key), counter)
            assert got == want
            assert uniform == (want >> 11) * 2.0**-53

    @settings(max_examples=30, deadline=None)
    @given(key=st.integers(min_value=0, max_value=MASK), n=st.integers(1, 40))
    def test_counters_index_the_sequential_stream(self, key, n):
        """Counter ``c`` is the c-th output of a stepped generator."""
        stream = KeyedStream(0)
        stream.key = np.uint64(key)
        state, outputs = key, []
        for _ in range(n):
            state, out = splitmix64_next(state)
            outputs.append(out)
        assert stream.bits(np.arange(n, dtype=np.uint64)).tolist() == outputs

    @settings(max_examples=40, deadline=None)
    @given(
        st.sets(
            st.tuples(
                st.integers(0, 2**48 - 1), st.integers(0, 4095), st.integers(0, 15)
            ),
            min_size=2,
            max_size=50,
        )
    )
    def test_packing_is_collision_free(self, triples):
        counters = {
            int(pack_counters([i], [s], d)[0]) for i, s, d in triples
        }
        assert len(counters) == len(triples)

    @pytest.mark.parametrize(
        "ids, sequences, draw",
        [([-1], [0], 0), ([2**48], [0], 0), ([0], [4096], 0), ([0], [0], 16)],
    )
    def test_out_of_range_fields_are_rejected(self, ids, sequences, draw):
        with pytest.raises(ConfigurationError):
            pack_counters(ids, sequences, draw)


# -- batch vs per-target measurements -----------------------------------------


@pytest.fixture(scope="module")
def lossy_orchestrator(testbed):
    """Default noise models over a target set with many lossy targets,
    some lossy enough to leave fewer than three replies."""
    targets = select_targets(
        testbed.internet,
        targets_per_as_min=1,
        targets_per_as_max=2,
        lossy_fraction=0.5,
        max_loss_rate=0.9,
        seed=SEED,
    )
    return Orchestrator(testbed, targets, seed=SEED)


@pytest.fixture(scope="module")
def deployments(lossy_orchestrator, testbed):
    configs = [
        AnycastConfig(site_order=(1, 4, 6)),
        AnycastConfig(site_order=(9,)),
        AnycastConfig(site_order=(), peer_ids=tuple(testbed.peer_ids())),
    ]
    return [lossy_orchestrator.deploy(config) for config in configs]


def reference_rtt(deployment, target):
    """The S3 protocol spelled out per probe, through the scalar views."""
    outcome = deployment.forwarding(target)
    if outcome is None:
        return None
    orchestrator = deployment.orchestrator
    tunnel = orchestrator.tunnels.tunnel(outcome.site_id)
    train = orchestrator.prober.probe_train(
        target, deployment.true_rtt(target) + tunnel.true_rtt_ms, deployment.experiment_id
    )
    samples = [p.rtt_ms for p in train if not p.lost]
    if len(samples) < 3:
        return None
    return max(0.0, median(samples) - tunnel.estimated_rtt_ms)


def reference_site(deployment, target):
    outcome = deployment.forwarding(target)
    if outcome is None:
        return None
    prober = deployment.orchestrator.prober
    for attempt in range(4):
        probe = prober.probe(
            target, deployment.true_rtt(target), deployment.experiment_id, 100 + attempt
        )
        if not probe.lost:
            return outcome.site_id
    return None


@st.composite
def subsets(draw):
    which = draw(st.integers(0, 2))
    indices = draw(st.lists(st.integers(0, 10_000), max_size=40, unique=True))
    return which, indices


class TestBatchMatchesPerTarget:
    def test_full_target_set_covers_the_edge_cases(self, deployments, lossy_orchestrator):
        targets = list(lossy_orchestrator.targets)
        rtts = [deployment.measure_rtts(targets) for deployment in deployments]
        for deployment, batch in zip(deployments, rtts):
            assert batch == [reference_rtt(deployment, t) for t in targets]
        routed = [
            [deployment.forwarding(t) is not None for t in targets]
            for deployment in deployments
        ]
        # Some routed targets lose too many probes for an estimate ...
        assert any(r is None and ok for r, ok in zip(rtts[0], routed[0]))
        # ... and the peers-only deployment leaves targets unreachable.
        assert not all(routed[2]) and any(routed[2])

    @settings(max_examples=40, deadline=None)
    @given(subsets())
    def test_rtts_maps_and_mean_agree(self, deployments, lossy_orchestrator, case):
        which, indices = case
        deployment = deployments[which]
        pool = list(lossy_orchestrator.targets)
        targets = [pool[i % len(pool)] for i in indices]
        targets = list({t.target_id: t for t in targets}.values())

        batch = deployment.measure_rtts(targets)
        assert batch == [deployment.measure_rtt(t) for t in targets]
        assert batch == [reference_rtt(deployment, t) for t in targets]

        valid = [r for r in batch if r is not None]
        assert deployment.measure_mean_rtt(targets) == (mean(valid) if valid else None)

        cmap = deployment.measure_catchments(targets)
        assert list(cmap.mapping) == [t.target_id for t in targets]
        assert cmap.mapping == {t.target_id: reference_site(deployment, t) for t in targets}


# -- memoized forwarding vs the reference walk -------------------------------


def assert_forwarding_matches(internet, converged, order, flow_keys, nonce):
    memo = DataPlane(internet, converged, flow_nonce=nonce)
    reference = DataPlane(internet, converged, flow_nonce=nonce)
    for asn in order:
        for key in flow_keys:
            assert memo.forward(asn, key) == reference.trace(asn, key), (asn, key)


class TestMemoizedForwarding:
    @settings(max_examples=25, deadline=None)
    @given(
        internets_with_injections(),
        st.randoms(use_true_random=False),
        st.integers(0, 3),
    )
    def test_matches_reference_walk(self, case, rnd, nonce):
        internet, injections = case
        converged = BGPEngine(internet).run(injections)
        order = list(internet.graph.asns())
        rnd.shuffle(order)
        assert_forwarding_matches(internet, converged, order, ["a", 7, (3, 1)], nonce)

    def test_matches_reference_walk_under_heavy_multipath(self):
        """Every AS multipath and many IGP ties: most walks cross an
        ECMP split, so the flow-dependent path is exercised too."""
        params = TopologyParams(
            n_tier2=12, n_stub=80, multipath_fraction=1.0, igp_tie_fraction=1.0
        )
        internet = generate_internet(params, seed=SEED)
        hosts = internet.graph.tier1_asns()[:2]
        injections = [
            SiteInjection(
                host_asn=host,
                site_id=i + 1,
                pop_id=0,
                link_rtt_ms=1.0,
                rel_from_host=Relationship.CUSTOMER,
                announce_time_ms=0.0,
            )
            for i, host in enumerate(hosts)
        ]
        converged = BGPEngine(internet).run(injections)
        keys = list(range(6))
        assert_forwarding_matches(internet, converged, internet.graph.asns(), keys, 5)
        split = [
            asn
            for asn in internet.graph.asns()
            if len({DataPlane(internet, converged).trace(asn, k) for k in keys}) > 1
        ]
        assert split, "no walk depends on the flow key; the test lost its point"

    def test_deployment_forwarding_matches_reference_walk(self, testbed, targets):
        orchestrator = Orchestrator(
            testbed, targets, seed=SEED, settings=CampaignSettings()
        )
        deployment = orchestrator.deploy(AnycastConfig(site_order=(1, 4, 6, 9)))
        for target in targets:
            assert deployment.forwarding(target) == deployment.dataplane.trace(
                target.asn, target.target_id
            )


# -- the noise model keeps its shape ------------------------------------------


def probe_grid(seed, experiment_id, loss_rate, n_targets=2000, probes=7):
    prober = IcmpProber(seed=seed)
    ids = np.arange(n_targets)
    return prober.probe_rtts(
        experiment_id,
        ids,
        np.full(n_targets, loss_rate),
        np.full(n_targets, 30.0),
        range(probes),
    )


class TestNoiseModel:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 10_000))
    def test_loss_fraction(self, seed, experiment_id):
        rtts = probe_grid(seed, experiment_id, 0.3)
        assert 0.2 < np.isnan(rtts).mean() < 0.4

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 10_000))
    def test_jitter_and_spikes(self, seed, experiment_id):
        rtts = probe_grid(seed, experiment_id, 0.0)
        assert not np.isnan(rtts).any()
        assert (rtts >= 30.0).all()
        assert np.median(rtts) < 32.0
        assert rtts.max() > 35.0
        # A spike adds an exponential of mean 25 ms with probability
        # 0.04; |N(0, 0.6)| alone almost never exceeds 5 ms.
        spike_rate = (rtts > 35.0).mean()
        assert 0.04 * np.exp(-5 / 25) * 0.8 < spike_rate < 0.04 * 1.2

    def test_gauss_and_exponential_moments(self):
        stream = KeyedStream(SEED, "moments")
        counters = pack_counters(np.arange(20_000), 0, 0)
        normals = stream.gauss(counters, 1.0)
        assert abs(normals.mean()) < 0.03
        assert abs(normals.std() - 1.0) < 0.03
        exponentials = stream.expovariate(counters + np.uint64(2), 25.0)
        assert abs(exponentials.mean() - 25.0) < 1.0
        assert (exponentials >= 0).all()

    def test_single_probe_view_matches_grid(self):
        prober = IcmpProber(seed=3)
        target = PingTarget(5, 100000, "10.0.0.0/24", 2.0, 0.3)
        grid = prober.probe_rtts(
            2, np.array([5]), np.array([0.3]), np.array([30.0]), range(7)
        )[0].tolist()
        views = [prober.probe(target, 30.0, 2, seq).rtt_ms for seq in range(7)]
        assert views == [None if math.isnan(r) else r for r in grid]
