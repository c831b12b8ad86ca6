"""API-surface sanity: every exported name resolves and is documented."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.baselines",
    "repro.bgp",
    "repro.core",
    "repro.io",
    "repro.measurement",
    "repro.report",
    "repro.runtime",
    "repro.splpo",
    "repro.topology",
    "repro.util",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_exports_resolve(package):
    module = importlib.import_module(package)
    assert hasattr(module, "__all__"), f"{package} has no __all__"
    for name in module.__all__:
        assert hasattr(module, name), f"{package}.{name} missing"


@pytest.mark.parametrize("package", PACKAGES)
def test_exports_sorted(package):
    module = importlib.import_module(package)
    assert list(module.__all__) == sorted(module.__all__), (
        f"{package}.__all__ is not sorted"
    )


@pytest.mark.parametrize("package", PACKAGES)
def test_package_documented(package):
    module = importlib.import_module(package)
    assert module.__doc__ and len(module.__doc__.strip()) > 40


def test_public_classes_documented():
    import inspect

    undocumented = []
    for package in PACKAGES:
        module = importlib.import_module(package)
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not (obj.__doc__ and obj.__doc__.strip()):
                    undocumented.append(f"{package}.{name}")
    assert not undocumented, f"missing docstrings: {undocumented}"


def test_engine_event_budget_guard(testbed):
    """The convergence watchdog trips instead of spinning forever."""
    from repro.bgp.engine import BGPEngine, SiteInjection
    from repro.topology.astopo import Relationship
    from repro.util.errors import ConvergenceBudgetError, ReproError

    site = testbed.site(1)
    for reuse_state in (True, False):  # delta, then the reference
        engine = BGPEngine(testbed.internet, reuse_state=reuse_state, max_events=10)
        with pytest.raises(ReproError, match="did not converge") as excinfo:
            engine.run([
                SiteInjection(
                    host_asn=site.provider_asn, site_id=1,
                    pop_id=site.attach_pop, link_rtt_ms=0.5,
                    rel_from_host=Relationship.CUSTOMER,
                )
            ])
        census = excinfo.value
        assert isinstance(census, ConvergenceBudgetError)
        assert census.budget == 10
        assert census.events > census.budget
        assert census.ases_touched >= 1
        assert census.virtual_time_ms >= 0.0
