"""Integration tests for the BrAID facade across bridges and strategies."""

import pytest

from repro.braid import BraidConfig, BraidSystem
from repro.common.errors import BraidError
from repro.common.metrics import REMOTE_REQUESTS
from repro.core.cms import CacheManagementSystem, CMSFeatures
from repro.ie.engine import InferenceEngine
from repro.remote.server import RemoteDBMS
from repro.remote.sqlite_backend import SqliteEngine
from repro.server import BraidServer
from repro.workloads.genealogy import genealogy
from repro.workloads.suppliers import suppliers


@pytest.fixture(scope="module")
def family():
    return genealogy(generations=3, branching=2, roots=1, seed=9)


class TestBridgesAgree:
    """Every bridge must produce identical answers (only costs differ)."""

    @pytest.mark.parametrize("bridge", ["cms", "loose", "exact-cache", "relation-buffer"])
    def test_same_answers(self, family, bridge):
        system = BraidSystem.from_workload(family, BraidConfig(bridge=bridge))
        reference = BraidSystem.from_workload(family, BraidConfig(bridge="loose"))
        for query in family.example_queries.values():
            got = sorted(map(str, system.ask_all(query)))
            expected = sorted(map(str, reference.ask_all(query)))
            assert got == expected, query

    def test_cms_costs_less_than_loose_on_repetition(self, family):
        def run(bridge):
            system = BraidSystem.from_workload(family, BraidConfig(bridge=bridge))
            for _ in range(3):
                system.ask_all("ancestor(p0, W)")
            return system.metrics.get(REMOTE_REQUESTS), system.clock.now

        cms_requests, cms_time = run("cms")
        loose_requests, loose_time = run("loose")
        assert cms_requests < loose_requests
        assert cms_time < loose_time


class TestStrategiesAgree:
    @pytest.mark.parametrize("strategy", ["interpreted", "conjunction", "compiled"])
    def test_same_answers(self, family, strategy):
        system = BraidSystem.from_workload(family, BraidConfig(strategy=strategy))
        solutions = system.ask_all("ancestor(p0, W)")
        reference = BraidSystem.from_workload(family).ask_all("ancestor(p0, W)")
        # Distinct answers agree; multiplicity is strategy-specific.
        assert {str(s) for s in solutions} == {str(s) for s in reference}


def engine_over(family, bridge_of, engine=None) -> InferenceEngine:
    """An IE over ``bridge_of(remote)``, the remote loaded with ``family``."""
    remote = RemoteDBMS(engine=engine)
    for table in family.tables:
        remote.load_table(table)
    return InferenceEngine(family.build_kb(), bridge_of(remote))


class TestBackends:
    def test_sqlite_backend_agrees(self, family):
        pure = BraidSystem.from_workload(family)
        lite = engine_over(
            family,
            lambda remote: BraidServer(remote=remote).open_session("main").cms,
            engine=SqliteEngine(),
        )
        q = "grandparent(p0, W)"
        assert sorted(map(str, pure.ask_all(q))) == sorted(map(str, lite.ask_all(q)))

    def test_unknown_bridge_rejected(self, family):
        with pytest.raises(BraidError):
            BraidSystem.from_workload(family, BraidConfig(bridge="quantum"))


class TestFeatures:
    def test_features_none_behaves_like_loose(self, family):
        ablated = engine_over(
            family,
            lambda remote: CacheManagementSystem(remote, features=CMSFeatures.none()),
        )
        loose = BraidSystem.from_workload(family, BraidConfig(bridge="loose"))
        q = "grandparent(p0, W)"
        ablated.ask_all(q)
        ablated.ask_all(q)
        loose.ask_all(q)
        loose.ask_all(q)
        # Same number of data requests: no reuse in either.
        assert ablated.cms.metrics.get(REMOTE_REQUESTS) == loose.metrics.get(
            REMOTE_REQUESTS
        )


class TestReporting:
    def test_report_contains_sections(self, family):
        system = BraidSystem.from_workload(family)
        system.ask_all("minor(X)")
        report = system.report()
        assert "simulated time" in report
        assert "remote.requests" in report
        assert "cache:" in report


class TestOtherWorkloads:
    def test_suppliers_queries(self):
        system = BraidSystem.from_workload(suppliers(n_suppliers=8, n_parts=10, n_shipments=40))
        heavy = system.ask_all("heavy_part(P)")
        assert all(set(s) == {"P"} for s in heavy)
        preferred = system.ask_all("preferred_source(S, P)")
        assert all(set(s) == {"S", "P"} for s in preferred)
