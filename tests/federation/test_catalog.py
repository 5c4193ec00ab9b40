"""FederatedCatalog ownership, bootstrap wiring, and statistics honesty."""

import pytest

from repro.common.clock import SimClock
from repro.common.errors import UnknownRelationError
from repro.relational.relation import relation_from_columns
from repro.remote.server import RemoteDBMS
from repro.federation import (
    BackendSpec,
    FederatedCatalog,
    FederatedInterface,
    build_federation,
)

from tests.federation.conftest import make_federation, three_backend_specs


def make_server(clock=None, tables=()):
    server = RemoteDBMS(clock=clock)
    for relation in tables:
        server.load_table(relation)
    return server


def table(name, rows=3):
    return relation_from_columns(name, a=list(range(rows)), b=[0] * rows)


class TestOwnership:
    def test_register_claims_tables(self):
        catalog = FederatedCatalog()
        clock = SimClock()
        catalog.register("a", make_server(clock, [table("t"), table("u")]))
        catalog.register("b", make_server(clock, [table("v")]))
        assert catalog.home_of("t") == "a"
        assert catalog.home_of("v") == "b"
        assert catalog.backends() == ["a", "b"]
        assert catalog.home_of("u") == "a"
        assert catalog.has("u") and not catalog.has("w")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            FederatedCatalog().register("", make_server())

    def test_duplicate_backend_rejected(self):
        catalog = FederatedCatalog()
        clock = SimClock()
        catalog.register("a", make_server(clock))
        with pytest.raises(ValueError):
            catalog.register("a", make_server(clock))

    def test_exclusive_table_ownership(self):
        catalog = FederatedCatalog()
        clock = SimClock()
        catalog.register("a", make_server(clock, [table("t")]))
        with pytest.raises(ValueError, match="already owned"):
            catalog.register("b", make_server(clock, [table("t")]))

    def test_unowned_table_raises(self):
        with pytest.raises(UnknownRelationError):
            FederatedCatalog().home_of("nope")
        with pytest.raises(KeyError):
            FederatedCatalog().backend("nope")


class TestBootstrap:
    def test_empty_specs_rejected(self):
        with pytest.raises(ValueError):
            build_federation([])

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            build_federation([BackendSpec("a", engine="cobol")])

    def test_backends_share_one_clock(self):
        federation = make_federation()
        clocks = {
            id(federation.backend(name).clock) for name in federation.backends()
        }
        assert len(clocks) == 1
        assert federation.backends() == ["alpha", "beta", "gamma"]

    def test_interface_rejects_split_clocks(self):
        catalog = FederatedCatalog()
        catalog.register("a", make_server(SimClock(), [table("t")]))
        catalog.register("b", make_server(SimClock(), [table("u")]))
        with pytest.raises(ValueError, match="share one SimClock"):
            FederatedInterface(catalog)

    def test_per_backend_profiles_survive(self):
        from repro.common.clock import CostProfile

        specs = three_backend_specs()
        specs[1].profile = CostProfile().scaled(3.0)
        federation = build_federation(specs)
        name, profile = federation.interface.cost_profile_of("part")
        assert name == "beta"
        assert profile is specs[1].profile
        assert profile.transfer_per_tuple != federation.profile.transfer_per_tuple


class TestStatisticsHonesty:
    def test_bootstrap_statistics_match_contents(self):
        federation = make_federation()
        assert federation.backend("alpha").catalog.statistics("sup").cardinality == 4
        assert federation.backend("gamma").catalog.statistics("ship").cardinality == 5

    def test_refresh_all_tracks_engine_side_reloads(self):
        federation = make_federation()
        server = federation.backend("alpha")
        # An engine-side reload the catalog never saw: stats go stale.
        server.engine.create_table(
            relation_from_columns(
                "sup", s=list(range(10)), city=[0] * 10
            )
        )
        assert server.catalog.statistics("sup").cardinality == 4
        server.refresh_statistics()
        assert server.catalog.statistics("sup").cardinality == 10

    def test_partition_estimates_follow_refresh(self):
        # The planner orders a spanning query's parts by the backends'
        # statistics: sup (4 rows) before ship (5) at bootstrap, and the
        # other way round once a reload is refreshed into the catalog.
        from tests.federation.conftest import SPAN2, psj

        def part_order(federation):
            plan = federation.cms().planner.spanning_plan(psj(SPAN2))
            return [part.sub_query.name for part in plan.parts]

        assert part_order(make_federation()) == ["q2__alpha", "q2__gamma"]
        federation = make_federation()
        server = federation.backend("alpha")
        server.engine.create_table(
            relation_from_columns("sup", s=list(range(10)), city=[0] * 10)
        )
        server.refresh_statistics()
        assert part_order(federation) == ["q2__gamma", "q2__alpha"]
