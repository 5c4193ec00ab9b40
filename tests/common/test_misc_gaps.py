"""Coverage for small contracts not exercised elsewhere."""

import pytest

from repro.common.clock import CostProfile, SimClock
from repro.common.errors import ParseError
from repro.common.metrics import Metrics
from repro.remote.network import NetworkModel


@pytest.fixture
def network():
    return NetworkModel(SimClock(), CostProfile(), Metrics())


class TestNetworkValidation:
    def test_negative_server_work_rejected(self, network):
        with pytest.raises(ValueError):
            network.charge_server_work(-1)

    def test_negative_transfer_rejected(self, network):
        with pytest.raises(ValueError):
            network.charge_transfer(-1)

    def test_zero_charges_allowed(self, network):
        network.charge_server_work(0)
        network.charge_transfer(0)
        assert network.clock.now == 0.0


class TestParseErrorRendering:
    def test_snippet_included(self):
        error = ParseError("boom", text="p(a) @ q(b)", position=5)
        assert "offset 5" in str(error)
        assert "@" in str(error)

    def test_plain_message_without_position(self):
        assert str(ParseError("boom")) == "boom"


class TestAdviceManagerLostTracker:
    def test_lost_tracker_falls_back_to_lru(self):
        from repro.advice.language import AdviceSet
        from repro.advice.path_expression import QueryPattern, Sequence
        from repro.advice.view_spec import annotate
        from repro.caql.parser import parse_query
        from repro.core.advice_manager import AdviceManager
        from tests.core.test_advice_manager import advised_cache, store_view

        view = annotate(parse_query("d1(X) :- b1(X)"), "^")
        path = Sequence((QueryPattern("d1"),), lower=1, upper=1)
        manager = AdviceManager()
        manager.begin_session(AdviceSet.from_views([view], path_expression=path))
        manager.observe_query("unexpected_view")  # tracker goes lost
        assert manager.tracker.lost
        assert manager.replacement_ranks() is None
        # With a lost tracker the victim order degenerates to LRU.
        cache = advised_cache(manager)
        old = store_view(cache, "d1(X) :- b1(X)")
        store_view(cache, "d2(X) :- b2(X)")
        assert cache._pick_victim(set()) is old

    def test_lost_tracker_keeps_companions_unfiltered(self):
        from repro.advice.language import AdviceSet
        from repro.advice.path_expression import QueryPattern, Sequence
        from repro.advice.view_spec import annotate
        from repro.caql.parser import parse_query
        from repro.core.advice_manager import AdviceManager

        views = [
            annotate(parse_query("d1(X) :- b1(X)"), "^"),
            annotate(parse_query("d2(X) :- b2(X)"), "^"),
        ]
        path = Sequence((QueryPattern("d1"), QueryPattern("d2")))
        manager = AdviceManager()
        manager.begin_session(AdviceSet.from_views(views, path_expression=path))
        manager.observe_query("zzz")
        # Lost prediction: companions still suggested (static grouping).
        assert manager.prefetch_candidates("d1") == ["d2"]


class TestCostProfileScaling:
    def test_scaled_profile_scales_simulation(self):
        from repro.relational.relation import relation_from_columns
        from repro.remote.server import RemoteDBMS
        from repro.remote.sql import FetchTableQuery

        def run(profile):
            server = RemoteDBMS(profile=profile)
            server.load_table(relation_from_columns("t", a=[1, 2, 3]))
            server.execute(FetchTableQuery("t"))
            return server.clock.now

        base = run(CostProfile())
        doubled = run(CostProfile().scaled(2.0))
        assert doubled == pytest.approx(2 * base)
