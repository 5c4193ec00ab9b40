"""Tests for sessions and the session manager (shared cache, private state)."""

import pytest

from repro.advice.language import AdviceSet
from repro.advice.view_spec import annotate
from repro.caql.parser import parse_query
from repro.common.errors import ServerError, SessionStateError, UnknownSessionError
from repro.common.metrics import (
    CACHE_HITS_EXACT,
    CACHE_MISSES,
    SERVER_SESSIONS_CLOSED,
    SERVER_SESSIONS_OPENED,
    Metrics,
)
from repro.core.cache import Cache
from repro.remote.server import RemoteDBMS
from repro.server.session import SessionManager
from repro.workloads.synthetic import selection_universe


def make_manager(**kwargs):
    remote = RemoteDBMS()
    for table in selection_universe(rows=50, seed=5).tables:
        remote.load_table(table)
    return SessionManager(remote, Cache(), **kwargs)


QUERY = parse_query("q(I, V) :- item(I, cat0, V)")


class TestLifecycle:
    def test_open_and_get(self):
        manager = make_manager()
        session = manager.open("alice")
        assert manager.get("alice") is session
        assert session.open
        assert "alice" in manager
        assert len(manager) == 1

    def test_duplicate_open_rejected(self):
        manager = make_manager()
        manager.open("alice")
        with pytest.raises(SessionStateError):
            manager.open("alice")

    def test_unknown_session_rejected(self):
        manager = make_manager()
        with pytest.raises(UnknownSessionError) as excinfo:
            manager.get("nobody")
        assert excinfo.value.name == "nobody"

    def test_close_removes_and_reopens(self):
        manager = make_manager()
        manager.open("alice")
        closed = manager.close("alice")
        assert not closed.open
        assert "alice" not in manager
        manager.open("alice")  # the name is free again

    def test_sessions_in_opening_order(self):
        manager = make_manager()
        for name in ("c", "a", "b"):
            manager.open(name)
        assert [s.name for s in manager.sessions()] == ["c", "a", "b"]

    def test_lifecycle_counters(self):
        manager = make_manager()
        manager.open("alice")
        manager.open("bob")
        manager.close("alice")
        assert manager.metrics.get(SERVER_SESSIONS_OPENED) == 2
        assert manager.metrics.get(SERVER_SESSIONS_CLOSED) == 1

    def test_nonpositive_weight_rejected(self):
        manager = make_manager()
        with pytest.raises(ServerError):
            manager.open("alice", weight=0.0)


class TestSharedState:
    def test_sessions_share_one_cache(self):
        manager = make_manager()
        alice = manager.open("alice")
        bob = manager.open("bob")
        assert alice.cms.cache is bob.cms.cache is manager.cache
        assert alice.cms.shares_cache and bob.cms.shares_cache

    def test_cross_session_exact_reuse(self):
        manager = make_manager()
        alice = manager.open("alice")
        bob = manager.open("bob")
        alice.cms.query(QUERY).fetch_all()
        bob.cms.query(QUERY).fetch_all()
        # Bob's structurally identical query hit Alice's cached answer,
        # and the hit is accounted to Bob's scope.
        assert bob.metrics.get(CACHE_HITS_EXACT) == 1
        assert alice.metrics.get(CACHE_HITS_EXACT) == 0

    def test_advice_contexts_are_private(self):
        manager = make_manager()
        advice = AdviceSet.from_views(
            [annotate(parse_query("v(I) :- item(I, C, V)"), "^")]
        )
        alice = manager.open("alice", advice=advice)
        bob = manager.open("bob")
        assert alice.cms.advice_manager is not bob.cms.advice_manager
        assert not alice.cms.advice_manager.advice.is_empty()
        assert bob.cms.advice_manager.advice.is_empty()


class TestMetricsIsolation:
    """Satellite: no global-registry cross-talk between sessions."""

    def test_sessions_get_child_scopes(self):
        root = Metrics()
        manager = make_manager(metrics=root)
        alice = manager.open("alice")
        assert alice.metrics is root.scope("alice")
        assert alice.metrics.scope_name == "alice"

    def test_scope_counts_own_share_root_aggregates(self):
        root = Metrics()
        manager = make_manager(metrics=root)
        alice = manager.open("alice")
        bob = manager.open("bob")
        alice.cms.query(QUERY).fetch_all()
        bob.cms.query(QUERY).fetch_all()
        a, b = alice.metrics.snapshot(), bob.metrics.snapshot()
        # Alice took the miss; Bob hit her cached answer.  Neither ledger
        # contains the other's events, and the root holds the sums.
        assert a.get(CACHE_MISSES, 0) == 1
        assert b.get(CACHE_MISSES, 0) == 0
        assert b.get(CACHE_HITS_EXACT, 0) == 1
        assert a.get(CACHE_HITS_EXACT, 0) == 0
        for name in set(a) | set(b):
            assert root.get(name) == a.get(name, 0) + b.get(name, 0)

    def test_close_detaches_scope(self):
        root = Metrics()
        manager = make_manager(metrics=root)
        session = manager.open("alice")
        session.cms.query(QUERY).fetch_all()
        before = root.get(CACHE_MISSES)
        detached = session.metrics
        manager.close("alice")
        assert "alice" not in root.scopes()
        detached.incr(CACHE_MISSES)  # a zombie ledger
        assert root.get(CACHE_MISSES) == before

    def test_two_standalone_systems_do_not_share_metrics(self):
        # The historical bug this satellite fixes: two independently
        # constructed CMS instances recording into one global ledger.
        one = make_manager().open("main")
        other = make_manager().open("main")
        one.cms.query(QUERY).fetch_all()
        assert one.metrics.get(CACHE_MISSES) == 1
        assert other.metrics.get(CACHE_MISSES) == 0
