"""Tests for the metrics ledger."""

from repro.common.metrics import Metrics


class TestCounters:
    def test_unset_counter_is_zero(self):
        assert Metrics().get("remote.requests") == 0

    def test_incr_default_amount(self):
        m = Metrics()
        m.incr("remote.requests")
        m.incr("remote.requests")
        assert m.get("remote.requests") == 2

    def test_incr_fractional(self):
        m = Metrics()
        m.incr("time.remote", 0.25)
        m.incr("time.remote", 0.5)
        assert m.get("time.remote") == 0.75


class TestAggregation:
    def test_by_prefix_matches_dotted_children(self):
        m = Metrics()
        m.incr("cache.hits.exact", 3)
        m.incr("cache.hits.subsumed", 2)
        m.incr("cache.misses", 1)
        assert m.by_prefix("cache.hits") == {
            "cache.hits.exact": 3,
            "cache.hits.subsumed": 2,
        }

    def test_by_prefix_does_not_match_name_prefixes(self):
        m = Metrics()
        m.incr("cache.hits", 1)
        m.incr("cache.hitsrate", 9)
        assert m.by_prefix("cache.hits") == {"cache.hits": 1}

    def test_snapshot_and_diff(self):
        m = Metrics()
        m.incr("a", 1)
        before = m.snapshot()
        m.incr("a", 2)
        m.incr("b", 5)
        assert m.diff(before) == {"a": 2, "b": 5}

    def test_diff_ignores_unchanged(self):
        m = Metrics()
        m.incr("a", 1)
        before = m.snapshot()
        assert m.diff(before) == {}

    def test_iteration_sorted(self):
        m = Metrics()
        m.incr("z", 1)
        m.incr("a", 1)
        assert [name for name, _ in m] == ["a", "z"]

    def test_format_empty(self):
        assert Metrics().format() == "(no metrics)"

    def test_format_contains_names_and_values(self):
        m = Metrics()
        m.incr("remote.requests", 7)
        out = m.format()
        assert "remote.requests" in out
        assert "7" in out


class TestScopes:
    def test_scope_created_on_first_use_and_memoized(self):
        root = Metrics()
        child = root.scope("alice")
        assert root.scope("alice") is child
        assert root.scopes() == {"alice": child}

    def test_scope_names_are_dotted_paths(self):
        root = Metrics()
        child = root.scope("alice")
        assert child.scope_name == "alice"
        assert child.scope("phase1").scope_name == "alice.phase1"

    def test_child_increments_propagate_to_ancestors(self):
        root = Metrics()
        inner = root.scope("alice").scope("phase1")
        inner.incr("cache.misses", 3)
        assert inner.get("cache.misses") == 3
        assert root.scope("alice").get("cache.misses") == 3
        assert root.get("cache.misses") == 3

    def test_parent_holds_aggregate_children_hold_shares(self):
        root = Metrics()
        root.scope("alice").incr("remote.requests", 2)
        root.scope("bob").incr("remote.requests", 5)
        assert root.scope("alice").get("remote.requests") == 2
        assert root.scope("bob").get("remote.requests") == 5
        assert root.get("remote.requests") == 7

    def test_sibling_scopes_never_cross_talk(self):
        root = Metrics()
        alice, bob = root.scope("alice"), root.scope("bob")
        alice.incr("cache.misses")
        assert bob.get("cache.misses") == 0
        assert bob.snapshot() == {}

    def test_root_increments_stay_out_of_scopes(self):
        root = Metrics()
        child = root.scope("alice")
        root.incr("remote.requests")
        assert child.get("remote.requests") == 0

    def test_drop_scope_detaches_propagation(self):
        root = Metrics()
        child = root.scope("alice")
        child.incr("a")
        root.drop_scope("alice")
        assert "alice" not in root.scopes()
        assert root.get("a") == 1  # history stays in the aggregate
        child.incr("a")  # the zombie no longer reaches the root
        assert root.get("a") == 1
        assert child.get("a") == 2

    def test_drop_unknown_scope_is_noop(self):
        Metrics().drop_scope("nobody")


class TestEdgeCases:
    """Satellite regressions: diff of a zeroed ledger, by_prefix corners,
    drop-then-re-scope, and format alignment."""

    def test_diff_after_reset_reports_negative_deltas(self):
        earlier = Metrics()
        earlier.incr("a", 3)
        earlier.incr("b", 1)
        before = earlier.snapshot()
        m = Metrics()  # the ledger as it reads after being zeroed
        m.incr("b", 5)
        # The drop shows up; it is not silently "no change".
        assert m.diff(before) == {"a": -3, "b": 4}

    def test_by_prefix_empty_prefix_returns_all_counters(self):
        m = Metrics()
        m.incr("cache.misses", 2)
        m.incr("remote.requests", 1)
        assert m.by_prefix("") == {"cache.misses": 2, "remote.requests": 1}
        assert m.by_prefix("") == m.snapshot()

    def test_by_prefix_when_prefix_equals_a_counter_name(self):
        m = Metrics()
        m.incr("remote.requests", 4)
        m.incr("remote.requests.retried", 1)
        assert m.by_prefix("remote.requests") == {
            "remote.requests": 4,
            "remote.requests.retried": 1,
        }

    def test_drop_scope_then_rescope_same_name_gets_a_fresh_child(self):
        root = Metrics()
        old = root.scope("alice")
        old.incr("a", 2)
        root.drop_scope("alice")
        fresh = root.scope("alice")
        assert fresh is not old
        assert fresh.get("a") == 0
        fresh.incr("a", 1)
        assert root.get("a") == 3  # old history plus the new child's share
        old.incr("a")  # the detached zombie no longer reaches the root
        assert root.get("a") == 3

    def test_format_aligns_integer_and_float_values(self):
        m = Metrics()
        m.incr("long.counter.name", 1234)
        m.incr("t", 0.125)
        lines = m.format().splitlines()
        # One right-aligned value column: every line is equally wide.
        assert len({len(line) for line in lines}) == 1
        assert lines[0].endswith("1234")
        assert lines[1].endswith("0.125")

    def test_format_prints_integer_valued_floats_as_integers(self):
        m = Metrics()
        m.incr("a", 2.0)
        assert m.format().endswith("2")
        m.incr("a", 0.5)
        assert m.format().endswith("2.5")


class TestGauges:
    def test_gauge_max_keeps_the_high_water_mark(self):
        m = Metrics()
        m.gauge_max("server.queue_depth_high_water", 3)
        m.gauge_max("server.queue_depth_high_water", 1)
        assert m.get("server.queue_depth_high_water") == 3
        m.gauge_max("server.queue_depth_high_water", 7)
        assert m.get("server.queue_depth_high_water") == 7

    def test_gauge_max_propagates_the_max_not_the_sum(self):
        root = Metrics()
        root.scope("alice").gauge_max("g", 2)
        root.scope("bob").gauge_max("g", 5)
        root.scope("alice").gauge_max("g", 3)
        assert root.scope("alice").get("g") == 3
        assert root.scope("bob").get("g") == 5
        assert root.get("g") == 5  # not 8

