"""Semijoin projection widening: the operator-level cache keeps the
join-internal columns a query's final projection discarded, so a
*tighter* drill-down can be answered cache-only even though the looser
drill's whole view never could (its filter column was projected away)."""

import pytest

from repro.common.metrics import (
    CACHE_INTERMEDIATE_STORES,
    REMOTE_REQUESTS,
    REMOTE_TUPLES,
)
from repro.caql.parser import parse_query
from repro.core.cache_model import cache_report
from repro.core.cms import CacheManagementSystem, CMSFeatures
from repro.remote.server import RemoteDBMS
from repro.workloads.synthetic import retail_universe

WORKLOAD = retail_universe(rows=120, orders=260, domain=1000, seed=5)


def build_cms(intermediates: bool) -> CacheManagementSystem:
    remote = RemoteDBMS()
    for table in WORKLOAD.tables:
        remote.load_table(table)
    cms = CacheManagementSystem(
        remote,
        capacity_bytes=4_000_000,
        features=CMSFeatures(intermediates=intermediates),
    )
    cms.begin_session()
    return cms


def ground_truth(cat: str, threshold: int):
    items = {
        item_id: val
        for item_id, item_cat, val in WORKLOAD.tables[0].rows
        if item_cat == cat and val >= threshold
    }
    return sorted(
        (item_id, qty)
        for item_id, qty in WORKLOAD.tables[1].rows
        if item_id in items
    )


def run(cms, text):
    return sorted(cms.query(parse_query(text)).fetch_all())


SELECT = "s(I, V) :- item(I, cat3, V), V >= 300"
DRILL = "j1(I, Q) :- item(I, cat3, V), ord(I, Q), V >= 500"
TIGHTER = "j2(I, Q) :- item(I, cat3, V), ord(I, Q), V >= 700"


class TestWidenedIntermediateServesTighterDrill:
    @pytest.fixture()
    def warmed(self):
        """A CMS that ran the selection and the first drill-down."""
        cms = build_cms(intermediates=True)
        run(cms, SELECT)
        assert run(cms, DRILL) == ground_truth("cat3", 500)
        return cms

    def test_widened_semijoin_intermediate_is_registered(self, warmed):
        assert warmed.metrics.get(CACHE_INTERMEDIATE_STORES) > 0
        elements = cache_report(warmed.cache)["elements"]
        widened = [e for e in elements if e["operator"] == "semijoin-fetch"]
        assert widened, "the drill's reduced fetch was not registered"
        assert all(e["kind"] == "intermediate" for e in widened)
        warmed.cache.check_invariants()

    def test_tighter_drill_is_answered_cache_only(self, warmed):
        """The point of widening: the tighter drill filters on ``V``,
        which ``j1``'s own projection discarded — only the widened
        intermediate can answer it without going remote."""
        requests = warmed.metrics.get(REMOTE_REQUESTS)
        tuples = warmed.metrics.get(REMOTE_TUPLES)
        assert run(warmed, TIGHTER) == ground_truth("cat3", 700)
        assert warmed.metrics.get(REMOTE_REQUESTS) == requests
        assert warmed.metrics.get(REMOTE_TUPLES) == tuples

    def test_whole_view_caching_must_go_remote_for_tighter_drill(self):
        """The contrast case: with intermediates off, ``j1``'s whole view
        cannot serve ``j2`` (``V`` is gone), so the remote is consulted
        again — same answers, strictly more shipping."""
        cms = build_cms(intermediates=False)
        run(cms, SELECT)
        run(cms, DRILL)
        requests = cms.metrics.get(REMOTE_REQUESTS)
        assert run(cms, TIGHTER) == ground_truth("cat3", 700)
        assert cms.metrics.get(REMOTE_REQUESTS) > requests


class TestNonFunctionalKeyStaysSound:
    """Widening pulls source-side columns through a key -> row mapping;
    when a binding key maps to several source rows the column is not
    functionally determined and must be dropped, never guessed."""

    def test_duplicate_key_bindings_keep_answers_correct(self):
        cms = build_cms(intermediates=True)
        # ord(I, Q) has several orders per item: I does not determine Q.
        run(cms, "o(I, Q) :- ord(I, Q), Q >= 2")
        got = run(cms, "jo(I, V) :- ord(I, Q), item(I, cat3, V), Q >= 5")
        want = sorted(
            (item_id, val)
            for item_id, item_cat, val in WORKLOAD.tables[0].rows
            if item_cat == "cat3"
            and any(
                oid == item_id and qty >= 5
                for oid, qty in WORKLOAD.tables[1].rows
            )
        )
        assert got == want
        # And a tighter repeat stays correct whether or not it could be
        # served from cache — soundness before savings.
        tighter = run(cms, "jo2(I, V) :- ord(I, Q), item(I, cat3, V), Q >= 8")
        want_tight = sorted(
            (item_id, val)
            for item_id, item_cat, val in WORKLOAD.tables[0].rows
            if item_cat == "cat3"
            and any(
                oid == item_id and qty >= 8
                for oid, qty in WORKLOAD.tables[1].rows
            )
        )
        assert tighter == want_tight
        cms.cache.check_invariants()
