"""The victim heap: the full scan's victim, with fewer scorer calls.

``Cache._pick_victim`` pops elements largest :meth:`Cache.cost_bound`
first and stops at the first bound below the best score found; it falls
back to scoring every element (``Cache._scan_victim``, ``max`` over store
order) whenever the installed scorer is not bounded.  Three parts:

* **Count test.**  N extension-backed residents with distinct derivation
  costs and no reuse: each admission that evicts one victim calls
  ``Cache.cost_scorer`` at most 3 times, at N = 10 and N = 100 (the full
  scan calls it N times).
* **Hand cases.**  Ties go to the earlier store; advice marking an element
  expendable re-keys it; a live path tracker (which may add +1e12) and
  scorers the cache was not handed through ``install_scorer`` take the
  full scan.
* **Model test.**  Random store (views and intermediates, equal and
  huge derivation costs and equal sizes, so that scores tie), read,
  pin/unpin, advice annotation, generator growth, discard, clock advance
  and session changes (no advice, a live tracker, a lost one): every pick
  — each eviction, and one per step over random exempt sets — names the
  full scan's victim, and ``check_invariants`` passes after each step.
"""

from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caql.eval import psj_of, result_schema
from repro.caql.parser import parse_query
from repro.common.errors import CacheCapacityError
from repro.core.cache import Cache, always_bounded, lru_scorer
from repro.core.cms import CacheManagementSystem
from repro.relational.generator import generator_from_rows
from repro.relational.relation import Relation
from repro.remote.server import RemoteDBMS
from tests.core.test_advice_manager import paper_advice


def make_psj(text):
    return psj_of(parse_query(text))


def one_row(psj, value=0) -> Relation:
    return Relation(result_schema(psj.name, psj.arity), [(value,) * psj.arity])


class CheckedCache(Cache):
    """A cache whose every pick is checked against the full scan."""

    def _pick_victim(self, exempt):
        picked = super()._pick_victim(exempt)
        scanned = self._scan_victim(exempt)
        assert picked is scanned, (
            f"heap picked {picked and picked.element_id}, "
            f"full scan {scanned and scanned.element_id}"
        )
        return picked


@pytest.mark.parametrize("n", [10, 100])
def test_an_eviction_scores_at_most_three_elements(monkeypatch, n):
    calls = []
    real = Cache.cost_scorer

    def counting(self, element):
        calls.append(element.element_id)
        return real(self, element)

    monkeypatch.setattr(Cache, "cost_scorer", counting)
    probe = make_psj("p(X) :- b(X, 0)")
    size = Cache().store(probe, one_row(probe)).estimated_bytes()
    cache = Cache(capacity_bytes=n * size)
    for i in range(n):
        psj = make_psj(f"v(X) :- b(X, {i})")
        cache.store(psj, one_row(psj), derivation_seconds=1.0 + i)
    assert len(cache) == n and not calls
    for i in range(n, n + 20):
        psj = make_psj(f"v(X) :- b(X, {i})")
        before = cache.eviction_count
        cache.store(psj, one_row(psj), derivation_seconds=1.0 + (i * 37) % 101)
        assert cache.eviction_count == before + 1
        assert len(calls) <= 3, calls
        calls.clear()


def session_cache(capacity=10_000):
    """A checked cache under a CMS session: advice offsets over the cost
    scorer, the pick bounded."""
    cms = CacheManagementSystem(RemoteDBMS(), cache=CheckedCache(capacity))
    cms.begin_session(None)
    return cms, cms.cache


def store(cache, text, cost=0.0, kind="view"):
    psj = make_psj(text)
    return cache.store(psj, one_row(psj), derivation_seconds=cost, kind=kind)


def check_equal_scores_go_to_the_earlier_store():
    _, cache = session_cache()
    # A cost this large rounds the recency term away, so the two scores
    # tie; the later store has the larger bound (its weight is 1, not 2,
    # and its reuse is not in the bound), so it is popped first.
    early = store(cache, "e(X) :- b(X, 1)", cost=1e10)
    cache.annotate(early, expendable=False, advised=True)
    late = store(cache, "f(X) :- b(X, 2)", cost=1e10)
    cache.read(late)
    assert cache.cost_scorer(early) == cache.cost_scorer(late)
    assert cache.cost_bound(late) > cache.cost_bound(early)
    assert Cache._pick_victim(cache, set()) is early


def check_marking_an_element_expendable_re_keys_it():
    _, cache = session_cache()
    older = store(cache, "e(X) :- b(X, 1)")
    newer = store(cache, "f(X) :- b(X, 2)")
    assert Cache._pick_victim(cache, set()) is older
    cache.annotate(newer, expendable=True, advised=False)
    assert newer.expendable and newer.advice_weight == 0.0
    assert Cache._pick_victim(cache, set()) is newer
    return cache


class TestHandCases:
    def test_equal_scores_go_to_the_earlier_store(self):
        check_equal_scores_go_to_the_earlier_store()

    def test_marking_an_element_expendable_re_keys_it(self):
        check_marking_an_element_expendable_re_keys_it().check_invariants()

    def test_a_live_tracker_takes_the_full_scan(self):
        cms, cache = session_cache()
        cms.begin_session(paper_advice())
        cms.advice_manager.observe_query("d1")  # d1 cannot recur
        helper = store(cache, "t(X) :- b(X, 1)", kind="intermediate")
        dead = store(cache, "d1(Y) :- b1(c1, Y)")
        # The tracker adds +1e12 to the dead view, which no bound covers.
        assert cache.scorer(dead) > cache.scorer(helper)
        assert cache._pick_victim(set()) is dead
        cache.install_scorer(cache.scorer, always_bounded)  # a wrong vouch
        assert Cache._pick_victim(cache, set()) is helper
        cms.activate()
        cms.advice_manager.observe_query("nowhere")  # the tracker is lost
        assert cms.advice_manager.tracker.lost
        assert cache._pick_victim(set()) is helper

    def test_a_scorer_assigned_directly_takes_the_full_scan(self):
        _, cache = session_cache()
        cheap = store(cache, "e(X) :- b(X, 1)")
        store(cache, "f(X) :- b(X, 2)")
        cache.scorer = lambda element: -lru_scorer(element)  # most recent first
        assert cache._pick_victim(set()) is not cheap
        cache.scorer = lru_scorer
        assert cache._pick_victim(set()) is cheap


NAMES = ("d1", "d2", "d3", "u")
#: A cost of 1e10 rounds the recency term away: equal sizes then tie.
COSTS = st.sampled_from((0.0, 1.0, 1e10))
OPERATIONS = st.lists(
    st.one_of(
        st.tuples(
            st.just("store"),
            st.sampled_from(NAMES),
            COSTS,
            st.integers(1, 2),
            st.sampled_from(("view", "intermediate")),
        ),
        st.tuples(st.just("generator"), COSTS, st.integers(1, 2)),
        # An extension, then a generator of the same cost and size: the
        # generator is scored before the heap is popped, so a tie between
        # them must still go to the extension.
        st.tuples(st.just("twins"), COSTS),
        st.tuples(st.just("grow"), st.integers(0, 30)),
        st.tuples(st.just("read"), st.integers(0, 30)),
        st.tuples(st.just("pin"), st.integers(0, 30)),
        st.tuples(st.just("unpin"), st.integers(0, 30)),
        st.tuples(st.just("annotate"), st.integers(0, 30), st.booleans(), st.booleans()),
        st.tuples(st.just("discard"), st.integers(0, 30)),
        st.tuples(st.just("advance"), st.sampled_from((1.0, 30.0))),
        st.tuples(st.just("session"), st.sampled_from(("none", "live", "lost", "step"))),
    ),
    min_size=5,
    max_size=40,
)
#: Elements (by position, modulo how many are live) exempt from one pick.
EXEMPT = st.lists(st.integers(0, 30), max_size=3)


@settings(max_examples=200, deadline=None)
@given(OPERATIONS, EXEMPT)
def test_every_pick_names_the_full_scan_victim(operations, exempt_picks):
    cms = CacheManagementSystem(RemoteDBMS(), cache=CheckedCache(600))
    cache = cms.cache
    pins: list = []
    counter = 0
    for operation in operations:
        kind = operation[0]
        live = cache.elements()
        chosen = live[operation[1] % len(live)] if live and kind not in (
            "store", "generator", "twins", "advance", "session", "unpin"
        ) else None
        if kind in ("store", "generator", "twins"):
            if kind == "store":
                _, name, cost, rows, element_kind = operation
                stores = [(name, cost, rows, False, element_kind)]
            elif kind == "generator":
                stores = [("g", operation[1], operation[2], True, "view")]
            else:
                stores = [("u", operation[1], 1, False, "view"), ("g", operation[1], 1, True, "view")]
            for name, cost, rows, lazy, element_kind in stores:
                counter += 1
                psj = make_psj(f"{name}(X) :- b(X, {counter})")
                schema = result_schema(psj.name, 1)
                if lazy:
                    relation = generator_from_rows(schema, [(i,) for i in range(8)])
                    list(islice(relation, rows))
                else:
                    relation = Relation(schema, [(i,) for i in range(rows)])
                try:
                    cache.store(psj, relation, derivation_seconds=cost, kind=element_kind)
                except CacheCapacityError:
                    pass
        elif kind == "advance":
            cms.clock.advance(operation[1])
        elif kind == "session":
            if operation[1] == "none":
                cms.begin_session(None)
            elif operation[1] == "step":
                cms.advice_manager.observe_query("d1")
            else:
                cms.begin_session(paper_advice())
                if operation[1] == "lost":
                    cms.advice_manager.observe_query("nowhere")
        elif kind == "unpin":
            if pins:  # condemned elements too: the last unpin reclaims them
                cache.unpin(pins.pop(operation[1] % len(pins)))
        elif chosen is None:
            continue
        elif kind == "grow":
            if chosen.is_generator:
                list(islice(chosen.relation, chosen.rows_materialized() + 1))
        elif kind == "read":
            cache.read(chosen)
        elif kind == "pin":
            cache.pin(chosen)
            pins.append(chosen)
        elif kind == "annotate":
            cache.annotate(chosen, expendable=operation[2], advised=operation[3])
        else:
            cache.discard(chosen.element_id)
        cache.check_invariants()
        live = cache.elements()
        if live:
            cache._pick_victim({live[i % len(live)].element_id for i in exempt_picks})
