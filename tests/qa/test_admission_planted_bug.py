"""Acceptance: what the cache admits, pinned by counts and planted bugs.

The cache stores what was fetched, not what it can re-derive.  An eager
cache-full answer is a local selection over a resident parent: it is
planned and derived again when re-asked, never copied into the cache.  A
lazy cache-full answer is a generator over its parent and is stored.  A
fetched answer is stored, and its re-ask is an exact hit.  Four count
cases pin that, and three mutants of the planner's admission rule are
each killed by one of them:

* ``admit_everything`` — every cache-full answer is stored, eager ones
  included (the rule before derived answers stopped being copied).
* ``admit_nothing`` — no answer is stored.
* ``no_generators`` — a lazy cache-full answer is not stored either.

A semijoin-reduced part answers one binding set, and most are never
read again: one is stored only if it is the first offered under its
name, or an earlier part of that name has been read.  Two more count
cases pin that, and two mutants of the cache's semijoin admission are
each killed by one of them:

* ``admit_every_part`` — every reduced part is stored (the rule before
  a semijoin part had to earn its place).
* ``admit_no_part`` — no reduced part is stored.

Which fuzz profile also kills each is recorded in EXPERIMENTS.md ("A
derived answer is not stored", "A semijoin part earns its place") and
ROADMAP item 8.
"""

import pytest

from repro.advice.language import AdviceSet
from repro.advice.view_spec import annotate
from repro.caql.parser import parse_query
from repro.common.metrics import (
    CACHE_HITS_EXACT,
    CACHE_HITS_SUBSUMED,
    REMOTE_REQUESTS,
)
from repro.core.cache import Cache
from repro.core.cms import CacheManagementSystem
from repro.core.executor import ExecutionMonitor
from repro.core.planner import QueryPlanner
from repro.relational.generator import GeneratorRelation
from repro.remote.server import RemoteDBMS
from repro.server import BraidServer, ServerConfig
from repro.workloads.synthetic import selection_universe

from tests.core.test_semijoin_widening import build_cms, ground_truth, run
from tests.federation.conftest import make_federation, oracle

TABLES = selection_universe(rows=200, seed=5).tables

#: Wide views, one per category, and drills strictly inside them.
WIDE = [f"w{c}(I, V) :- item(I, cat{c}, V)" for c in range(3)]
DRILLS = [f"d{j}(I) :- item(I, cat{j % 3}, V), V > {50 * j}" for j in range(6)]


def make_cms(advice=None):
    remote = RemoteDBMS()
    for table in TABLES:
        remote.load_table(table)
    cms = CacheManagementSystem(remote)
    cms.begin_session(advice)
    return cms


def ask(cms, text):
    return sorted(cms.query(parse_query(text)).fetch_all())


def counting(monkeypatch, cls, name) -> list:
    """Spy on ``cls.name``: the returned list grows by one per call."""
    calls = []
    real = getattr(cls, name)

    def spy(self, *args, **kwargs):
        calls.append(args[0] if args else None)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, spy)
    return calls


# -- the count cases -----------------------------------------------------------------


def check_eager_drills_store_nothing(monkeypatch):
    """N eager drills over warmed wide views: N subsumed hits, no store,
    and the element count does not move."""
    stores = counting(monkeypatch, Cache, "store")
    cms = make_cms()
    for text in WIDE:
        ask(cms, text)
    elements = len(cms.cache.elements())
    del stores[:]
    for text in DRILLS:
        assert ask(cms, text), text
    assert cms.metrics.get(CACHE_HITS_SUBSUMED) == len(DRILLS)
    assert stores == []
    assert len(cms.cache.elements()) == elements


def check_a_derived_re_ask_is_derived_again(monkeypatch):
    """An eager derived query asked twice is planned and derived twice."""
    plans = counting(monkeypatch, QueryPlanner, "plan")
    cms = make_cms()
    ask(cms, WIDE[0])
    del plans[:]
    first = ask(cms, DRILLS[3])
    assert first and ask(cms, DRILLS[3]) == first
    assert [query.name for query in plans] == ["d3", "d3"]
    assert cms.last_plan is not None and cms.last_plan.strategy == "cache-full"
    assert cms.metrics.get(CACHE_HITS_SUBSUMED) == 2
    assert cms.metrics.get(CACHE_HITS_EXACT) == 0


def check_a_lazy_derived_answer_is_a_stored_generator(monkeypatch):
    """A lazy cache-full answer is stored as a generator element over its
    parent, and its re-ask is an exact hit on that element."""
    lazy = parse_query(DRILLS[3])
    cms = make_cms(AdviceSet.from_views([annotate(lazy, "^")]))
    ask(cms, WIDE[0])
    stream = cms.query(lazy)
    assert stream.lazy and cms.last_plan.strategy == "cache-full"
    rows = sorted(stream.fetch_all())
    stored = [e.relation for e in cms.cache.elements() if e.view_name == "d3"]
    assert [type(relation) for relation in stored] == [GeneratorRelation]
    assert ask(cms, DRILLS[3]) == rows
    assert cms.metrics.get(CACHE_HITS_EXACT) == 1


def check_a_fetched_re_ask_is_one_step_exact_hit(monkeypatch):
    """A fetched answer is stored as a view, and asked again it is an exact
    hit on that view, served in one server step with no plan."""
    plans = counting(monkeypatch, QueryPlanner, "plan")
    server = BraidServer(tables=TABLES, config=ServerConfig())
    server.open_session("s")
    server.submit("s", parse_query(WIDE[1]))
    server.run_until_idle()
    del plans[:]
    steps = len(server.schedule_trace)
    server.submit("s", parse_query(WIDE[1]))
    assert server.run_until_idle() == 1
    assert plans == []
    assert server.metrics.get(CACHE_HITS_EXACT) == 1
    assert len(server.schedule_trace[steps:]) == 1
    # The whole-ship fetch registered the same definition as an
    # intermediate first; the stored answer is what makes it a view.
    stored = [(e.kind, e.view_name) for e in server.cache.elements()]
    assert stored == [("view", "w1")]
    first, again = server.results("s")
    assert again.error is None and again.rows == first.rows


def semijoin_stores(monkeypatch) -> list:
    """Spy on ``Cache.store``: the returned list names every
    ``semijoin-fetch`` part stored."""
    stored = []
    real = Cache.store

    def spy(self, definition, *args, **kwargs):
        if kwargs.get("operator") == "semijoin-fetch":
            stored.append(definition.name)
        return real(self, definition, *args, **kwargs)

    monkeypatch.setattr(Cache, "store", spy)
    return stored


def check_an_unread_views_semijoin_parts_store_one(monkeypatch):
    """Three spanning asks of one view over three backends each ship a
    semijoin-reduced part, and none of those parts is read: only the
    first is stored."""
    stored = semijoin_stores(monkeypatch)
    offers = counting(monkeypatch, ExecutionMonitor, "_offer")
    cms = make_federation().cms()
    cms.begin_session()
    for city in (100, 200, 300):
        text = f"q(S, P) :- sup(S, {city}), ship(S, P, Q), part(P, X)"
        assert set(cms.query(parse_query(text)).fetch_all()) == oracle(text)
    reduced = [e for e in cms.cache.elements() if e.operator == "semijoin-fetch"]
    assert [r.schema.name for r in offers].count("q__rest__gamma") == 3
    assert stored == ["q__rest__gamma#semijoin"]
    assert [e.use_count for e in reduced] == [0]


def check_a_read_views_semijoin_parts_keep_being_stored(monkeypatch):
    """The drill-down ladder over three categories: each looser drill
    stores its widened semijoin part, and each tighter drill is answered
    from that part alone — a view whose parts get read keeps storing
    them."""
    stored = semijoin_stores(monkeypatch)
    cms = build_cms(intermediates=True)
    for cat in ("cat3", "cat4", "cat5"):
        run(cms, f"s(I, V) :- item(I, {cat}, V), V >= 300")
        drill = f"j1(I, Q) :- item(I, {cat}, V), ord(I, Q), V >= 500"
        assert run(cms, drill) == ground_truth(cat, 500)
        requests = cms.metrics.get(REMOTE_REQUESTS)
        tighter = f"j2(I, Q) :- item(I, {cat}, V), ord(I, Q), V >= 700"
        assert run(cms, tighter) == ground_truth(cat, 700)
        assert cms.metrics.get(REMOTE_REQUESTS) == requests, cat
        assert cms.last_plan.strategy == "cache-full"
    assert len(stored) == 3
    cms.cache.check_invariants()


# -- the mutants -----------------------------------------------------------------------


def _plant(monkeypatch, admit):
    """Rewrite each plan's ``cache_result`` through ``admit(planner, plan)``."""
    real = QueryPlanner._plan

    def _plan(self, query, reports):
        plan = real(self, query, reports)
        plan.cache_result = admit(self, plan)
        return plan

    monkeypatch.setattr(QueryPlanner, "_plan", _plan)


def _admit_everything(monkeypatch):
    _plant(
        monkeypatch,
        lambda planner, plan: planner.features.caching
        if plan.strategy == "cache-full"
        else plan.cache_result,
    )


def _admit_nothing(monkeypatch):
    _plant(monkeypatch, lambda planner, plan: False)


def _no_generators(monkeypatch):
    _plant(
        monkeypatch,
        lambda planner, plan: plan.cache_result and plan.strategy != "cache-full",
    )


def _admit_every_part(monkeypatch):
    monkeypatch.setattr(Cache, "admit_semijoin", lambda cache, name: True)


def _admit_no_part(monkeypatch):
    monkeypatch.setattr(Cache, "admit_semijoin", lambda cache, name: False)


COUNT_CASES = [
    check_eager_drills_store_nothing,
    check_a_derived_re_ask_is_derived_again,
    check_a_lazy_derived_answer_is_a_stored_generator,
    check_a_fetched_re_ask_is_one_step_exact_hit,
    check_an_unread_views_semijoin_parts_store_one,
    check_a_read_views_semijoin_parts_keep_being_stored,
]


@pytest.mark.parametrize("check", COUNT_CASES, ids=lambda check: check.__name__)
def test_the_count_case_holds(check, monkeypatch):
    check(monkeypatch)


@pytest.mark.parametrize(
    "check, plant",
    [
        (check_eager_drills_store_nothing, _admit_everything),
        (check_a_derived_re_ask_is_derived_again, _admit_everything),
        (check_a_fetched_re_ask_is_one_step_exact_hit, _admit_nothing),
        (check_a_lazy_derived_answer_is_a_stored_generator, _admit_nothing),
        (check_a_lazy_derived_answer_is_a_stored_generator, _no_generators),
        (check_an_unread_views_semijoin_parts_store_one, _admit_every_part),
        (check_an_unread_views_semijoin_parts_store_one, _admit_no_part),
        (check_a_read_views_semijoin_parts_keep_being_stored, _admit_no_part),
    ],
    ids=[
        "admit_everything-drills",
        "admit_everything-re_ask",
        "admit_nothing-fetched",
        "admit_nothing-lazy",
        "no_generators",
        "admit_every_part-unread",
        "admit_no_part-unread",
        "admit_no_part-ladder",
    ],
)
def test_killed_by_a_count_case(check, plant, monkeypatch):
    check(monkeypatch)
    plant(monkeypatch)
    with pytest.raises(AssertionError):
        check(monkeypatch)
