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

Which fuzz profile also kills each is recorded in EXPERIMENTS.md ("A
derived answer is not stored") and ROADMAP item 8.
"""

import pytest

from repro.advice.language import AdviceSet
from repro.advice.view_spec import annotate
from repro.caql.parser import parse_query
from repro.common.metrics import CACHE_HITS_EXACT, CACHE_HITS_SUBSUMED
from repro.core.cache import Cache
from repro.core.cms import CacheManagementSystem
from repro.core.planner import QueryPlanner
from repro.relational.generator import GeneratorRelation
from repro.remote.server import RemoteDBMS
from repro.server import BraidServer, ServerConfig
from repro.workloads.synthetic import selection_universe

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
    assert [r.phase for r in server.schedule_trace[steps:]] == ["execute"]
    # The whole-ship fetch registered the same definition as an
    # intermediate first; the stored answer is what makes it a view.
    stored = [(e.kind, e.view_name) for e in server.cache.elements()]
    assert stored == [("view", "w1")]
    first, again = server.results("s")
    assert again.error is None and again.rows == first.rows


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


COUNT_CASES = [
    check_eager_drills_store_nothing,
    check_a_derived_re_ask_is_derived_again,
    check_a_lazy_derived_answer_is_a_stored_generator,
    check_a_fetched_re_ask_is_one_step_exact_hit,
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
    ],
    ids=[
        "admit_everything-drills",
        "admit_everything-re_ask",
        "admit_nothing-fetched",
        "admit_nothing-lazy",
        "no_generators",
    ],
)
def test_killed_by_a_count_case(check, plant, monkeypatch):
    check(monkeypatch)
    plant(monkeypatch)
    with pytest.raises(AssertionError):
        check(monkeypatch)
