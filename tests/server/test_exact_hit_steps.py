"""A warmed exact hit is one cache read in one server step: counts, not
timings.

N re-asked fetched answers, structural and canonical respellings alike,
take N scheduler steps and no ``QueryPlanner.plan`` call, and leave every
cache counter, the simulated clock and every element's ledger at the
recorded literals below.  A derived answer is not stored, so its re-ask is
planned and derived again — still in one step.
"""

from repro.caql.parser import parse_query
from repro.core.planner import QueryPlanner
from repro.server import BraidServer, ServerConfig
from repro.workloads.synthetic import selection_universe

WARM = {
    "alice": [f"a{i}(I, V) :- item(I, cat{i}, V)" for i in range(3)],
    "bob": [f"b{i}(V, I) :- item(I, cat{i + 3}, V), V > 0" for i in range(3)],
}
#: Alice re-asks verbatim; Bob in a variant spelling of the same answers.
AGAIN = {
    "alice": WARM["alice"],
    "bob": [
        f"b{i}(W, J) :- item(J, cat{i + 3}, W), W > 0.0, W > -5" for i in range(3)
    ],
}
#: Carol's drill lies inside Alice's ``a0``: a cache-full derivation.
DRILL = {"carol": ["c0(I) :- item(I, cat0, V), V > 10"]}

#: A whole-query fetch is stored once, as its view: no intermediate.
CACHE_COUNTERS = {
    "cache.canonical_hits": 3,
    "cache.hits.exact": 6,
    "cache.misses": 6,
    "cache.saved_seconds": 0.426,
    "cache.tuples_processed": 84,
}
#: (id, view, use count, saved seconds, LRU sequence) per element.  Each
#: miss stores once, so the six misses take six sequence numbers, not
#: twelve: the hits' sequences are 7..12, in the same order as ever.
LEDGER = [
    ("E1", "a0", 1, 0.1045, 7),
    ("E2", "b0", 1, 0.1055, 8),
    ("E3", "a1", 1, 0.053, 9),
    ("E4", "b1", 1, 0.054, 10),
    ("E5", "a2", 1, 0.0545, 11),
    ("E6", "b2", 1, 0.0545, 12),
]


def submit_all(server, streams):
    for name, texts in streams.items():
        for text in texts:
            server.submit(name, parse_query(text))
    return server.run_until_idle()


def counting_plans(monkeypatch) -> list[str]:
    """The names of the queries ``QueryPlanner.plan`` is asked to plan."""
    plans = []
    real_plan = QueryPlanner.plan

    def counting_plan(planner, query):
        plans.append(query.name)
        return real_plan(planner, query)

    monkeypatch.setattr(QueryPlanner, "plan", counting_plan)
    return plans


def warmed_server() -> BraidServer:
    server = BraidServer(
        tables=selection_universe(rows=40, seed=5).tables, config=ServerConfig()
    )
    for name in WARM:
        server.open_session(name)
    assert submit_all(server, WARM) == 6  # eager misses: one step each
    return server


def test_n_exact_hits_take_n_steps_and_no_plan(monkeypatch):
    plans = counting_plans(monkeypatch)
    server = warmed_server()
    del plans[:]
    warmed = len(server.schedule_trace)

    assert submit_all(server, AGAIN) == 6
    assert plans == []
    steps = [r.request_id for r in server.schedule_trace[warmed:]]
    assert len(steps) == len(set(steps)) == 6  # one step per request
    for name in AGAIN:
        assert all(r.error is None and r.rows for r in server.results(name))

    snapshot = server.metrics.snapshot()
    assert {k: v for k, v in snapshot.items() if k.startswith("cache.")} == (
        CACHE_COUNTERS
    )
    assert server.clock.now == 0.52684
    assert sorted(
        (e.element_id, e.view_name, e.use_count, round(e.saved_seconds, 9), e.sequence)
        for e in server.cache.elements()
    ) == LEDGER


def test_a_derived_re_ask_is_planned_and_derived_again(monkeypatch):
    plans = counting_plans(monkeypatch)
    server = warmed_server()
    server.open_session("carol")
    elements = len(server.cache.elements())
    del plans[:]
    warmed = len(server.schedule_trace)

    assert submit_all(server, DRILL) == 1
    assert submit_all(server, DRILL) == 1
    assert plans == ["c0", "c0"]
    steps = [r.request_id for r in server.schedule_trace[warmed:]]
    assert len(steps) == len(set(steps)) == 2  # one step per request
    first, again = server.results("carol")
    assert first.error is None and again.error is None
    assert first.rows and sorted(first.rows) == sorted(again.rows)
    assert server.metrics.get("cache.hits.subsumed") == 2
    assert server.metrics.get("cache.hits.exact") == 0
    assert len(server.cache.elements()) == elements
