"""A warmed exact hit is one cache read in one server step: counts, not
timings.

N re-asked queries, structural and canonical respellings alike, take N
scheduler steps and no ``QueryPlanner.plan`` call, and leave every cache
counter, the simulated clock and every element's ledger exactly where the
two-step, planned exact hit left them (the literals below were recorded
from that implementation).
"""

from repro.caql.parser import parse_query
from repro.core.planner import QueryPlanner
from repro.server import BraidServer, ServerConfig
from repro.workloads.synthetic import selection_universe

WARM = {
    "alice": [f"a{i}(I, V) :- item(I, cat{i}, V)" for i in range(3)],
    "bob": [f"b{i}(V, I) :- item(I, cat{i}, V), V > 0" for i in range(3)],
}
#: Alice re-asks verbatim; Bob in a variant spelling of the same answers.
AGAIN = {
    "alice": WARM["alice"],
    "bob": [f"b{i}(W, J) :- item(J, cat{i}, W), W > 0.0, W > -5" for i in range(3)],
}

CACHE_COUNTERS = {
    "cache.canonical_hits": 3,
    "cache.hits.exact": 6,
    "cache.hits.subsumed": 3,
    "cache.intermediate_stores": 3,
    "cache.misses": 3,
    "cache.saved_seconds": 0.42424000000000006,
    "cache.tuples_processed": 72,
}
#: (id, view, use count, saved seconds, LRU sequence) per element.
LEDGER = [
    ("E1", "a0", 2, 0.209, 13),
    ("E2", "b0", 1, 0.0001, 14),
    ("E3", "a1", 2, 0.106, 15),
    ("E4", "b1", 1, 4e-05, 16),
    ("E5", "a2", 2, 0.109, 17),
    ("E6", "b2", 1, 0.0001, 18),
]


def submit_all(server, streams):
    for name, texts in streams.items():
        for text in texts:
            server.submit(name, parse_query(text))
    return server.run_until_idle()


def test_n_exact_hits_take_n_steps_and_no_plan(monkeypatch):
    plans = []
    real_plan = QueryPlanner.plan

    def counting_plan(planner, query):
        plans.append(query.name)
        return real_plan(planner, query)

    monkeypatch.setattr(QueryPlanner, "plan", counting_plan)
    server = BraidServer(
        tables=selection_universe(rows=40, seed=5).tables, config=ServerConfig()
    )
    for name in WARM:
        server.open_session(name)
    assert submit_all(server, WARM) == 6  # eager misses: one step each
    del plans[:]
    warmed = len(server.schedule_trace)

    assert submit_all(server, AGAIN) == 6
    assert plans == []
    assert [r.phase for r in server.schedule_trace[warmed:]] == ["execute"] * 6
    for name in AGAIN:
        assert all(r.error is None and r.rows for r in server.results(name))

    snapshot = server.metrics.snapshot()
    assert {k: v for k, v in snapshot.items() if k.startswith("cache.")} == (
        CACHE_COUNTERS
    )
    assert server.clock.now == 0.26272
    assert sorted(
        (e.element_id, e.view_name, e.use_count, round(e.saved_seconds, 9), e.sequence)
        for e in server.cache.elements()
    ) == LEDGER
