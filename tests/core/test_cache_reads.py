"""What reading a cache element records, on every route that reads one.

An answer served from a main-cache element touches it, counts
``cache.intermediate_hits`` when it is an intermediate, and credits the
efficacy ledger (``Cache.read``) — a degraded partial answer included.  A
stale-archive copy is not a main-cache element: deriving from it leaves
the main cache's recency, ledger and saved-seconds total alone.
"""

from repro.caql.eval import psj_of, result_schema
from repro.caql.parser import parse_query
from repro.common.metrics import CACHE_INTERMEDIATE_HITS, CACHE_SAVED_SECONDS
from repro.core.cache import StaleArchive
from repro.core.cms import CacheManagementSystem, CMSFeatures
from repro.core.plan import RemotePart
from repro.relational.relation import Relation, relation_from_columns
from repro.remote.faults import FaultPolicy, RetryPolicy
from repro.remote.server import RemoteDBMS

OUTAGE = FaultPolicy(seed=0, transient_rate=1.0)


def make_cms():
    # t is big and cached, s is small and remote: the hybrid split wins.
    server = RemoteDBMS()
    server.load_table(
        relation_from_columns("t", a=list(range(200)), b=[4 + i % 2 for i in range(200)])
    )
    server.load_table(relation_from_columns("s", b=[4, 5], c=[7, 8]))
    cms = CacheManagementSystem(
        server, features=CMSFeatures(retry_policy=RetryPolicy(max_retries=1))
    )
    cms.begin_session()
    return cms, server


def test_a_degraded_hybrid_answer_counts_its_intermediate_hit():
    cms, server = make_cms()
    scan = psj_of(parse_query("scan(A, B) :- t(A, B)"))
    element = cms.cache.store(
        scan, cms.rdi.fetch(scan), kind="intermediate", operator="remote-fetch"
    )

    server.set_fault_policy(OUTAGE)
    joined = cms.query(parse_query("q(A, C) :- t(A, B), s(B, C)"))
    rows = joined.fetch_all()
    assert joined.degraded
    assert sorted(row[0] for row in rows) == list(range(200))
    plan = cms.last_plan
    assert plan.strategy == "hybrid"
    # The remote part runs first and fails: the healthy run never reached
    # the cache part, so the degraded derivation is the one read.
    assert not any(p.bind_columns for p in plan.parts if isinstance(p, RemotePart))
    assert cms.metrics.get(CACHE_INTERMEDIATE_HITS) == 1
    assert element.use_count == 1


def test_deriving_from_the_stale_archive_leaves_the_main_cache_alone():
    cms, _server = make_cms()
    for text in ("a(A, B) :- t(A, B), A < 10", "b(B, C) :- s(B, C)"):
        cms.query(parse_query(text)).fetch_all()
    cms.query(parse_query("a(A, B) :- t(A, B), A < 10")).fetch_all()  # a reuse

    archive = StaleArchive()
    broad = psj_of(parse_query("d(A, B) :- t(A, B)"))
    archive.store(broad, Relation(result_schema("d", 2), [(1, 4), (2, 5), (3, 4)]))
    narrow = psj_of(parse_query("n(A) :- t(A, 4)"))
    match = archive.find_full(narrow)
    # A priced archive copy: crediting it anywhere would show.
    match.element.derivation_seconds = 1.0

    def state():
        # The derivation charges local time, so the clock moves; what the
        # elements recorded must not.
        return (
            [
                (
                    e.element_id,
                    e.sequence,
                    e.use_count,
                    e.reuse_frequency,
                    e.last_used_at,
                    e.saved_seconds,
                )
                for e in cms.cache.elements()
            ],
            cms.metrics.get(CACHE_SAVED_SECONDS),
        )

    before = state()
    assert before[1] > 0
    result = cms.monitor.derive_degraded(match, narrow)
    assert sorted(result.rows) == [(1,), (3,)]
    assert state() == before
