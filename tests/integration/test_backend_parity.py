"""The pure-Python and sqlite remote backends agree.

The paper's requirement is an *unmodified conventional DBMS*; this repo
provides two interchangeable ones.  Whatever the CMS ships to either must
come back identical — asserted over random conjunctive queries, and over
the ordered comparisons between a number and a text value, where sqlite's
own ordering differs from the substrate's.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.caql.eval import evaluate_conjunctive
from repro.caql.parser import parse_query
from repro.common.metrics import CACHE_HITS_SUBSUMED
from repro.core.cms import CacheManagementSystem
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.remote.server import RemoteDBMS
from repro.remote.sqlite_backend import SqliteEngine

R_ROWS = [(x, y) for x in range(6) for y in range(6) if (x + 2 * y) % 3]
S_ROWS = [(y, f"tag{y % 3}", z) for y in range(6) for z in range(3)]


def load(server: RemoteDBMS) -> RemoteDBMS:
    server.load_table(Relation(Schema("r", ("a", "b")), R_ROWS))
    server.load_table(Relation(Schema("s", ("c", "d", "e")), S_ROWS))
    return server


TEMPLATES = [
    "q(X, Y) :- r(X, Y)",
    "q(Y) :- r({c}, Y)",
    "q(X, Y) :- r(X, Y), Y > {c}",
    "q(X, D) :- r(X, Y), s(Y, D, E)",
    "q(X) :- r(X, Y), s(Y, tag1, {e})",
    "q(X, Y2) :- r(X, Y), r(Y, Y2), X \\= Y2",
    "q({c}, Y) :- r({c}, Y)",
]

queries = st.builds(
    lambda template, c, e: parse_query(template.format(c=c, e=e)),
    st.sampled_from(TEMPLATES),
    st.integers(0, 5),
    st.integers(0, 2),
)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(queries, min_size=1, max_size=4))
def test_backends_agree(sequence):
    pure = CacheManagementSystem(load(RemoteDBMS()))
    lite = CacheManagementSystem(load(RemoteDBMS(engine=SqliteEngine())))
    pure.begin_session()
    lite.begin_session()
    for query in sequence:
        got_pure = set(pure.query(query).fetch_all())
        got_lite = set(lite.query(query).fetch_all())
        assert got_pure == got_lite, str(query)


# -- ordered comparisons across value classes ----------------------------------
#
# SQLite orders every number before every text value; the substrate's
# ``holds`` is "False on type clash".  The sqlite backend guards each ordered
# comparison by its operands' ``typeof()`` class so that the two agree — and
# so that an answer does not depend on whether the remote DBMS or a cached
# view applied the condition.

MIXED_R = [(1, 2), (3, 4), (5, "x")]
MIXED_S = [(3,), ("m",)]
MIXED_DB = {
    "r": Relation(Schema("r", ("a0", "a1")), MIXED_R),
    "s": Relation(Schema("s", ("a0",)), MIXED_S),
}

CROSS_CLASS = {
    "q(X) :- r(X, Y), Y > 3": {(3,)},
    "q(X) :- r(X, Y), Y < abc": set(),
    "q(X) :- r(X, Y), Y >= 2": {(1,), (3,)},
    "q(X, C) :- r(X, Y), s(C), Y < C": {(1, 3)},
}


def mixed_server(engine=None) -> RemoteDBMS:
    server = RemoteDBMS(engine=engine)
    server.load_table(Relation(Schema("r", ("a", "b")), MIXED_R))
    server.load_table(Relation(Schema("s", ("c",)), MIXED_S))
    return server


@pytest.mark.parametrize("text", sorted(CROSS_CLASS))
def test_ordered_comparison_across_classes_is_false_on_every_backend(text):
    query = parse_query(text)
    oracle = set(evaluate_conjunctive(query, MIXED_DB.__getitem__))
    assert oracle == CROSS_CLASS[text]
    for engine in (None, SqliteEngine()):
        cms = CacheManagementSystem(mixed_server(engine))
        cms.begin_session()
        assert set(cms.query(query).fetch_all()) == oracle, type(engine).__name__


@pytest.mark.parametrize("text", sorted(CROSS_CLASS))
def test_sqlite_answer_does_not_depend_on_cache_state(text):
    query = parse_query(text)
    cold = CacheManagementSystem(mixed_server(SqliteEngine()))
    cold.begin_session()
    warm = CacheManagementSystem(mixed_server(SqliteEngine()))
    warm.begin_session()
    warm.query(parse_query("v(X, Y) :- r(X, Y)")).fetch_all()
    before = warm.metrics.get(CACHE_HITS_SUBSUMED)
    from_remote = set(cold.query(query).fetch_all())
    from_cache = set(warm.query(query).fetch_all())
    assert warm.metrics.get(CACHE_HITS_SUBSUMED) == before + 1  # derived locally
    assert from_remote == from_cache == CROSS_CLASS[text]
