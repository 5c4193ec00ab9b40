"""The CMSFeatures.columnar flag: engine selection, parity, cost model.

The flag must swap the local engine underneath the whole request path —
planner, executor, cache reuse — without changing a single answer, on
both remote backends (pure-Python and sqlite).
"""

import pytest

from repro.caql.eval import result_schema
from repro.caql.parser import parse_query
from repro.common.clock import CostProfile
from repro.core.cms import CacheManagementSystem, CMSFeatures
from repro.core.engine import ColumnarEngine, TupleEngine, make_engine
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.remote.server import RemoteDBMS
from repro.remote.sqlite_backend import SqliteEngine

QUERIES = [
    "q1(X, Y, Z) :- r(X, Y, Z), X > 10",
    "q2(X, W) :- r(X, Y, Z), s(Y, W)",
    "q3(X, Z) :- r(X, Y, Z), Y = 3, X < 40",
    "q4(X, Y, Z) :- r(X, Y, Z), X > 10",  # subsumption reuse of q1
    "q5(X) :- r(X, Y, Z), s(Y, W), W > 20",
]


def tables():
    return [
        Relation(
            result_schema("r", 3),
            [(i, i % 7, f"v{i % 5}") for i in range(60)],
        ),
        Relation(result_schema("s", 2), [(i % 7, i * 2) for i in range(40)]),
    ]


def make_cms(columnar: bool, backend: str = "pure") -> CacheManagementSystem:
    engine = SqliteEngine() if backend == "sqlite" else None
    remote = RemoteDBMS(engine=engine)
    for relation in tables():
        remote.load_table(relation)
    return CacheManagementSystem(
        remote, features=CMSFeatures(columnar=columnar)
    )


class TestEngineSelection:
    def test_make_engine_by_name(self):
        assert isinstance(make_engine("tuple"), TupleEngine)
        assert isinstance(make_engine("columnar"), ColumnarEngine)
        with pytest.raises(ValueError):
            make_engine("volcano")

    def test_flag_selects_the_monitor_engine(self):
        assert make_cms(False).monitor.engine.name == "tuple"
        assert make_cms(True).monitor.engine.name == "columnar"

    def test_features_none_stays_on_the_tuple_engine(self):
        remote = RemoteDBMS()
        for relation in tables():
            remote.load_table(relation)
        cms = CacheManagementSystem(remote, features=CMSFeatures.none())
        assert cms.features.columnar is False
        assert cms.monitor.engine.name == "tuple"


class TestProjectEntries:
    """Both engines cut rows down alike; the tuple engine adopts the rows
    of an all-column projection instead of re-validating them."""

    ROWS = [(1, "a", 10), (2, "a", 10), (1, "b", 10)]

    @pytest.mark.parametrize(
        "entries",
        [
            [("col", 1)],
            [("col", 2), ("col", 1)],
            [("col", 1), ("col", 1), ("col", 0)],
            [("const", "k"), ("col", 1)],
            [("const", "k")],
        ],
        ids=lambda entries: "+".join(kind for kind, _value in entries),
    )
    def test_engines_agree_row_for_row(self, entries):
        source = Relation(Schema("s", ("x", "y", "z")), self.ROWS)
        schema = Schema("out", tuple(f"a{i}" for i in range(len(entries))))
        expected = list(
            dict.fromkeys(
                tuple(v if kind == "const" else row[v] for kind, v in entries)
                for row in self.ROWS
            )
        )
        for engine in (TupleEngine(), ColumnarEngine()):
            out = engine.materialize(
                engine.project_entries(engine.ingest(source), iter(entries), schema)
            )
            out.check_invariants(engine.name)
            assert out.rows == expected and out.schema is schema


@pytest.mark.parametrize("backend", ["pure", "sqlite"])
class TestEngineParity:
    def test_identical_answers_across_the_query_sequence(self, backend):
        tuple_cms = make_cms(False, backend)
        columnar_cms = make_cms(True, backend)
        for text in QUERIES:
            query = parse_query(text)
            expected = tuple_cms.query(query)
            got = columnar_cms.query(query)
            expected.check_invariants()
            got.check_invariants()
            assert set(got.fetch_all()) == set(expected.fetch_all()), text
            assert got.schema.arity == expected.schema.arity

    def test_cache_behaviour_matches(self, backend):
        tuple_cms = make_cms(False, backend)
        columnar_cms = make_cms(True, backend)
        for text in QUERIES:
            tuple_cms.query(parse_query(text)).fetch_all()
            columnar_cms.query(parse_query(text)).fetch_all()
        for key in ("cache.hits.exact", "cache.hits.subsumed", "cache.misses"):
            assert tuple_cms.metrics.get(key) == columnar_cms.metrics.get(key), key


class TestCostModel:
    def test_profile_carries_the_columnar_factor(self):
        profile = CostProfile()
        assert 0 < profile.columnar_tuple_factor < 1

    def test_scaled_keeps_the_factor_unscaled(self):
        profile = CostProfile(columnar_tuple_factor=0.25)
        assert profile.scaled(10.0).columnar_tuple_factor == 0.25
        assert profile.scaled(10.0).cache_per_tuple == profile.cache_per_tuple * 10

    def test_columnar_local_work_is_cheaper_in_sim_time(self):
        tuple_cms = make_cms(False)
        columnar_cms = make_cms(True)
        # Prime both caches, then hit a derivation-heavy local path.
        for cms in (tuple_cms, columnar_cms):
            cms.query(parse_query("w(X, Y, Z) :- r(X, Y, Z)")).fetch_all()
            start = cms.clock.now
            cms.query(parse_query("n(X, Y, Z) :- r(X, Y, Z), X > 5")).fetch_all()
            cms.local_elapsed = cms.clock.now - start
        assert columnar_cms.local_elapsed < tuple_cms.local_elapsed

    def test_planner_derive_cost_uses_the_factor(self):
        tuple_cms = make_cms(False)
        columnar_cms = make_cms(True)
        for cms in (tuple_cms, columnar_cms):
            cms.query(parse_query("w(X, Y, Z) :- r(X, Y, Z)")).fetch_all()
        query = parse_query("n(X, Y, Z) :- r(X, Y, Z), X > 5")
        from repro.caql.eval import psj_of

        psj = psj_of(query)
        tuple_match = tuple_cms.planner.plan(psj).full_match
        columnar_match = columnar_cms.planner.plan(psj).full_match
        assert tuple_match is not None and columnar_match is not None
        factor = tuple_cms.profile.columnar_tuple_factor
        assert columnar_cms.planner._derive_cost(columnar_match) == pytest.approx(
            tuple_cms.planner._derive_cost(tuple_match) * factor
        )
