"""Mixed-type join keys through IN-lists and binding canonicalization.

Python lets ``1 == 1.0 == True`` while ``1 != "1"`` even though their
reprs collide — exactly the value soup a semijoin binding set can carry
when join columns hold heterogeneous data.  These tests pin down:

* :func:`repro.core.rdi.canonical_bindings` — a total, deterministic
  order; deduplication by *equality* with an input-order-independent
  choice of representative;
* :class:`repro.remote.sql.SqlInList` — the duplicate guard uses the
  same equality notion the membership check will;
* engine parity — both engines answer mixed-type IN-lists identically
  (sqlite columns are declared without affinity on purpose, so ``1``
  never silently equals ``'1'`` on one engine but not the other);
* access paths — the pure-Python engine answers IN-lists, equality pins
  and joins through hash indexes, whose bucket keys must meet values the
  way ``==`` does: every query here runs twice (the first use builds the
  index, the second finds it) and must match sqlite both times.
  ``tests/qa/test_access_path_planted_bug.py`` plants a type-strict key
  and expects this file to kill it.
"""

import pytest

from repro.core.rdi import canonical_bindings
from repro.common.errors import TranslationError
from repro.relational.relation import relation_from_columns
from repro.remote.engine import PurePythonEngine
from repro.remote.sql import (
    SelectQuery,
    SqlCol,
    SqlCondition,
    SqlInList,
    SqlLit,
    TableRef,
)
from repro.remote.sqlite_backend import SqliteEngine


class TestCanonicalBindings:
    def test_total_order_over_mixed_types(self):
        out = canonical_bindings({"c": (2, "v1", 0.5, "v0", 7)})
        assert out["c"] == (0.5, 2, 7, "v0", "v1")  # floats, ints, strs

    def test_repr_colliding_values_stay_distinct(self):
        # repr(1) == "1" == repr("1")[1:-1]; the (type, repr) key keeps them.
        out = canonical_bindings({"c": ("1", 1, "2", 2)})
        assert out["c"] == (1, 2, "1", "2")

    def test_equal_values_collapse_to_one_representative(self):
        out = canonical_bindings({"c": (1, 1.0)})
        assert len(out["c"]) == 1

    def test_representative_is_independent_of_input_order(self):
        # 1 == 1.0 collapses either way; the survivor must not depend on
        # which spelling the cache happened to produce first.
        forward = canonical_bindings({"c": (1, 1.0, 3)})
        backward = canonical_bindings({"c": (3, 1.0, 1)})
        assert forward == backward
        assert repr(forward["c"]) == repr(backward["c"])

    def test_output_contains_no_equal_pair(self):
        # SqlInList rejects duplicates by equality; canonical bindings must
        # never hand it one.
        out = canonical_bindings({"c": (True, 1, 1.0, 2, 2.0, "1")})
        values = out["c"]
        assert len(set(values)) == len(values)
        SqlInList(SqlCol("t", "c"), values)  # does not raise

    def test_columns_sorted_and_empty_input_passthrough(self):
        assert list(canonical_bindings({"b": (1,), "a": (2,)})) == ["a", "b"]
        assert canonical_bindings(None) == {}
        assert canonical_bindings({}) == {}


class TestSqlInListGuards:
    def test_empty_binding_set_is_rejected(self):
        with pytest.raises(TranslationError, match="empty"):
            SqlInList(SqlCol("t", "c"), ())

    def test_equal_mixed_type_values_count_as_duplicates(self):
        # 1 and 1.0 are one membership test, not two values.
        with pytest.raises(TranslationError, match="duplicate"):
            SqlInList(SqlCol("t", "c"), (1, 1.0))

    def test_repr_colliding_values_are_not_duplicates(self):
        SqlInList(SqlCol("t", "c"), (1, "1"))  # distinct under equality


def load_keys(engine):
    engine.create_table(
        relation_from_columns("k", key=[1, 2, 3, "1", "2"], tag=["a", "b", "c", "d", "e"])
    )
    return engine


@pytest.fixture(params=["pure", "sqlite"])
def engine(request):
    if request.param == "pure":
        yield load_keys(PurePythonEngine())
        return
    backend = load_keys(SqliteEngine())
    yield backend
    backend.close()


def in_list_query(values):
    return SelectQuery(
        tables=(TableRef("k", "k"),),
        select=(SqlCol("k", "key"), SqlCol("k", "tag")),
        where=(SqlInList(SqlCol("k", "key"), values),),
    )


def pinned_query(value):
    return SelectQuery(
        tables=(TableRef("k", "k"),),
        select=(SqlCol("k", "key"), SqlCol("k", "tag")),
        where=(SqlCondition(SqlCol("k", "key"), "=", SqlLit(value)),),
    )


def twice(engine, query):
    """The answer, asked twice: with and without an index to build."""
    first = engine.execute(query).relation
    again = engine.execute(query).relation
    assert first.rows == again.rows
    return set(again.rows)


class TestEngineParityOnMixedKeys:
    def test_int_binding_does_not_match_stringly_key(self, engine):
        result = engine.execute(in_list_query((1, 2))).relation
        assert set(result.rows) == {(1, "a"), (2, "b")}

    def test_string_binding_does_not_match_numeric_key(self, engine):
        result = engine.execute(in_list_query(("1",))).relation
        assert set(result.rows) == {("1", "d")}

    def test_float_binding_matches_equal_int_key(self, engine):
        result = engine.execute(in_list_query((3.0,))).relation
        assert set(result.rows) == {(3, "c")}

    def test_mixed_list_matches_exactly_its_equality_classes(self, engine):
        result = engine.execute(in_list_query((2.0, "1"))).relation
        assert set(result.rows) == {(2, "b"), ("1", "d")}

    def test_canonicalized_bindings_are_engine_stable(self):
        values = canonical_bindings({"key": (2, "1", 3.0)})["key"]
        pure = load_keys(PurePythonEngine())
        lite = load_keys(SqliteEngine())
        try:
            assert set(pure.execute(in_list_query(values)).relation.rows) == set(
                lite.execute(in_list_query(values)).relation.rows
            )
        finally:
            lite.close()


class TestAccessPathsOnMixedKeys:
    @pytest.mark.parametrize(
        "value, expected",
        [
            (3.0, {(3, "c")}),
            (True, {(1, "a")}),
            ("1", {("1", "d")}),
            (2, {(2, "b")}),
            ("3", set()),
        ],
        ids=repr,
    )
    def test_a_pin_meets_keys_the_way_equality_does(self, engine, value, expected):
        assert twice(engine, pinned_query(value)) == expected

    def test_an_in_list_finds_the_same_rows_from_its_index(self, engine):
        assert twice(engine, in_list_query((2.0, "1"))) == {(2, "b"), ("1", "d")}

    def test_a_join_meets_keys_the_way_equality_does(self, engine):
        engine.create_table(
            relation_from_columns("j", key=[1.0, "2", 3, "x"], n=["p", "q", "r", "s"])
        )
        query = SelectQuery(
            tables=(TableRef("j", "j"), TableRef("k", "k")),
            select=(SqlCol("k", "tag"), SqlCol("j", "n")),
            where=(
                SqlCondition(SqlCol("j", "key"), "=", SqlCol("k", "key")),
                SqlCondition(SqlCol("j", "n"), "!=", SqlLit("s")),
            ),
        )
        assert twice(engine, query) == {("a", "p"), ("e", "q"), ("c", "r")}
