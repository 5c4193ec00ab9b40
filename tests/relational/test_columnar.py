"""ColumnarBatch: representation, kernels, compilation cache, invariants."""

import pytest

from repro.common.errors import InvariantViolation, SchemaError
from repro.relational.columnar import (
    ColumnarBatch,
    compile_batch_predicate,
    compile_stats,
    hash_join_batch,
    predicate_cache_size,
    project_batch,
    project_entries_batch,
    reset_predicate_cache,
    select_batch,
)
from repro.relational.expressions import Col, Comparison, Lit, compile_conjunction, eq
from repro.relational.operators import join, project, select
from repro.relational.relation import Relation, relation_from_columns
from repro.relational.schema import Schema


@pytest.fixture(autouse=True)
def fresh_cache():
    reset_predicate_cache()


def sample():
    return relation_from_columns(
        "r", x=[1, 2, 3, 4, 5], y=[10, 20, 30, 40, 50], tag=["a", "b", "a", "b", "a"]
    )


class TestRepresentation:
    def test_round_trip_preserves_rows_and_order(self):
        relation = sample()
        batch = ColumnarBatch.from_relation(relation)
        assert batch.rows == relation.rows
        assert batch.to_relation() == relation
        assert batch.to_relation().rows == relation.rows  # stable order too

    def test_len_iter_and_row_access(self):
        batch = ColumnarBatch.from_relation(sample())
        assert len(batch) == 5
        assert next(iter(batch)) == (1, 10, "a")
        assert batch.row(2) == (3, 30, "a")
        assert batch.column("y")[:2] == [10, 20]

    def test_iteration_is_lazy_single_tuple_pull(self):
        batch = ColumnarBatch.from_relation(sample())
        it = iter(batch)
        assert next(it) == (1, 10, "a")
        assert next(it) == (2, 20, "b")  # pulls one row at a time

    def test_empty_relation_round_trips(self):
        schema = Schema("e", ("a", "b"))
        batch = ColumnarBatch.from_relation(Relation(schema))
        assert len(batch) == 0
        assert batch.rows == []
        assert batch.to_relation() == Relation(schema)

    def test_from_rows_deduplicates_unless_vouched(self):
        schema = Schema("d", ("a",))
        batch = ColumnarBatch.from_rows(schema, [(1,), (2,), (1,)])
        assert batch.rows == [(1,), (2,)]

    def test_from_rows_rejects_wrong_arity(self):
        with pytest.raises(SchemaError):
            ColumnarBatch.from_rows(Schema("d", ("a",)), [(1, 2)])

    def test_wrong_column_count_rejected(self):
        with pytest.raises(SchemaError):
            ColumnarBatch(Schema("d", ("a", "b")), [[1, 2]])

    def test_set_equality_against_batches_and_relations(self):
        relation = sample()
        batch = ColumnarBatch.from_relation(relation)
        reversed_batch = ColumnarBatch.from_rows(
            relation.schema, list(reversed(relation.rows)), distinct=True
        )
        assert batch == reversed_batch  # order-insensitive
        assert batch == relation


class TestTypedColumns:
    def test_compact_converts_homogeneous_numeric_columns(self):
        batch = ColumnarBatch.from_relation(sample()).compact()
        assert batch.memoryview_of("x") is not None
        assert batch.memoryview_of("x").tolist() == [1, 2, 3, 4, 5]
        assert batch.memoryview_of("tag") is None  # strings stay objects

    def test_compact_floats(self):
        batch = ColumnarBatch.from_relation(
            relation_from_columns("f", v=[0.5, 1.5, 2.5])
        ).compact()
        assert batch.memoryview_of("v").tolist() == [0.5, 1.5, 2.5]

    def test_bool_columns_are_not_coerced(self):
        # bool is an int subclass, but array('q') would change True -> 1,
        # altering the value's type; bools must stay object columns.
        batch = ColumnarBatch.from_relation(
            relation_from_columns("b", flag=[True, False])
        ).compact()
        assert batch.memoryview_of("flag") is None
        assert batch.rows == [(True,), (False,)]

    def test_mixed_and_oversized_ints_stay_lists(self):
        batch = ColumnarBatch.from_relation(
            relation_from_columns("m", a=[1, 2.0], b=[2**100, 1])
        ).compact()
        assert batch.memoryview_of("a") is None  # mixed int/float
        assert batch.memoryview_of("b") is None  # beyond 64 bits
        assert batch.rows == [(1, 2**100), (2.0, 1)]

    def test_kernels_work_on_compacted_batches(self):
        batch = ColumnarBatch.from_relation(sample()).compact()
        out = select_batch(batch, [Comparison(Col("x"), ">", Lit(3))])
        assert set(out.rows) == {(4, 40, "b"), (5, 50, "a")}


class TestSelectKernel:
    def test_matches_tuple_select(self):
        relation = sample()
        conditions = [Comparison(Col("x"), ">", Lit(1)), eq("tag", "a")]
        expected = select(relation, conditions)
        got = select_batch(ColumnarBatch.from_relation(relation), conditions)
        assert got.to_relation() == expected

    def test_no_conditions_returns_same_batch(self):
        batch = ColumnarBatch.from_relation(sample())
        assert select_batch(batch, []) is batch

    def test_full_selection_reuses_the_batch(self):
        batch = ColumnarBatch.from_relation(sample())
        assert select_batch(batch, [Comparison(Col("x"), ">", Lit(0))]) is batch

    def test_type_clash_excludes_the_row(self):
        relation = relation_from_columns("t", v=[1, "two", 3])
        out = select_batch(
            ColumnarBatch.from_relation(relation),
            [Comparison(Col("v"), ">", Lit(1))],
        )
        assert out.rows == [(3,)]  # "two" > 1 raises TypeError -> excluded

    def test_column_to_column_comparison(self):
        relation = relation_from_columns("c", a=[1, 5, 3], b=[2, 4, 3])
        out = select_batch(
            ColumnarBatch.from_relation(relation),
            [Comparison(Col("a"), "<", Col("b"))],
        )
        assert out.rows == [(1, 2)]


class TestProjectKernels:
    def test_matches_tuple_project_including_dedup_order(self):
        relation = sample()
        expected = project(relation, ["tag"])
        got = project_batch(ColumnarBatch.from_relation(relation), ["tag"])
        assert got.to_relation().rows == expected.rows  # first-occurrence order

    def test_multi_column_projection(self):
        relation = sample()
        got = project_batch(ColumnarBatch.from_relation(relation), ["tag", "x"])
        assert got.to_relation() == project(relation, ["tag", "x"])

    def test_project_entries_with_constants(self):
        batch = ColumnarBatch.from_relation(sample())
        schema = Schema("out", ("k", "x"))
        out = project_entries_batch(batch, [("const", 9), ("col", 0)], schema)
        assert out.rows == [(9, 1), (9, 2), (9, 3), (9, 4), (9, 5)]

    def test_project_entries_deduplicates(self):
        batch = ColumnarBatch.from_relation(sample())
        schema = Schema("out", ("tag",))
        out = project_entries_batch(batch, [("col", 2)], schema)
        assert out.rows == [("a",), ("b",)]


class TestHashJoinKernel:
    def test_matches_tuple_join(self):
        left = sample()
        right = relation_from_columns("s", y=[10, 30, 60], z=["p", "q", "r"])
        expected = join(left, right, [("y", "y")], name="j")
        got = hash_join_batch(
            ColumnarBatch.from_relation(left),
            ColumnarBatch.from_relation(right),
            [("y", "y")],
            name="j",
        )
        assert got.to_relation() == expected

    def test_multi_key_join(self):
        left = relation_from_columns("l", a=[1, 1, 2], b=["x", "y", "x"])
        right = relation_from_columns("r", a=[1, 2], b=["x", "x"], c=[7, 8])
        expected = join(left, right, [("a", "a"), ("b", "b")], name="j")
        got = hash_join_batch(
            ColumnarBatch.from_relation(left),
            ColumnarBatch.from_relation(right),
            [("a", "a"), ("b", "b")],
            name="j",
        )
        assert got.to_relation() == expected

    def test_empty_pairs_is_cross_product(self):
        left = relation_from_columns("l", a=[1, 2])
        right = relation_from_columns("r", b=["x", "y"])
        got = hash_join_batch(
            ColumnarBatch.from_relation(left),
            ColumnarBatch.from_relation(right),
            [],
            name="j",
        )
        assert set(got.rows) == {(1, "x"), (1, "y"), (2, "x"), (2, "y")}

    def test_extra_conditions_filter_the_joined_rows(self):
        left = sample()
        right = relation_from_columns("s", y=[10, 30, 50], z=[100, 1, 100])
        conditions = [Comparison(Col("x"), "<", Col("z"))]
        expected = join(left, right, [("y", "y")], name="j", conditions=conditions)
        got = hash_join_batch(
            ColumnarBatch.from_relation(left),
            ColumnarBatch.from_relation(right),
            [("y", "y")],
            name="j",
            conditions=conditions,
        )
        assert got.to_relation() == expected

    def test_build_side_choice_does_not_change_the_answer(self):
        small = relation_from_columns("small", k=[1, 2])
        big = relation_from_columns("big", k=[1, 1, 2, 3, 4, 5, 2])
        a = hash_join_batch(
            ColumnarBatch.from_relation(small),
            ColumnarBatch.from_relation(big),
            [("k", "k")],
            name="j",
        )
        b = hash_join_batch(
            ColumnarBatch.from_relation(big),
            ColumnarBatch.from_relation(small),
            [("k", "k")],
            name="j",
        )
        assert {tuple(r) for r in a.rows} == {(r[1], r[0]) for r in b.rows}


class TestCompilationCache:
    """The cache is keyed by conjunction *shape* (positions and operators,
    constants left out), and it is the tuple engine's cache too."""

    def test_cache_hit_on_identical_conjunct(self):
        schema = sample().schema
        conditions = [Comparison(Col("x"), ">", Lit(2))]
        first = compile_batch_predicate(conditions, schema)
        second = compile_batch_predicate(list(conditions), schema)
        assert first.row.__code__ is second.row.__code__
        assert first.filter.__code__ is second.filter.__code__
        assert compile_stats["misses"] == 1
        assert compile_stats["hits"] == 1
        assert predicate_cache_size() == 1

    def test_literal_spellings_share_code_not_constants(self):
        # 1 and 1.0 compare equal but are different constants: they share
        # one shape (so one code generation) and get a closure each, bound
        # to their own constant -- nothing is conflated by value.
        schema = Schema("t", ("x",))
        a = compile_batch_predicate([eq("x", 1)], schema)
        b = compile_batch_predicate([eq("x", "1")], schema)
        c = compile_batch_predicate([eq("x", 1.0)], schema)
        assert a.row is not c.row and a.row.__code__ is c.row.__code__
        assert a.source is b.source is c.source
        assert predicate_cache_size() == 1 and compile_stats["misses"] == 1
        rows = [(1,), ("1",), (1.0,), (True,)]
        assert [a.row(r) for r in rows] == [True, False, True, True]
        assert [b.row(r) for r in rows] == [False, True, False, False]
        assert a.filter([[1, "1", 1.0, True]]) == c.filter([[1, "1", 1.0, True]]) == [0, 2, 3]
        assert b.filter([[1, "1", 1.0, True]]) == [1]

    def test_tuple_valued_literal_compiles(self):
        # Constants are arguments of the generated factory, never source
        # text, so any literal compiles -- there is no interpreter to fall
        # back to.
        schema = Schema("t", ("v",))
        compiled = compile_batch_predicate([eq("v", (1, 2))], schema)
        assert "(1, 2)" not in compiled.source
        assert compiled.row(((1, 2),)) is True
        assert compiled.filter([[(1, 2), (3, 4)]]) == [0]

    def test_tuple_engine_shares_the_cache(self):
        schema = sample().schema
        conditions = [Comparison(Col("x"), ">", Lit(2))]
        select(sample(), conditions)
        compiled = compile_batch_predicate(conditions, schema)
        assert compile_stats == {"hits": 1, "misses": 1}
        assert compile_conjunction(conditions, schema).__code__ is compiled.row.__code__

    def test_unknown_column_raises_the_interpreter_schema_error(self):
        # Same behaviour as tuple-engine select(): unknown columns fail at
        # predicate-compile time with the schema's own SchemaError.
        schema = Schema("t", ("v",))
        with pytest.raises(SchemaError, match="missing"):
            compile_batch_predicate(
                [Comparison(Col("missing"), "=", Lit(1))], schema
            )

    def test_compiled_row_predicate_matches_interpreter_on_type_clash(self):
        schema = Schema("t", ("v",))
        compiled = compile_batch_predicate([Comparison(Col("v"), "<", Lit(5))], schema)
        assert compiled.row(("str",)) is False
        assert compiled.row((3,)) is True
        assert compiled.filter([["str", 3]]) == [1]


class TestBatchInvariants:
    def test_clean_batch_passes(self):
        ColumnarBatch.from_relation(sample()).check_invariants()

    def test_ragged_columns_raise(self):
        batch = ColumnarBatch.from_relation(sample())
        batch.columns[1] = batch.columns[1][:-1]
        with pytest.raises(InvariantViolation, match="ragged"):
            batch.check_invariants()

    def test_duplicate_rows_raise(self):
        schema = Schema("d", ("a",))
        batch = ColumnarBatch.from_rows(schema, [(1,), (2,)], distinct=True)
        batch.columns[0].append(1)
        with pytest.raises(InvariantViolation, match="duplicate"):
            batch.check_invariants()

    def test_column_count_mismatch_raises(self):
        batch = ColumnarBatch.from_relation(sample())
        batch.columns.pop()
        with pytest.raises(InvariantViolation, match="arity"):
            batch.check_invariants()

    def test_estimated_bytes_matches_relation_heuristic(self):
        relation = relation_from_columns("e", s=["short", "a-rather-long-string"])
        batch = ColumnarBatch.from_relation(relation)
        assert batch.estimated_bytes() == relation.estimated_bytes()
