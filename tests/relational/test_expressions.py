"""Tests for row expressions and conditions."""

import pytest

from repro.common.errors import SchemaError
from repro.relational import expressions
from repro.relational.expressions import (
    Col,
    Comparison,
    Lit,
    compile_conjunction,
    reset_predicate_cache,
)
from repro.relational.schema import Schema
from tests.relational import col_eq, eq

SCHEMA = Schema("emp", ("id", "age", "dept"))


def compiled(condition):
    return compile_conjunction([condition], SCHEMA)


class TestComparison:
    def test_unknown_operator_rejected(self):
        with pytest.raises(SchemaError):
            Comparison(Col("a"), "~", Lit(1))

    def test_compile_col_const(self):
        predicate = compiled(eq("dept", "sw"))
        assert predicate((1, 30, "sw"))
        assert not predicate((1, 30, "hw"))

    def test_compile_col_col(self):
        predicate = compiled(col_eq("id", "age"))
        assert predicate((5, 5, "sw"))
        assert not predicate((5, 6, "sw"))

    def test_compile_range(self):
        predicate = compiled(Comparison(Col("age"), ">=", Lit(18)))
        assert predicate((1, 18, "sw"))
        assert not predicate((1, 17, "sw"))

    def test_incomparable_types_false(self):
        predicate = compiled(Comparison(Col("age"), "<", Lit(18)))
        assert not predicate((1, "unknown", "sw"))

    def test_unknown_column_raises_at_compile(self):
        with pytest.raises(SchemaError):
            compiled(eq("salary", 1))


class TestNormalization:
    def test_const_moves_right(self):
        norm = Comparison(Lit(5), "<", Col("age")).normalized()
        assert norm == Comparison(Col("age"), ">", Lit(5))

    def test_col_col_ordered_by_name(self):
        norm = Comparison(Col("b"), "<", Col("a")).normalized()
        assert norm == Comparison(Col("a"), ">", Col("b"))

    def test_already_normalized_unchanged(self):
        condition = Comparison(Col("age"), "<=", Lit(9))
        assert condition.normalized() == condition

    def test_equality_flip_preserved(self):
        norm = Comparison(Lit(5), "=", Col("age")).normalized()
        assert norm == Comparison(Col("age"), "=", Lit(5))

    def test_is_col_const(self):
        assert Comparison(Lit(5), "<", Col("age")).is_col_const()
        assert not col_eq("a", "b").is_col_const()


class TestHelpers:
    def test_columns(self):
        assert col_eq("a", "b").columns() == {"a", "b"}
        assert eq("a", 1).columns() == {"a"}

    def test_rename_columns(self):
        renamed = col_eq("a", "b").rename_columns({"a": "x"})
        assert renamed == col_eq("x", "b")

    def test_rename_ignores_literals(self):
        renamed = eq("a", 1).rename_columns({"a": "x"})
        assert renamed == eq("x", 1)


class TestConjunction:
    def test_empty_conjunction_is_true(self):
        predicate = compile_conjunction([], SCHEMA)
        assert predicate((1, 2, "any"))

    def test_all_must_hold(self):
        predicate = compile_conjunction(
            [eq("dept", "sw"), Comparison(Col("age"), ">", Lit(25))], SCHEMA
        )
        assert predicate((1, 30, "sw"))
        assert not predicate((1, 20, "sw"))
        assert not predicate((1, 30, "hw"))

    def test_single_condition_fast_path(self):
        predicate = compile_conjunction([eq("id", 1)], SCHEMA)
        assert predicate((1, 0, ""))


class TestCompileOnce:
    """Code is generated per conjunction *shape*; constants are arguments."""

    @pytest.fixture(autouse=True)
    def generations(self, monkeypatch):
        """Shapes handed to the module's one ``compile(...)`` call site."""
        reset_predicate_cache()
        generated = []
        real_generate = expressions._generate

        def counting_generate(shape):
            generated.append(shape)
            return real_generate(shape)

        monkeypatch.setattr(expressions, "_generate", counting_generate)
        return generated

    def test_never_repeating_constants_generate_code_once(self, generations):
        for k in range(200):
            predicate = compile_conjunction(
                [eq("dept", f"d{k}"), Comparison(Lit(k), "<", Col("age"))], SCHEMA
            )
            assert predicate((1, k + 1, f"d{k}"))
            assert not predicate((1, k, f"d{k}"))
            assert not predicate((1, k + 1, f"d{k + 1}"))
        assert len(generations) == 1

    def test_shape_is_positions_and_operators_not_names(self, generations):
        other = Schema("staff", ("key", "years", "unit"))
        compile_conjunction([eq("dept", "sw")], SCHEMA)
        compile_conjunction([eq("unit", "hw")], other)
        compile_conjunction([eq("age", 3)], SCHEMA)  # another position
        compile_conjunction([Comparison(Col("dept"), "!=", Lit("sw"))], SCHEMA)
        assert generations == [((2, "=", -1),), ((1, "=", -1),), ((2, "!=", -1),)]

    def test_any_literal_compiles_and_none_reaches_the_source(self, generations):
        hostile = "x') or __import__('os').system('true') or ('"
        for literal in [(1, 2), frozenset({1}), None, float("nan"), hostile, object()]:
            predicate = compile_conjunction([eq("dept", literal)], SCHEMA)
            assert predicate((1, 2, literal)) is (literal == literal)
            assert predicate((1, 2, "other")) is False
        assert len(generations) == 1
        ((_make_row, source),) = expressions._SHAPE_CACHE.values()
        assert "import" not in source and "(1, 2)" not in source and "dept" not in source

    def test_unknown_column_raises_the_schema_error_at_compile_time(self):
        with pytest.raises(SchemaError) as compiled:
            compile_conjunction([eq("salary", 1)], SCHEMA)
        with pytest.raises(SchemaError) as looked_up:
            SCHEMA.position("salary")
        assert str(compiled.value) == str(looked_up.value)
