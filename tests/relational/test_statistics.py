"""Tests for cardinality and selectivity statistics."""

import pytest

from repro.relational.expressions import Col, Comparison, Lit
from repro.relational.relation import relation_from_columns
from repro.relational.statistics import (
    DEFAULT_SELECTIVITY,
    AttributeStats,
    RelationStatistics,
)
from tests.relational import col_eq, eq


@pytest.fixture
def stats():
    relation = relation_from_columns(
        "emp",
        id=[1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
        dept=["a", "a", "a", "a", "a", "b", "b", "b", "c", "c"],
        age=[20, 25, 30, 35, 40, 45, 50, 55, 60, 65],
    )
    return RelationStatistics.from_relation(relation)


class TestFromRelation:
    def test_cardinality(self, stats):
        assert stats.cardinality == 10

    def test_distinct_counts(self, stats):
        assert stats.attribute("id").distinct == 10
        assert stats.attribute("dept").distinct == 3

    def test_min_max_numeric(self, stats):
        assert stats.attribute("age").minimum == 20
        assert stats.attribute("age").maximum == 65

    def test_min_max_strings(self, stats):
        assert stats.attribute("dept").minimum == "a"
        assert stats.attribute("dept").maximum == "c"

    def test_unknown_attribute_defaults(self, stats):
        assert stats.attribute("nope").distinct == 0


class TestSelectivity:
    def test_equality_uses_distinct(self, stats):
        assert stats.selectivity(eq("id", 5)) == pytest.approx(0.1)
        assert stats.selectivity(eq("dept", "a")) == pytest.approx(1 / 3)

    def test_inequality_complement(self, stats):
        assert stats.selectivity(Comparison(Col("id"), "!=", Lit(5))) == pytest.approx(0.9)

    def test_range_interpolation(self, stats):
        half = stats.selectivity(Comparison(Col("age"), "<", Lit(42.5)))
        assert half == pytest.approx(0.5)

    def test_range_clamped(self, stats):
        assert stats.selectivity(Comparison(Col("age"), "<", Lit(0))) == 0.0
        assert stats.selectivity(Comparison(Col("age"), "<", Lit(1000))) == 1.0

    def test_range_on_string_falls_back(self, stats):
        got = stats.selectivity(Comparison(Col("dept"), "<", Lit("b")))
        assert got == DEFAULT_SELECTIVITY

    def test_normalization_applied(self, stats):
        # Literal on the left must behave like the flipped form.
        flipped = stats.selectivity(Comparison(Lit(42.5), ">", Col("age")))
        assert flipped == pytest.approx(0.5)

    def test_col_col_equality(self, stats):
        got = stats.selectivity(col_eq("id", "age"))
        assert got == pytest.approx(0.1)

    def test_conjunction_independence(self, stats):
        sel = stats.conjunction_selectivity([eq("id", 5), eq("dept", "a")])
        assert sel == pytest.approx(0.1 / 3)

    def test_estimate_selection(self, stats):
        assert stats.estimate_selection([eq("dept", "a")]) == pytest.approx(10 / 3)


class TestAttributeStats:
    def test_eq_selectivity_zero_distinct(self):
        assert AttributeStats().eq_selectivity() > 0

    def test_constant_attribute_range(self):
        attr = AttributeStats(distinct=1, minimum=5, maximum=5)
        assert attr.range_selectivity("<", 6) == 1.0
        assert attr.range_selectivity("<", 5) == 0.0
        assert attr.range_selectivity("<=", 5) == 1.0
        assert attr.range_selectivity(">", 4) == 1.0
