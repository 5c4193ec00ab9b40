"""Tests for path expression structures."""

import pytest

from repro.common.errors import AdviceError
from repro.advice.path_expression import (
    Alternation,
    Cardinality,
    QueryPattern,
    Sequence,
    iter_patterns,
    sequence_companions,
    view_names,
)

d1 = QueryPattern("d1", ("Y^",))
d2 = QueryPattern("d2", ("X^", "Y?"))
d3 = QueryPattern("d3", ("X^", "Y?"))


def example1():
    """Paper example 1: (d1(Y^), (d2(X^,Y?), d3(X^,Y?))^<0,|Y|>)^<1,1>."""
    inner = Sequence((d2, d3), lower=0, upper=Cardinality("Y"))
    return Sequence((d1, inner), lower=1, upper=1)


def example2():
    """Paper example 2: alternation instead of inner sequence."""
    inner = Sequence((Alternation((d2, d3)),), lower=0, upper=Cardinality("Y"))
    return Sequence((d1, inner), lower=1, upper=1)


class TestConstruction:
    def test_empty_sequence_rejected(self):
        with pytest.raises(AdviceError):
            Sequence(())

    def test_negative_lower_rejected(self):
        with pytest.raises(AdviceError):
            Sequence((d1,), lower=-1)

    def test_upper_below_lower_rejected(self):
        with pytest.raises(AdviceError):
            Sequence((d1,), lower=3, upper=2)

    def test_empty_alternation_rejected(self):
        with pytest.raises(AdviceError):
            Alternation(())

    def test_selection_range_checked(self):
        with pytest.raises(AdviceError):
            Alternation((d1, d2), selection=3)
        with pytest.raises(AdviceError):
            Alternation((d1, d2), selection=0)


class TestRendering:
    def test_example1_rendering(self):
        text = str(example1())
        assert text == "(d1(Y^), (d2(X^, Y?), d3(X^, Y?))^<0,|Y|>)^<1,1>"

    def test_alternation_rendering(self):
        assert str(Alternation((d2, d3), selection=1)) == "[d2(X^, Y?), d3(X^, Y?)]^1"

    def test_unbounded_rendering(self):
        assert str(Sequence((d1,), lower=0, upper=None)) == "(d1(Y^))^<0,*>"

    def test_pattern_no_args(self):
        assert str(QueryPattern("halt")) == "halt"


class TestTraversal:
    def test_iter_patterns_in_order(self):
        assert [p.view for p in iter_patterns(example1())] == ["d1", "d2", "d3"]

    def test_view_names(self):
        assert view_names(example2()) == {"d1", "d2", "d3"}


class TestSequenceCompanions:
    def test_sequence_members_are_companions(self):
        assert sequence_companions(example1(), "d2") == {"d3"}
        assert sequence_companions(example1(), "d3") == {"d2"}

    def test_outer_sequence_groups_with_inner(self):
        # d1 shares the outer sequence with the inner group's promises... but
        # the inner sequence has lower bound 0 so its names still count as
        # sequence-level companions of d1 (they are in the same ordered
        # group; the repetition bound is a run-time question).
        companions = sequence_companions(example1(), "d1")
        assert companions == {"d2", "d3"}

    def test_alternation_members_not_companions(self):
        companions = sequence_companions(example2(), "d2")
        assert "d3" not in companions

    def test_unknown_view(self):
        assert sequence_companions(example1(), "zzz") == set()
