"""Tests for path expression tracking and prediction."""

from hypothesis import given
from hypothesis import strategies as st

from repro.advice.path_expression import (
    Alternation,
    Cardinality,
    QueryPattern,
    Sequence,
)
from repro.advice.tracker import PathTracker

d1, d2, d3, d4, d5 = (QueryPattern(f"d{i}") for i in range(1, 6))


def example1():
    inner = Sequence((d2, d3), lower=0, upper=Cardinality("Y"))
    return Sequence((d1, inner), lower=1, upper=1)


def example2():
    inner = Sequence((Alternation((d2, d3)),), lower=0, upper=Cardinality("Y"))
    return Sequence((d1, inner), lower=1, upper=1)


def excerpt():
    """The tracking excerpt of Section 4.2.2:

    (...(d1, [(d2, d3), (d4, d5)]^1)^<0,|X|> ...)^<0,1>
    """
    alternation = Alternation(
        (Sequence((d2, d3)), Sequence((d4, d5))), selection=1
    )
    return Sequence((Sequence((d1, alternation), lower=0, upper=Cardinality("X")),), lower=0, upper=1)


class TestExample1:
    def test_first_query_is_d1(self):
        tracker = PathTracker(example1())
        assert tracker.predicted_next() == {"d1"}

    def test_after_d1_comes_d2_or_nothing(self):
        tracker = PathTracker(example1())
        tracker.observe("d1")
        assert tracker.predicted_next() == {"d2"}

    def test_no_second_d1(self):
        # "No additional d1(Y^) queries will occur since the repetition
        # term is <1,1>."
        tracker = PathTracker(example1())
        tracker.observe("d1")
        assert "d1" not in tracker.predicted_next()

    def test_full_run(self):
        tracker = PathTracker(example1())
        for view in ["d1", "d2", "d3", "d2", "d3"]:
            assert tracker.observe(view)

    def test_d3_before_d2_rejected(self):
        tracker = PathTracker(example1())
        tracker.observe("d1")
        assert not tracker.observe("d3")
        assert tracker.lost


class TestExample2:
    def test_after_d1_either_alternative(self):
        # "the query d1 may be followed by either d2(X,c) or d3(X,c)".
        tracker = PathTracker(example2())
        tracker.observe("d1")
        assert tracker.predicted_next() == {"d2", "d3"}

    def test_alternation_repeats(self):
        tracker = PathTracker(example2())
        for view in ["d1", "d3", "d2", "d2", "d3"]:
            assert tracker.observe(view)


class TestExcerpt:
    """The paper's tracking walkthrough."""

    def test_after_d1_predicts_d2_or_d4(self):
        # The paper says "the next query (if any) will involve either d2 or
        # d4"; a repeated d1 is also possible (an iteration may contribute
        # no alternation query), which the paper itself acknowledges one
        # step later ("d1 could be repeated").
        tracker = PathTracker(excerpt())
        tracker.observe("d1")
        assert {"d2", "d4"} <= tracker.predicted_next() <= {"d1", "d2", "d4"}

    def test_after_d1_d2_predicts_d3_or_d1(self):
        tracker = PathTracker(excerpt())
        tracker.observe("d1")
        tracker.observe("d2")
        assert tracker.predicted_next() == {"d3", "d1"}

    def test_after_d3_only_d1(self):
        # "if the next query involves d3 then the query after that (if
        # any) will involve d1 (since the alternation is mutually
        # exclusive)".
        tracker = PathTracker(excerpt())
        for view in ["d1", "d2", "d3"]:
            tracker.observe(view)
        assert tracker.predicted_next() == {"d1"}

    def test_valid_sequences_from_paper(self):
        for sequence in (
            ["d1", "d2", "d3"],
            ["d1", "d4", "d1", "d2", "d3", "d1"],
            ["d1", "d2", "d3", "d1", "d4", "d5"],
        ):
            tracker = PathTracker(excerpt())
            for view in sequence:
                assert tracker.observe(view), sequence

    def test_d1_needed_within_two(self):
        # "Thus, d1 will be required for one of the next two queries" —
        # after observing d1, d2.
        tracker = PathTracker(excerpt())
        tracker.observe("d1")
        tracker.observe("d2")
        assert tracker.distance_to("d1") <= 2


class TestDistance:
    def test_distance_one_for_immediate(self):
        tracker = PathTracker(example1())
        assert tracker.distance_to("d1") == 1

    def test_distance_two_through_sequence(self):
        tracker = PathTracker(example1())
        assert tracker.distance_to("d2") == 2
        assert tracker.distance_to("d3") == 3

    def test_unreachable_view_is_none(self):
        tracker = PathTracker(example1())
        tracker.observe("d1")
        tracker.observe("d2")
        tracker.observe("d3")
        assert tracker.distance_to("d1") is None

    def test_unknown_view_is_none(self):
        assert PathTracker(example1()).distance_to("zzz") is None


class TestLifecycle:
    def test_observe_records_history(self):
        tracker = PathTracker(example1())
        tracker.observe("d1")
        tracker.observe("d2")
        assert tracker.observed == ["d1", "d2"]

    def test_lost_stays_lost(self):
        tracker = PathTracker(example1())
        assert not tracker.observe("d9")
        assert not tracker.observe("d1")
        assert tracker.predicted_next() == set()


class TestBounds:
    def test_bounded_repetition_enforced(self):
        tracker = PathTracker(Sequence((d1,), lower=1, upper=2))
        assert tracker.observe("d1")
        assert tracker.observe("d1")
        assert not tracker.observe("d1")

    def test_lower_bound_zero_allows_skip(self):
        expr = Sequence((Sequence((d1,), lower=0, upper=1), d2))
        tracker = PathTracker(expr)
        assert tracker.predicted_next() == {"d1", "d2"}

    def test_huge_bound_treated_as_unbounded(self):
        tracker = PathTracker(Sequence((d1,), lower=1, upper=10_000))
        for _ in range(50):
            assert tracker.observe("d1")


# -- property test: prediction soundness ------------------------------------------

expressions = st.recursive(
    st.sampled_from([d1, d2, d3]),
    lambda children: st.one_of(
        st.builds(
            lambda els, lo, extra: Sequence(
                tuple(els), lower=lo, upper=max(1, lo + extra)
            ),
            st.lists(children, min_size=1, max_size=3),
            st.integers(0, 2),
            st.integers(0, 2),
        ),
        st.builds(lambda els: Alternation(tuple(els)), st.lists(children, min_size=1, max_size=3)),
    ),
    max_leaves=6,
)


@given(expressions, st.lists(st.sampled_from(["d1", "d2", "d3"]), max_size=8))
def test_observe_only_accepts_predicted(expr, sequence):
    """observe() accepts exactly the views in predicted_next()."""
    tracker = PathTracker(expr)
    for view in sequence:
        predicted = tracker.predicted_next()
        accepted = tracker.observe(view)
        assert accepted == (view in predicted)
        if not accepted:
            break


@given(expressions)
def test_distance_one_iff_predicted(expr):
    tracker = PathTracker(expr)
    for view in ("d1", "d2", "d3"):
        if view in tracker.predicted_next():
            assert tracker.distance_to(view) == 1
