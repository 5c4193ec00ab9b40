"""Tests for view specifications and binding annotations."""

import pytest

from repro.common.errors import AdviceError
from repro.caql.parser import parse_query
from repro.advice.view_spec import Binding, ViewSpecification, annotate


def d2():
    return parse_query("d2(X, Y) :- b2(X, Z), b3(Z, c2, Y)")


class TestConstruction:
    def test_annotation_count_checked(self):
        with pytest.raises(AdviceError):
            ViewSpecification(d2(), (Binding.PRODUCER,))

    def test_annotate_helper(self):
        view = annotate(d2(), "^?")
        assert view.annotations == (Binding.PRODUCER, Binding.CONSUMER)

    def test_annotate_unknown(self):
        view = annotate(d2(), "^.")
        assert view.annotations[1] is Binding.UNKNOWN

    def test_annotate_bad_char(self):
        with pytest.raises(AdviceError):
            annotate(d2(), "^!")

    def test_constant_position_cannot_be_annotated(self):
        bound = parse_query("d2(X, c6) :- b2(X, Z), b3(Z, c2, c6)")
        with pytest.raises(AdviceError):
            annotate(bound, "^?")
        annotate(bound, "^.")  # unannotated constant is fine

    def test_name_and_arity(self):
        view = annotate(d2(), "^?")
        assert view.name == "d2"
        assert len(view.annotations) == view.definition.arity == 2


class TestAnnotationQueries:
    def test_consumer_positions(self):
        assert annotate(d2(), "^?").consumer_positions() == (1,)

    def test_pure_producer(self):
        assert annotate(d2(), "^^").is_pure_producer()
        assert not annotate(d2(), "^?").is_pure_producer()

    def test_unknown_positions_in_neither(self):
        view = annotate(d2(), "..")
        assert view.consumer_positions() == ()
        assert view.is_pure_producer()


class TestRendering:
    def test_paper_example_form(self):
        # d2(X^, Y?) =def b2(X^, Z) & b3(Z, c2, Y?)  -- Section 4.2.1.
        view = annotate(d2(), "^?", rule_ids=("R2",))
        text = str(view)
        assert text.startswith("d2(X^, Y?) =def ")
        assert "b2(X, Z) & b3(Z, c2, Y)" in text
        assert "(R2)" in text

    def test_rule_ids_optional(self):
        assert "(" not in str(annotate(parse_query("d(X) :- b(X)"), "^")).split("=def")[0].replace("d(X^)", "")
