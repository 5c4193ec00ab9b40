"""Tracer mechanics: nesting, simulated timestamps, events, opt-out."""

from repro.common.clock import SimClock
from repro.obs import Tracer


def make_tracer() -> Tracer:
    return Tracer(SimClock())


class TestSpans:
    def test_span_stamps_simulated_time(self):
        tracer = make_tracer()
        tracer.clock.advance(1.5)
        with tracer.span("work") as span:
            tracer.clock.advance(0.5)
        assert span.start == 1.5
        assert span.end == 2.0

    def test_spans_never_advance_the_clock(self):
        tracer = make_tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert tracer.clock.now == 0.0

    def test_nesting_follows_the_span_stack(self):
        tracer = make_tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None

    def test_sibling_spans_share_a_parent(self):
        tracer = make_tracer()
        with tracer.span("outer") as outer:
            with tracer.span("a") as a:
                pass
            with tracer.span("b") as b:
                pass
        assert a.parent_id == outer.span_id
        assert b.parent_id == outer.span_id

    def test_span_ids_are_sequential_from_one(self):
        tracer = make_tracer()
        with tracer.span("a") as a:
            pass
        with tracer.span("b") as b:
            pass
        assert (a.span_id, b.span_id) == (1, 2)

    def test_spans_recorded_in_opening_order(self):
        tracer = make_tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert [span.name for span in tracer.spans] == ["outer", "inner"]

    def test_attributes_via_kwargs_and_set(self):
        tracer = make_tracer()
        with tracer.span("work", view="q1") as span:
            span.set("rows", 7)
        assert span.attributes == {"view": "q1", "rows": 7}

    def test_exception_closes_the_span_and_marks_error(self):
        tracer = make_tracer()
        try:
            with tracer.span("work") as span:
                raise ValueError("boom")
        except ValueError:
            pass
        assert span.end is not None
        assert span.attributes["error"] == "ValueError"
        with tracer.span("after") as after:
            pass
        assert after.parent_id is None  # the failed span left the stack


class TestEvents:
    def test_event_lands_on_the_open_span(self):
        tracer = make_tracer()
        with tracer.span("work") as span:
            tracer.clock.advance(0.25)
            tracer.event("tick", n=1)
        assert len(span.events) == 1
        event = span.events[0]
        assert event.name == "tick"
        assert event.time == 0.25
        assert dict(event.attributes) == {"n": 1}

    def test_event_without_open_span_is_an_orphan(self):
        tracer = make_tracer()
        tracer.event("stray")
        assert not tracer.spans
        assert [event.name for event in tracer.orphan_events] == ["stray"]

    def test_event_attribute_order_is_canonical(self):
        tracer = make_tracer()
        tracer.event("e", b=2, a=1)
        assert tracer.orphan_events[0].attributes == (("a", 1), ("b", 2))


class TestDisabled:
    def test_disabled_is_a_shared_singleton(self):
        assert Tracer.disabled() is Tracer.disabled()

    def test_disabled_records_nothing(self):
        tracer = Tracer.disabled()
        with tracer.span("work", view="q") as span:
            span.set("k", "v")
            span.event("e")
            tracer.event("f")
        assert tracer.spans == ()
        assert tracer.orphan_events == ()
        assert tracer.to_jsonl() == ""

    def test_disabled_span_supports_the_full_surface(self):
        span = Tracer.disabled().span("x")
        assert span.set("a", 1) is span
        assert span.attributes == {}
        assert span.events == ()

    def test_enabled_flags(self):
        assert Tracer(SimClock()).enabled
        assert not Tracer.disabled().enabled
