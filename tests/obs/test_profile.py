"""The trace-driven profiler: exact attribution, phase conservation, and
the committed E19 federation trace as a fixture.

The conservation law under test: attribution partitions each query span's
duration by self-time, so per-query phase sums equal the span duration
*exactly* (float tolerance), nothing double-counted, nothing dropped —
on synthetic traces where the right answer is computable by hand, on a
live traced session, and on the committed ``E19.trace.jsonl`` artifact.
"""

import pathlib

import pytest

from repro.obs.export import load_trace
from repro.obs.profile import PHASES, profile_trace

E19_TRACE = (
    pathlib.Path(__file__).resolve().parents[2]
    / "benchmarks"
    / "results"
    / "E19.trace.jsonl"
)


def span(
    span_id: str,
    name: str,
    start: float,
    end: float | None,
    parent: str | None = None,
    attributes: dict | None = None,
    events: list | None = None,
) -> dict:
    return {
        "span": span_id,
        "name": name,
        "start": start,
        "end": end,
        "parent": parent,
        "attributes": attributes or {},
        "events": events or [],
    }


class TestSyntheticAttribution:
    def test_self_time_partition_by_hand(self):
        spans = [
            span("q", "cms.query", 0.0, 1.0, attributes={"view": "v"}),
            span("p", "planner.plan", 0.0, 0.2, parent="q"),
            span("x", "executor.execute", 0.2, 0.9, parent="q",
                 attributes={"strategy": "hybrid"}),
            span("f", "rdi.fetch", 0.3, 0.8, parent="x"),
        ]
        profile = profile_trace(spans)
        assert len(profile.queries) == 1
        phases = profile.queries[0].phases
        assert phases["plan"] == pytest.approx(0.2)
        assert phases["remote"] == pytest.approx(0.5)
        assert phases["gather"] == pytest.approx(0.2)  # execute minus fetch
        assert phases["compute"] == pytest.approx(0.1)  # query shell
        assert sum(phases.values()) == pytest.approx(1.0)

    def test_retry_backoff_moves_from_remote_to_retry(self):
        spans = [
            span("q", "cms.query", 0.0, 1.0, attributes={"view": "v"}),
            span(
                "f",
                "rdi.fetch",
                0.0,
                1.0,
                parent="q",
                events=[
                    {
                        "name": "rdi.retry",
                        "t": 0.2,
                        "attributes": {"attempt": 1, "backoff_seconds": 0.3},
                    }
                ],
            ),
        ]
        profile = profile_trace(spans)
        phases = profile.queries[0].phases
        assert phases["retry"] == pytest.approx(0.3)
        assert phases["remote"] == pytest.approx(0.7)
        assert sum(phases.values()) == pytest.approx(1.0)

    def test_cache_strategy_execute_is_cache_phase(self):
        spans = [
            span("q", "cms.query", 0.0, 0.5, attributes={"view": "v"}),
            span("x", "executor.execute", 0.0, 0.4, parent="q",
                 attributes={"strategy": "cache-full"}),
        ]
        phases = profile_trace(spans).queries[0].phases
        assert phases["cache"] == pytest.approx(0.4)
        assert phases["compute"] == pytest.approx(0.1)

    def test_an_exact_hit_read_moves_from_compute_to_cache(self):
        # An exact hit opens no executor span: its read is charged inside
        # the query span, and the event says how much of it was the read.
        spans = [
            span("q", "cms.query", 0.0, 0.5, attributes={"view": "v"},
                 events=[{"name": "cms.exact_hit", "t": 0.3,
                          "attributes": {"element": "E1", "canonical": False,
                                         "seconds": 0.3}}]),
        ]
        phases = profile_trace(spans).queries[0].phases
        assert phases["cache"] == pytest.approx(0.3)
        assert phases["compute"] == pytest.approx(0.2)
        assert sum(phases.values()) == pytest.approx(0.5)

    def test_parallel_tracks_attributed_to_dominant_track(self):
        spans = [
            span("q", "cms.query", 0.0, 1.0, attributes={"view": "v"}),
            span(
                "pt",
                "executor.parallel_tracks",
                0.0,
                0.8,
                parent="q",
                attributes={
                    "track.remote": 0.8,
                    "track.local": 0.3,
                    "overlap_saved_seconds": 0.3,
                },
            ),
        ]
        profile = profile_trace(spans)
        phases = profile.queries[0].phases
        assert phases["remote"] == pytest.approx(0.8)
        assert profile.queries[0].overlap_saved == pytest.approx(0.3)

    def test_nested_queries_roll_into_the_top_level_one(self):
        spans = [
            span("q1", "cms.query", 0.0, 1.0, attributes={"view": "outer"}),
            span("q2", "cms.query", 0.2, 0.6, parent="q1",
                 attributes={"view": "inner"}),
        ]
        profile = profile_trace(spans)
        assert [q.view for q in profile.queries] == ["outer"]
        assert sum(profile.queries[0].phases.values()) == pytest.approx(1.0)

    def test_unfinished_spans_are_counted_and_skipped(self):
        spans = [
            span("q", "cms.query", 0.0, None, attributes={"view": "v"}),
            span("q2", "cms.query", 0.0, 0.5, attributes={"view": "w"}),
            span("p", "planner.plan", 0.0, None, parent="q2"),
        ]
        profile = profile_trace(spans)
        assert profile.unfinished == 2
        assert [q.view for q in profile.queries] == ["w"]

    def test_empty_trace_profiles_to_nothing(self):
        profile = profile_trace([])
        assert profile.queries == []
        assert profile.total_seconds == 0.0
        assert "0 queries" in profile.render()


class TestCommittedE19Trace:
    """The committed federation trace is a regression fixture: its
    attribution is stable and conserves every query's duration."""

    @pytest.fixture(scope="class")
    def profile(self):
        return profile_trace(E19_TRACE.read_text())

    def test_every_query_conserves_its_duration(self, profile):
        assert profile.queries
        for query in profile.queries:
            assert sum(query.phases.values()) == pytest.approx(
                query.duration, abs=1e-9
            )

    def test_totals_conserve_the_trace(self, profile):
        assert sum(profile.totals.values()) == pytest.approx(
            profile.total_seconds, abs=1e-9
        )

    def test_federation_trace_is_remote_dominated(self, profile):
        assert profile.totals["remote"] > profile.totals.get("plan", 0.0)
        assert profile.hot_remote  # per-backend remote parts show up as fetched views
        assert profile.hot_tables  # rdi.route events carry the base tables

    def test_queries_match_the_trace_span_count(self, profile):
        spans, _orphans = load_trace(E19_TRACE.read_text())
        top_level = [
            s for s in spans
            if s["name"] == "cms.query" and s.get("parent") is None
        ]
        assert len(profile.queries) == len(top_level)

    def test_json_rendering_is_canonical(self, profile):
        first = profile.to_json()
        second = profile_trace(E19_TRACE.read_text()).to_json()
        assert first == second
        assert '"totals"' in first

    def test_text_rendering_mentions_every_phase_with_time(self, profile):
        text = profile.render(top=3)
        for phase in PHASES:
            if profile.totals.get(phase):
                assert phase in text
