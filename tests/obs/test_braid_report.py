"""The trace renderer behind ``python -m repro trace``: root detection on
truncated traces and zero-span tolerance."""

import json

from repro.obs.export import load_trace, render_trace, render_tree


def span_line(span_id, name, start, end, parent=None) -> str:
    return json.dumps(
        {
            "span": span_id,
            "name": name,
            "start": start,
            "end": end,
            "parent": parent,
            "attributes": {},
            "events": [],
        }
    )


class TestRootDetection:
    def test_orphaned_subtrees_still_render(self):
        # The parent span was filtered/truncated out of the trace: its
        # children must render as roots, not vanish.
        text = "\n".join(
            [
                span_line("a", "cms.query", 0.0, 1.0, parent="gone"),
                span_line("b", "planner.plan", 0.0, 0.2, parent="a"),
            ]
        )
        rendered = render_trace(text)
        assert "cms.query" in rendered
        assert "planner.plan" in rendered
        lines = render_tree(*load_trace(text))
        assert lines[0].startswith("[")  # the orphan renders at depth 0
        assert lines[1].startswith("  ")  # ...with its child nested

    def test_null_parent_spans_stay_roots(self):
        text = span_line("a", "cms.query", 0.0, 1.0, parent=None)
        lines = render_tree(*load_trace(text))
        assert len(lines) == 1

    def test_empty_trace_is_tolerated(self):
        assert render_trace("") == "(empty trace)"
        assert render_trace("\n\n") == "(empty trace)"

