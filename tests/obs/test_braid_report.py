"""The trace and telemetry renderers behind ``python -m repro trace`` and
``python -m repro metrics``: root detection on truncated traces, zero-span
tolerance, and the telemetry rendering."""

import json

import pytest

from repro.__main__ import main
from repro.obs.export import load_trace, render_trace, render_tree
from repro.obs.telemetry import render_series


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


class TestMetricsRendering:
    def series(self) -> str:
        header = {
            "series": "telemetry",
            "version": 1,
            "interval": 0.5,
            "scope": "",
        }
        sample = {
            "sample": 0,
            "t": 0.5,
            "due": 0.5,
            "label": "",
            "deltas": {"remote.requests": 3},
            "gauges": {"server.queue_depth_high_water": 2},
            "histograms": {
                "cms.query_sim_seconds": {
                    "count": 3,
                    "p50": 0.1,
                    "p99": 0.2,
                    "max": 0.2,
                }
            },
            "scopes": {"alice": {"deltas": {"remote.requests": 2}, "gauges": {}}},
        }
        return json.dumps(header) + "\n" + json.dumps(sample) + "\n"

    def test_renders_deltas_gauges_scopes_and_histograms(self):
        text = render_series(self.series())
        assert "interval=0.5s" in text
        assert "remote.requests" in text
        assert "server.queue_depth_high_water" in text
        assert "scope alice" in text
        assert "cms.query_sim_seconds" in text
        assert "p99=0.200000" in text

    def test_rejects_non_telemetry_input(self):
        with pytest.raises(ValueError):
            render_series('{"not": "telemetry"}\n')

    def test_empty_series_is_tolerated(self):
        assert render_series("") == "(empty telemetry series)"

    def test_cli_metrics_mode(self, tmp_path, capsys):
        path = tmp_path / "series.telemetry.jsonl"
        path.write_text(self.series())
        assert main(["metrics", str(path)]) == 0
        out = capsys.readouterr().out
        assert "remote.requests" in out

    def test_cli_metrics_mode_missing_file(self, capsys):
        assert main(["metrics", "/nonexistent/x.jsonl"]) == 2
