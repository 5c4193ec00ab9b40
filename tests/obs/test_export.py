"""Trace exporters: canonical JSONL, fingerprints, Chrome trace format;
and the committed E-series artifacts they write."""

import hashlib
import json
import pathlib
import re

import pytest

from repro.common.clock import SimClock
from repro.obs import Tracer, jsonl_trace, trace_fingerprint
from repro.obs.export import canonical_json

RESULTS = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "results"
RESULT_FILES = sorted(RESULTS.glob("E*.json"))
#: What one experiment may write: its table, its data, a trace, a telemetry series.
ARTIFACT = re.compile(r"E\d+\.(txt|json|trace\.jsonl|telemetry\.jsonl)")


def sample_tracer() -> Tracer:
    tracer = Tracer(SimClock())
    with tracer.span("cms.query", view="q1", session="alice"):
        tracer.clock.advance(0.5)
        tracer.event("stream.ready", rows=3)
        with tracer.span("rdi.fetch", session="alice"):
            tracer.clock.advance(0.25)
    tracer.event("stray", n=1)
    return tracer


class TestJsonl:
    def test_one_record_per_span_then_orphans(self):
        lines = jsonl_trace(sample_tracer()).splitlines()
        assert len(lines) == 3
        first, second, third = (json.loads(line) for line in lines)
        assert first["name"] == "cms.query"
        assert second["name"] == "rdi.fetch"
        assert second["parent"] == first["span"]
        assert third == {"event": "stray", "t": 0.75, "attributes": {"n": 1}}

    def test_span_record_shape(self):
        record = json.loads(jsonl_trace(sample_tracer()).splitlines()[0])
        assert record["span"] == 1
        assert record["parent"] is None
        assert record["start"] == 0.0
        assert record["end"] == 0.75
        assert record["attributes"] == {"session": "alice", "view": "q1"}
        assert record["events"] == [
            {"t": 0.5, "name": "stream.ready", "attributes": {"rows": 3}}
        ]

    def test_output_is_canonical_json(self):
        for line in jsonl_trace(sample_tracer()).splitlines():
            record = json.loads(line)
            assert line == json.dumps(
                record, sort_keys=True, separators=(",", ":")
            )

    def test_empty_tracer_exports_empty_string(self):
        assert jsonl_trace(Tracer(SimClock())) == ""

    def test_nonempty_export_ends_with_newline(self):
        assert jsonl_trace(sample_tracer()).endswith("\n")

    def test_non_json_attribute_values_are_coerced(self):
        tracer = Tracer(SimClock())
        with tracer.span("s", names={"b", "a"}, obj=object()) as span:
            span.set("pair", ("x", 1))
        record = json.loads(jsonl_trace(tracer))
        assert record["attributes"]["names"] == ["a", "b"]
        assert record["attributes"]["pair"] == ["x", 1]
        assert isinstance(record["attributes"]["obj"], str)


class TestFingerprint:
    def test_fingerprint_is_sha256_of_the_jsonl(self):
        tracer = sample_tracer()
        expected = hashlib.sha256(jsonl_trace(tracer).encode()).hexdigest()
        assert trace_fingerprint(tracer) == expected
        assert tracer.fingerprint() == expected

    def test_identical_traces_have_equal_fingerprints(self):
        assert trace_fingerprint(sample_tracer()) == trace_fingerprint(
            sample_tracer()
        )

    def test_any_difference_changes_the_fingerprint(self):
        tracer = sample_tracer()
        other = sample_tracer()
        other.spans[0].set("extra", True)
        assert trace_fingerprint(tracer) != trace_fingerprint(other)


def _names(node):
    """Every dict key and table header in a result document."""
    if isinstance(node, dict):
        yield from node
        yield from node.get("headers", [])
        for value in node.values():
            yield from _names(value)
    elif isinstance(node, list):
        for item in node:
            yield from _names(item)


class TestCommittedResults:
    """The committed ``benchmarks/results`` are the E-series' only pin: a
    clean-slate regeneration must reproduce them byte for byte, so each
    must be a canonical, deterministic, per-experiment artifact."""

    def test_the_results_are_there(self):
        assert len(RESULT_FILES) >= 20

    @pytest.mark.parametrize("path", RESULT_FILES, ids=lambda path: path.name)
    def test_result_is_canonical_json(self, path):
        text = path.read_text(encoding="utf-8")
        assert text == canonical_json(json.loads(text)) + "\n"

    @pytest.mark.parametrize("path", RESULT_FILES, ids=lambda path: path.name)
    def test_no_result_names_a_wall_clock_quantity(self, path):
        names = set(_names(json.loads(path.read_text(encoding="utf-8"))))
        assert not {name for name in names if "wall" in str(name).lower()}

    def test_the_directory_holds_only_experiment_artifacts(self):
        strays = sorted(
            path.name for path in RESULTS.iterdir() if not ARTIFACT.fullmatch(path.name)
        )
        assert strays == []
