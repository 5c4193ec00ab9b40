"""Canonical JSON, and the span-trace JSONL format: writer, reader, renderer.

Every fingerprinted artifact — traces, telemetry series, experiment
results, fuzz reports and repro files — is written by
:func:`canonical_json`: sorted keys, fixed separators, no
``NaN``/``Infinity``, and nothing derived from wall time or object
identity.  Two same-seed runs therefore export byte-identical artifacts,
and :func:`fingerprint` / :func:`trace_fingerprint` (SHA-256 over that
text) make them comparable with a single string — the same discipline
the server applies to its schedule trace.

The trace format is read back here too: :func:`load_trace` is its one
parser (the profiler and the trace renderer both start from it), and
:func:`render_trace` is what ``python -m repro trace`` prints.
"""

from __future__ import annotations

import hashlib
import json
from collections import defaultdict


def canonical_json(obj) -> str:
    """Canonical JSON: sorted keys, fixed separators, no NaN/Infinity.

    Two structurally equal objects always serialize to the same bytes, so
    SHA-256 over this text is a stable fingerprint across runs and
    machines.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def fingerprint(obj) -> str:
    """SHA-256 hex digest of an object's canonical JSON."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def _json_safe(value: object) -> object:
    """Coerce an attribute value to something JSON can encode canonically."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(str(v) for v in value)
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    return str(value)


def _span_record(span) -> dict:
    return {
        "span": span.span_id,
        "parent": span.parent_id,
        "name": span.name,
        "start": span.start,
        "end": span.end,
        "attributes": {k: _json_safe(v) for k, v in span.attributes.items()},
        "events": [
            {
                "t": event.time,
                "name": event.name,
                "attributes": {k: _json_safe(v) for k, v in event.attributes},
            }
            for event in span.events
        ],
    }


def jsonl_trace(tracer) -> str:
    """The whole trace as JSON Lines: one span per line (opening order),
    then any orphan events.  Ends with a newline when non-empty."""
    lines = [canonical_json(_span_record(span)) for span in tracer.spans]
    for event in tracer.orphan_events:
        lines.append(
            canonical_json(
                {
                    "event": event.name,
                    "t": event.time,
                    "attributes": {k: _json_safe(v) for k, v in event.attributes},
                }
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")


def trace_fingerprint(tracer) -> str:
    """SHA-256 over the canonical JSONL export.

    Same-seed runs must produce equal fingerprints; a mismatch means the
    runs diverged somewhere, and the JSONL diff says exactly where.
    """
    return hashlib.sha256(jsonl_trace(tracer).encode()).hexdigest()


# -- reading a trace back -------------------------------------------------------
def load_trace(text: str) -> tuple[list[dict], list[dict]]:
    """Split a JSONL trace into span records and orphan-event records.

    Raises ``ValueError`` on a line that is not JSON or is neither a span
    nor an event record.
    """
    spans: list[dict] = []
    orphans: list[dict] = []
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            raise ValueError(f"line {number}: not valid JSON ({error})") from None
        if isinstance(record, dict) and "span" in record:
            spans.append(record)
        elif isinstance(record, dict) and "event" in record:
            orphans.append(record)
        else:
            raise ValueError(f"line {number}: neither a span nor an event record")
    return spans, orphans


def _format_attributes(attributes: dict) -> str:
    parts = []
    for key in sorted(attributes):
        value = attributes[key]
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        parts.append(f"{key}={value}")
    return " ".join(parts)


def _format_span(span: dict) -> str:
    start = span.get("start", 0.0)
    end = span.get("end")
    duration = f"{end - start:.6f}s" if end is not None else "unfinished"
    attributes = _format_attributes(span.get("attributes", {}))
    suffix = f"  {attributes}" if attributes else ""
    return f"[{start:.6f} +{duration}] {span['name']}{suffix}"


def _format_event(event: dict) -> str:
    attributes = _format_attributes(event.get("attributes", {}))
    suffix = f"  {attributes}" if attributes else ""
    name = event.get("name") or event.get("event")
    return f"* {event['t']:.6f} {name}{suffix}"


def render_tree(
    spans: list[dict], orphans: list[dict], show_events: bool = False
) -> list[str]:
    """The span forest as indented lines (opening order, children nested).

    A span is a root when its parent is null *or* absent from the trace —
    a truncated or filtered trace must still render every span it holds
    rather than silently dropping orphaned subtrees.
    """
    children: dict[object, list[dict]] = defaultdict(list)
    span_ids = {span["span"] for span in spans}
    roots: list[dict] = []
    for span in spans:
        parent = span.get("parent")
        if parent is None or parent not in span_ids:
            roots.append(span)
        else:
            children[parent].append(span)

    lines: list[str] = []

    def emit(span: dict, depth: int) -> None:
        indent = "  " * depth
        lines.append(f"{indent}{_format_span(span)}")
        if show_events:
            for event in span.get("events", []):
                lines.append(f"{indent}  {_format_event(event)}")
        for child in children.get(span["span"], []):
            emit(child, depth + 1)

    for root in roots:
        emit(root, 0)
    if orphans and show_events:
        lines.append("orphan events:")
        for event in orphans:
            lines.append(f"  {_format_event(event)}")
    return lines


def summarize(spans: list[dict], orphans: list[dict]) -> list[str]:
    """Per-span-name counts and total simulated duration, widest first."""
    totals: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    event_counts: dict[str, int] = defaultdict(int)
    for span in spans:
        counts[span["name"]] += 1
        end = span.get("end")
        if end is not None:
            totals[span["name"]] += end - span.get("start", 0.0)
        for event in span.get("events", []):
            event_counts[event["name"]] += 1
    for event in orphans:
        event_counts[event["event"]] += 1

    lines = ["summary (by span name):"]
    width = max((len(name) for name in counts), default=4)
    for name in sorted(counts, key=lambda n: (-totals[n], n)):
        lines.append(
            f"  {name.ljust(width)}  count={counts[name]:<5d} "
            f"total_sim={totals[name]:.6f}s"
        )
    if event_counts:
        lines.append("events (by name):")
        width = max(len(name) for name in event_counts)
        for name in sorted(event_counts, key=lambda n: (-event_counts[n], n)):
            lines.append(f"  {name.ljust(width)}  count={event_counts[name]}")
    return lines


def render_trace(text: str, show_events: bool = False) -> str:
    """A JSONL trace as text: a header, the span tree, and a summary."""
    spans, orphans = load_trace(text)
    if not spans and not orphans:
        return "(empty trace)"
    finished = [s for s in spans if s.get("end") is not None]
    horizon = max((s["end"] for s in finished), default=0.0)
    lines = [
        f"spans={len(spans)} orphan_events={len(orphans)} "
        f"horizon={horizon:.6f}s (simulated)",
        "",
    ]
    lines.extend(render_tree(spans, orphans, show_events=show_events))
    lines.append("")
    lines.extend(summarize(spans, orphans))
    return "\n".join(lines)
