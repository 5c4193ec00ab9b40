"""Trace exporters: JSONL and fingerprints.

Both are **canonical**: attribute keys are sorted, JSON is emitted
with a fixed separator style, and nothing derived from wall time or
object identity is ever written.  Two same-seed runs therefore export
byte-identical traces, and :func:`trace_fingerprint` (SHA-256 over the
JSONL form) makes that comparable with a single string — the same
discipline the server applies to its schedule trace.
"""

from __future__ import annotations

import hashlib
import json


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


def _dumps(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


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
    lines = [_dumps(_span_record(span)) for span in tracer.spans]
    for event in tracer.orphan_events:
        lines.append(
            _dumps(
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
