"""The cache model: meta-information about the cache, as a relation.

Section 5.3.2: "The cache model contains information on the cache
elements.  It is a relation of type (E_id_i, E_def_i, ....)".  Section 3:
"the IE can access cache model information from the CMS" — so the model is
exposed as an ordinary relation the IE (or anything else) can query.

The other half of that meta-data is the efficacy ledger every element
keeps: :func:`cache_report` renders it, as the experiments write it to
``benchmarks/results/E*.json``, and :func:`render_lineage` reads it back
and draws its derivation forest (``python -m repro lineage``).
"""

from __future__ import annotations

import json
from collections import defaultdict

from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.core.cache import Cache, CacheElement

CACHE_MODEL_SCHEMA = Schema(
    "cache_model",
    (
        "e_id",        # element identifier
        "e_def",       # definition (rendered PSJ expression)
        "view",        # the view name the definition came from
        "kind",        # "extension" | "generator"
        "rows",        # rows materialized so far
        "bytes",       # estimated size
        "use_count",   # touches since creation
        "uses",        # comma-joined named uses (Section 5.2)
        "pinned",      # 1 when exempt from replacement
        "pin_count",   # active in-flight references
        "epoch",       # cache epoch at which the element was stored
    ),
)


def cache_model(cache: Cache) -> Relation:
    """A point-in-time snapshot of the cache model relation."""
    rows = []
    for element in cache.elements():
        rows.append(
            (
                element.element_id,
                str(element.definition),
                element.view_name,
                "generator" if element.is_generator else "extension",
                element.rows_materialized(),
                element.estimated_bytes(),
                element.use_count,
                ",".join(sorted(element.uses)),
                1 if element.pinned else 0,
                element.pin_count,
                element.epoch,
            )
        )
    return Relation(CACHE_MODEL_SCHEMA, rows)


def cache_statistics(cache: Cache) -> dict[str, float]:
    """Aggregate statistics about the cache (performance meta-data)."""
    elements = cache.elements()
    return {
        "elements": len(elements),
        "generators": sum(1 for e in elements if e.is_generator),
        "extensions": sum(1 for e in elements if not e.is_generator),
        "used_bytes": cache.used_bytes(),
        "capacity_bytes": cache.capacity_bytes,
        "fill_fraction": cache.used_bytes() / cache.capacity_bytes,
        "evictions": cache.eviction_count,
        "total_rows": sum(e.rows_materialized() for e in elements),
    }


def element_report(cache: Cache, element: CacheElement) -> dict:
    """One element's efficacy ledger entry (JSON-friendly)."""
    now = cache.clock.now
    expected = element.advice_expected_reuse
    observed = element.use_count > 0
    return {
        "element": element.element_id,
        "view": element.view_name,
        "kind": element.kind,
        "operator": element.operator,
        "parents": list(element.parents),
        "depth": element.depth,
        "bytes": element.estimated_bytes(),
        "rows": element.rows_materialized(),
        "hits": element.use_count,
        "reuse_frequency": element.reuse_frequency,
        "derivation_seconds": element.derivation_seconds,
        "saved_seconds": element.saved_seconds,
        "created_at": element.created_at,
        "last_used_at": element.last_used_at,
        "age_seconds": max(now - element.created_at, 0.0),
        "idle_seconds": max(now - element.last_used_at, 0.0),
        "advice_expected_reuse": expected,
        "observed_reuse": observed,
        "advice_agrees": None if expected is None else expected == observed,
        "expendable": element.expendable,
        "pinned": element.pinned,
    }


def cache_report(cache: Cache) -> dict:
    """The per-element efficacy ledger plus aggregate totals.

    Deterministic: elements are ordered by store epoch, which is numeric
    id order.  This is the measurement substrate cost-based replacement
    (value = recomputation cost x reuse / bytes) and advice mining need —
    see docs/observability.md.
    """
    entries = [
        element_report(cache, element)
        for element in sorted(cache.elements(), key=lambda e: e.epoch)
    ]
    advised = [e for e in entries if e["advice_expected_reuse"] is not None]
    return {
        "elements": entries,
        "totals": {
            "elements": len(entries),
            "bytes": sum(e["bytes"] for e in entries),
            "hits": sum(e["hits"] for e in entries),
            "derivation_seconds": sum(e["derivation_seconds"] for e in entries),
            "saved_seconds": sum(e["saved_seconds"] for e in entries),
            "evictions": cache.eviction_count,
            "advised": len(advised),
            "advice_correct": sum(1 for e in advised if e["advice_agrees"]),
            "intermediates": sum(1 for e in entries if e["kind"] == "intermediate"),
            "max_depth": max((e["depth"] for e in entries), default=0),
        },
    }


def render_lineage(text: str) -> str:
    """Render a cache report (:func:`cache_report` as JSON) as a derivation
    forest: each element under its first live parent, annotated with kind,
    operator, rows, hits, and value inputs.

    Accepts either the report dict itself or any JSON object with a
    ``cache_report`` key (benchmark result files embed it that way, possibly
    inside a ``results``/``data`` wrapper).  Raises ``ValueError`` when the
    text is not JSON or holds no report.
    """
    payload = json.loads(text)
    if isinstance(payload, dict):
        for wrapper in ("results", "data"):
            inner = payload.get(wrapper)
            if isinstance(inner, dict) and "cache_report" in inner:
                payload = inner
                break
        if "cache_report" in payload:
            payload = payload["cache_report"]
    if not isinstance(payload, dict) or "elements" not in payload:
        raise ValueError("not a cache report: no 'elements' key")

    entries = payload["elements"]
    by_id = {entry["element"]: entry for entry in entries}
    children: dict[str, list[str]] = defaultdict(list)
    roots: list[str] = []
    for entry in entries:
        live_parents = [p for p in entry.get("parents", []) if p in by_id]
        if live_parents:
            # Render under the first live parent; extra parents are noted
            # inline so the DAG (not a tree) stays visible.
            children[live_parents[0]].append(entry["element"])
        else:
            roots.append(entry["element"])

    totals = payload.get("totals", {})
    lines = [
        f"cache lineage: elements={totals.get('elements', len(entries))} "
        f"intermediates={totals.get('intermediates', 0)} "
        f"max_depth={totals.get('max_depth', 0)} "
        f"evictions={totals.get('evictions', 0)}"
    ]

    def describe(entry: dict) -> str:
        label = f"{entry['element']} ({entry.get('view', '?')})"
        if entry.get("kind", "view") == "intermediate":
            label += f" [{entry.get('operator') or 'intermediate'}]"
        label += (
            f" rows={entry.get('rows', 0)} hits={entry.get('hits', 0)}"
            f" derivation={entry.get('derivation_seconds', 0.0):.4f}s"
            f" freq={entry.get('reuse_frequency', 0.0):.2f}"
        )
        extra = [p for p in entry.get("parents", []) if p in by_id][1:]
        if extra:
            label += f" also-from={','.join(extra)}"
        stale = [p for p in entry.get("parents", []) if p not in by_id]
        if stale:
            label += f" evicted-parents={','.join(stale)}"
        return label

    def emit(element_id: str, depth: int) -> None:
        lines.append("  " * depth + "  " + describe(by_id[element_id]))
        for child in children.get(element_id, []):
            emit(child, depth + 1)

    for root in roots:
        emit(root, 0)
    return "\n".join(lines)
