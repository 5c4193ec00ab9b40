"""The cache model: meta-information about the cache, as a relation.

Section 5.3.2: "The cache model contains information on the cache
elements.  It is a relation of type (E_id_i, E_def_i, ....)".  Section 3:
"the IE can access cache model information from the CMS" — so the model is
exposed as an ordinary relation the IE (or anything else) can query.

The other half of that meta-data is the efficacy ledger every element
keeps: :func:`cache_report` renders it, as the experiments write it to
``benchmarks/results/E*.json``.
"""

from __future__ import annotations

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
        },
    }
