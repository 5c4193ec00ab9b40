"""Shared helpers for the experiment benchmarks.

Each ``bench_e*.py`` module reproduces one experiment from DESIGN.md's
per-experiment index.  Experiments report **simulated metrics** (remote
requests, tuples shipped, simulated response time): the deterministic
quantities the paper's cost model is about.  They are asserted on ("who
wins") and written to ``benchmarks/results/<experiment>.txt`` and
``.json``, byte-identical across same-seed runs, so the committed copies
pin them.  Wall-clock cost is measured by ``benchmarks/wall`` alone.
"""

from __future__ import annotations

import pathlib

from repro.caql.ast import CAQLQuery
from repro.obs.export import canonical_json

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"


def run_queries(bridge, queries: list[CAQLQuery], advice=None) -> dict[str, float]:
    """Run a query session against a bridge; returns the cost summary."""
    clock_before = bridge.clock.now
    metrics_before = bridge.metrics.snapshot()
    bridge.begin_session(advice)
    for query in queries:
        bridge.query(query).fetch_all()
    delta = bridge.metrics.diff(metrics_before)
    return {
        "simulated_seconds": bridge.clock.now - clock_before,
        "remote_requests": delta.get("remote.requests", 0),
        "tuples_shipped": delta.get("remote.tuples_shipped", 0),
        "exact_hits": delta.get("cache.hits.exact", 0),
        "subsumed_hits": delta.get("cache.hits.subsumed", 0),
        "misses": delta.get("cache.misses", 0),
        "prefetches": delta.get("cache.prefetches", 0),
        "generalizations": delta.get("cache.generalizations", 0),
    }


def format_table(headers: list[str], rows: list[list]) -> str:
    """Fixed-width table rendering for experiment reports."""
    cells = [[_fmt(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def record(
    experiment: str,
    title: str,
    table: str,
    notes: str = "",
    data: dict | None = None,
) -> None:
    """Persist an experiment's table and print it (visible with -s).

    ``data`` is the machine-readable form of the same results: it is
    written by :func:`repro.obs.export.canonical_json` (byte-identical
    across same-seed runs) to ``results/<experiment>.json``.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    body = f"{experiment}: {title}\n\n{table}\n"
    if notes:
        body += f"\n{notes}\n"
    (RESULTS_DIR / f"{experiment}.txt").write_text(body)
    if data is not None:
        document = {"experiment": experiment, "title": title, "results": data}
        (RESULTS_DIR / f"{experiment}.json").write_text(canonical_json(document) + "\n")
    print(f"\n{body}")


def record_trace(experiment: str, trace_jsonl: str) -> pathlib.Path:
    """Persist an experiment's span trace as ``results/<experiment>.trace.jsonl``.

    The JSONL comes from :meth:`repro.obs.Tracer.to_jsonl` and is canonical
    (sorted keys, fixed separators), so the artifact is byte-identical
    across same-seed runs — diffing two of them is a regression test, and
    ``python -m repro trace`` renders them as a span tree.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{experiment}.trace.jsonl"
    path.write_text(trace_jsonl)
    return path
