"""E16 — observability overhead and trace determinism.

The tracing layer's contract is twofold:

* **zero simulated impact** — spans are stamped with simulated time but
  never advance the clock or touch the metrics ledger, so a traced run
  and an untraced run of the same seeded workload produce *identical*
  simulated totals and metrics snapshots;
* **nothing recorded when disabled** — :meth:`Tracer.disabled` turns
  every hook into a no-op on a shared singleton, so the default
  (untraced) path records no spans.

Both are asserted here on the E2 caching workload (a seeded
repeated-selection stream against the genealogy database).  Determinism
is asserted too: two same-seed traced runs export byte-identical JSONL
with matching SHA-256 fingerprints.  So is conservation: the
trace-driven profiler partitions each query's simulated time into phases
by self-time, so a query's phases sum to its span duration exactly, and
— the clock moving only inside ``cms.query`` in this sequential session —
the profile total is the run's simulated seconds.  What tracing costs in
wall time is measured by ``benchmarks/wall``
(``obs.tracer_overhead_ratio``), not here.
"""

from __future__ import annotations

import pytest

from repro.core.cms import CacheManagementSystem
from repro.obs import Tracer, profile_trace
from repro.remote.server import RemoteDBMS
from repro.workloads.genealogy import genealogy
from repro.workloads.queries import StreamSpec, repeated_selection_stream

from benchmarks.harness import format_table, record, record_trace

LENGTH = 60
REPETITION = 0.6


def stream():
    people = [f"p{i}" for i in range(22)]
    return list(
        repeated_selection_stream(
            "q(Y) :- parent($C, Y)", people, StreamSpec(LENGTH, REPETITION, seed=7)
        )
    )


def run_session(traced: bool) -> dict:
    """One seeded E2-style CMS session, with or without tracing."""
    server = RemoteDBMS()
    if traced:
        server.tracer = Tracer(server.clock)
    for table in genealogy(seed=23).tables:
        server.load_table(table)
    cms = CacheManagementSystem(server)
    cms.begin_session()
    for query in stream():
        cms.query(query).fetch_all()
    return {
        "snapshot": server.metrics.snapshot(),
        "simulated_seconds": server.clock.now,
        "spans": len(cms.tracer.spans),
        "trace_jsonl": cms.tracer.to_jsonl(),
        "fingerprint": cms.tracer.fingerprint(),
    }


@pytest.fixture(scope="module")
def untraced():
    return run_session(traced=False)


@pytest.fixture(scope="module")
def traced():
    return run_session(traced=True)


def test_report(untraced, traced):
    rows = [
        ["untraced", untraced["spans"], untraced["simulated_seconds"]],
        ["traced", traced["spans"], traced["simulated_seconds"]],
    ]
    headers = ["mode", "spans", "sim time (s)"]
    record(
        "E16",
        f"observability overhead, {LENGTH}-query E2-style stream",
        format_table(headers, rows),
        data={"headers": headers, "rows": rows},
        notes=(
            "Claim: tracing reads the clock but never advances it, so "
            "simulated totals and every metrics counter are identical with "
            "tracing on or off; the disabled tracer records nothing and "
            "its hooks are no-ops on a shared singleton."
        ),
    )
    record_trace("E16", traced["trace_jsonl"])


def test_tracing_does_not_change_simulated_totals(untraced, traced):
    assert traced["simulated_seconds"] == untraced["simulated_seconds"]
    assert traced["snapshot"] == untraced["snapshot"]


def test_disabled_tracer_records_nothing(untraced):
    assert untraced["spans"] == 0
    assert untraced["trace_jsonl"] == ""


def test_traced_run_records_the_full_lifecycle(traced):
    assert traced["spans"] > 0
    jsonl = traced["trace_jsonl"]
    for name in ("cms.query", "planner.plan", "executor.execute", "rdi.fetch"):
        assert f'"{name}"' in jsonl


def test_same_seed_traces_are_byte_identical(traced):
    again = run_session(traced=True)
    assert again["trace_jsonl"] == traced["trace_jsonl"]
    assert again["fingerprint"] == traced["fingerprint"]


# -- the profiler -------------------------------------------------------------------
def test_profiler_phases_sum_to_query_durations(traced):
    profile = profile_trace(traced["trace_jsonl"])
    assert len(profile.queries) == LENGTH
    for query in profile.queries:
        assert sum(query.phases.values()) == pytest.approx(
            query.duration, abs=1e-9
        )


def test_profiler_total_is_the_simulated_run(traced):
    profile = profile_trace(traced["trace_jsonl"])
    assert profile.total_seconds == pytest.approx(
        traced["simulated_seconds"], abs=1e-9
    )
