"""E15 — multi-session serving over a shared concurrent cache.

BrAID's cache is an argument about *workload locality*; this experiment
asks whether that locality survives multi-tenancy.  N clients each issue
a seeded query stream where roughly half the requests come from a shared
hot pool (structurally identical across clients) and the rest are
private.  Two deployments of the identical workload:

* **shared** — one :class:`BraidServer`, one cache, N sessions
  cooperatively scheduled; one client's miss becomes every client's hit;
* **isolated** — N single-session servers with private caches (the
  pre-server architecture, replicated): no cross-client reuse possible.

Measured: cache hit rate (exact + subsumed over all lookups), simulated
time, and the weighted-fair scheduler's max/min per-session mean-latency
ratio.  Determinism is asserted: same seed → byte-identical schedule
trace and per-session results.
"""

from __future__ import annotations

import pytest

from repro.common.metrics import (
    CACHE_HITS_EXACT,
    CACHE_HITS_SUBSUMED,
    CACHE_MISSES,
)
from repro.server import BraidServer, ServerConfig
from repro.workloads.multisession import (
    MultiSessionSpec,
    client_streams,
    submit_interleaved,
)
from repro.workloads.synthetic import selection_universe

from benchmarks.harness import format_table, record, record_trace

CLIENT_SWEEP = [1, 2, 4, 8, 16, 32, 64]
REQUESTS_PER_CLIENT = 6
SEED = 17

TABLES = selection_universe(rows=300, domain=1000, seed=5).tables


def spec_for(clients: int) -> MultiSessionSpec:
    return MultiSessionSpec(
        clients=clients,
        requests_per_client=REQUESTS_PER_CLIENT,
        shared_fraction=0.5,
        hot_pool_size=8,
        private_pool_size=12,
        seed=SEED,
    )


def make_server(
    clients: int, policy: str = "round-robin", tracing: bool = False
) -> BraidServer:
    return BraidServer(
        tables=TABLES,
        config=ServerConfig(
            scheduler_policy=policy,
            scheduler_seed=SEED,
            max_queue_depth=clients * REQUESTS_PER_CLIENT + 16,
            tracing=tracing,
        ),
    )


def hit_rate(metrics) -> float:
    hits = metrics.get(CACHE_HITS_EXACT) + metrics.get(CACHE_HITS_SUBSUMED)
    lookups = hits + metrics.get(CACHE_MISSES)
    return hits / lookups if lookups else 0.0


def run_shared(
    clients: int, policy: str = "round-robin", tracing: bool = False
) -> dict:
    """The whole workload through one server with a shared cache."""
    server = make_server(clients, policy=policy, tracing=tracing)
    streams = client_streams(spec_for(clients))
    for name in streams:
        server.open_session(name)
    submitted = submit_interleaved(server, streams)
    steps = server.run_until_idle()
    completed = sum(len(s.completed) for s in server.sessions.sessions())
    errors = sum(
        1
        for s in server.sessions.sessions()
        for request in s.completed
        if request.error is not None
    )
    fairness = server.fairness_report()
    return {
        "hit_rate": hit_rate(server.metrics),
        "submitted": submitted,
        "completed": completed,
        "errors": errors,
        "steps": steps,
        "simulated_seconds": server.clock.now,
        "fairness_ratio": fairness["max_min_latency_ratio"],
        "schedule_lines": server.schedule_lines(),
        "fingerprint": server.schedule_fingerprint(),
        "results": server.session_results_snapshot(),
        "trace_jsonl": server.trace_jsonl(),
        "trace_fingerprint": server.trace_fingerprint(),
    }


def run_isolated(clients: int) -> dict:
    """The identical workload as N single-session servers (no sharing)."""
    streams = client_streams(spec_for(clients))
    hits = misses = 0.0
    simulated = 0.0
    results = {}
    for name, stream in streams.items():
        server = make_server(clients=1)
        session = server.open_session(name)
        for query in stream:
            server.submit(name, query)
        server.run_until_idle()
        hits += server.metrics.get(CACHE_HITS_EXACT)
        hits += server.metrics.get(CACHE_HITS_SUBSUMED)
        misses += server.metrics.get(CACHE_MISSES)
        simulated += server.clock.now
        results[name] = server.session_results_snapshot()[session.name]
    lookups = hits + misses
    return {
        "hit_rate": hits / lookups if lookups else 0.0,
        "simulated_seconds": simulated,
        "results": results,
    }


@pytest.fixture(scope="module")
def sweep():
    return {
        clients: {
            "shared": run_shared(clients),
            "isolated": run_isolated(clients),
        }
        for clients in CLIENT_SWEEP
    }


@pytest.fixture(scope="module")
def weighted():
    return run_shared(8, policy="weighted-fair")


def test_report(sweep, weighted):
    rows = [
        [
            clients,
            r["shared"]["hit_rate"],
            r["isolated"]["hit_rate"],
            r["shared"]["hit_rate"] - r["isolated"]["hit_rate"],
            r["shared"]["fairness_ratio"],
            r["shared"]["simulated_seconds"],
            r["isolated"]["simulated_seconds"],
        ]
        for clients, r in sweep.items()
    ]
    headers = [
        "clients",
        "shared hit rate",
        "isolated hit rate",
        "lift",
        "fairness max/min",
        "shared sim (s)",
        "isolated sim (s)",
    ]
    record(
        "E15",
        f"multi-session serving, {REQUESTS_PER_CLIENT} requests/client, "
        "50% shared hot pool",
        format_table(headers, rows),
        data={"headers": headers, "rows": rows},
        notes=(
            "Claim: one shared semantic cache turns cross-client repetition "
            "into hits that isolated per-client caches cannot see — the lift "
            "grows with the client count while round-robin keeps per-session "
            f"mean latencies within a small ratio (weighted-fair at 8 clients: "
            f"{weighted['fairness_ratio']:.3f})."
        ),
    )


def test_shared_cache_beats_isolated_caches(sweep):
    for clients, r in sweep.items():
        if clients == 1:
            # One client sees the same cache either way.
            assert r["shared"]["hit_rate"] == pytest.approx(
                r["isolated"]["hit_rate"]
            )
        else:
            assert r["shared"]["hit_rate"] > r["isolated"]["hit_rate"]


def test_all_requests_complete_without_errors(sweep):
    for r in sweep.values():
        shared = r["shared"]
        assert shared["completed"] == shared["submitted"]
        assert shared["errors"] == 0
        # Every request takes exactly one execute and one drain step.
        assert shared["steps"] == 2 * shared["submitted"]


def test_shared_and_isolated_agree_on_answers(sweep):
    # Scheduling and cache sharing must not change any answer: compare
    # (request_id, query, rows) — latencies legitimately differ.
    def strip(rs):
        return [(i, q, rows) for i, q, _, _, _, rows in rs]

    for r in sweep.values():
        shared = r["shared"]["results"]
        isolated = r["isolated"]["results"]
        assert shared.keys() == isolated.keys()
        for name in shared:
            assert sorted(strip(shared[name])) == sorted(strip(isolated[name]))


def test_fairness_ratio_is_bounded(sweep, weighted):
    for r in sweep.values():
        assert r["shared"]["fairness_ratio"] <= 3.0
    assert weighted["fairness_ratio"] <= 3.0


def test_same_seed_is_byte_identical(sweep, weighted):
    again = run_shared(8)
    assert again["schedule_lines"] == sweep[8]["shared"]["schedule_lines"]
    assert again["fingerprint"] == sweep[8]["shared"]["fingerprint"]
    assert again["results"] == sweep[8]["shared"]["results"]
    weighted_again = run_shared(8, policy="weighted-fair")
    assert weighted_again["fingerprint"] == weighted["fingerprint"]
    assert weighted_again["results"] == weighted["results"]


@pytest.fixture(scope="module")
def traced():
    return run_shared(8, tracing=True)


def test_traced_runs_are_byte_identical(traced):
    """Same-seed traced server runs export byte-identical span traces."""
    again = run_shared(8, tracing=True)
    assert again["trace_jsonl"] == traced["trace_jsonl"]
    assert again["trace_fingerprint"] == traced["trace_fingerprint"]
    record_trace("E15", traced["trace_jsonl"])


def test_trace_scopes_spans_per_session(traced):
    jsonl = traced["trace_jsonl"]
    assert '"server.step"' in jsonl
    for name in ("c00", "c07"):
        assert f'"session":"{name}"' in jsonl


def test_tracing_does_not_change_the_schedule(sweep, traced):
    """The span trace observes the run; it must not perturb it."""
    baseline = sweep[8]["shared"]
    assert traced["schedule_lines"] == baseline["schedule_lines"]
    assert traced["fingerprint"] == baseline["fingerprint"]
    assert traced["results"] == baseline["results"]
    assert traced["simulated_seconds"] == baseline["simulated_seconds"]
