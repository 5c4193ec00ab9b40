"""E20 — continuous telemetry, the profiler, and SLO windows.

PR 8's observability layer extends E16's contract from tracing to the
whole telemetry stack:

* **zero simulated impact** — the :class:`~repro.obs.MetricsSampler` is
  read-only over the metrics ledger and the SLO monitor never advances
  the clock, so a sampled run and an unsampled run of the same seeded
  workload produce identical simulated totals, schedule fingerprints,
  and trace fingerprints;
* **determinism** — two same-seed sampled runs export byte-identical
  telemetry JSONL with matching SHA-256 fingerprints;
* **conservation** — the trace-driven profiler partitions each query's
  simulated time into phases by self-time, so a query's phases sum to
  its span duration exactly, and the profile total matches the
  ``cms.query_sim_seconds`` histogram the executor keeps independently.

The workload is the E15/E16 idiom: a seeded multi-session server stream
against the synthetic selection universe.
"""

from __future__ import annotations

import pytest

from repro.caql.parser import parse_query
from repro.common.metrics import H_QUERY_SIM_SECONDS, SLO_BREACHES
from repro.obs import load_series, profile_trace
from repro.obs.slo import SLOPolicy
from repro.server import BraidServer, ServerConfig
from repro.workloads.synthetic import selection_universe

from benchmarks.harness import format_table, record, record_trace

TABLES = selection_universe(rows=80, domain=120, seed=11).tables
SESSIONS = ("alice", "bob")
QUERIES_PER_SESSION = 6
TELEMETRY_INTERVAL = 0.05
#: Deliberately unreachable p99 target, to provoke breaches.
TIGHT_SLO = SLOPolicy(p99_seconds=1e-4, window_seconds=100.0, min_samples=2)


def queries(tag: str):
    return [
        parse_query(f"{tag}{i}(I, V) :- item(I, cat{i % 3}, V), V >= {10 * i}")
        for i in range(QUERIES_PER_SESSION)
    ]


def run_server(
    telemetry: float | None = None,
    slo: SLOPolicy | None = None,
    tracing: bool = False,
) -> dict:
    server = BraidServer(
        tables=TABLES,
        config=ServerConfig(
            scheduler_seed=3,
            tracing=tracing,
            telemetry_interval=telemetry,
            slo=slo,
        ),
    )
    for name in SESSIONS:
        server.open_session(name)
    for name in SESSIONS:
        for query in queries(f"q_{name}_"):
            server.submit(name, query)
    server.run_until_idle()
    histogram = server.metrics.histograms.get(H_QUERY_SIM_SECONDS)
    return {
        "server": server,
        "simulated_seconds": server.clock.now,
        "snapshot": server.metrics.snapshot(),
        "schedule_fingerprint": server.schedule_fingerprint(),
        "trace_jsonl": server.trace_jsonl(),
        "trace_fingerprint": server.trace_fingerprint(),
        "telemetry_jsonl": server.telemetry_jsonl(),
        "telemetry_fingerprint": server.telemetry_fingerprint(),
        "samples": len(server.telemetry.samples) if server.telemetry else 0,
        "query_seconds_total": (
            sum(histogram.values) if histogram is not None else 0.0
        ),
        "slo_report": server.slo_report(),
    }


@pytest.fixture(scope="module")
def plain():
    return run_server()


@pytest.fixture(scope="module")
def sampled():
    return run_server(telemetry=TELEMETRY_INTERVAL)


@pytest.fixture(scope="module")
def traced_sampled():
    return run_server(telemetry=TELEMETRY_INTERVAL, tracing=True)


@pytest.fixture(scope="module")
def slo_run():
    return run_server(telemetry=TELEMETRY_INTERVAL, slo=TIGHT_SLO, tracing=True)


def test_report(plain, sampled, traced_sampled, slo_run):
    profile = profile_trace(traced_sampled["trace_jsonl"])
    rows = [
        ["plain", 0, plain["simulated_seconds"], 0],
        ["sampled", sampled["samples"], sampled["simulated_seconds"], 0],
        [
            "sampled+slo",
            slo_run["samples"],
            slo_run["simulated_seconds"],
            int(slo_run["snapshot"].get(SLO_BREACHES, 0)),
        ],
    ]
    headers = ["mode", "samples", "sim time (s)", "slo breaches"]
    record(
        "E20",
        f"continuous telemetry, {len(SESSIONS)}x{QUERIES_PER_SESSION}-query "
        "server stream",
        format_table(headers, rows),
        data={
            "headers": headers,
            "rows": rows,
            "phase_totals": {
                phase: round(seconds, 9)
                for phase, seconds in sorted(profile.totals.items())
            },
            "profiled_queries": len(profile.queries),
        },
        notes=(
            "Claim: the sampler reads the ledger on fixed simulated-time "
            "cadence but never advances the clock, so simulated totals, "
            "schedule fingerprints, and trace fingerprints are identical "
            "with telemetry on or off; same-seed telemetry series are "
            "byte-identical; the profiler's per-query phase self-times "
            "sum exactly to each query's span duration."
        ),
        telemetry=sampled["telemetry_jsonl"],
    )
    record_trace("E20", traced_sampled["trace_jsonl"])


# -- zero simulated impact ----------------------------------------------------------
def test_telemetry_off_means_zero_overhead(plain, sampled):
    assert sampled["simulated_seconds"] == plain["simulated_seconds"]
    assert sampled["snapshot"] == plain["snapshot"]
    assert sampled["schedule_fingerprint"] == plain["schedule_fingerprint"]


def test_telemetry_does_not_perturb_the_trace(traced_sampled):
    traced_plain = run_server(tracing=True)
    assert (
        traced_sampled["trace_fingerprint"] == traced_plain["trace_fingerprint"]
    )
    assert traced_sampled["trace_jsonl"] == traced_plain["trace_jsonl"]


# -- determinism --------------------------------------------------------------------
def test_same_seed_telemetry_is_byte_identical(sampled):
    again = run_server(telemetry=TELEMETRY_INTERVAL)
    assert again["telemetry_jsonl"] == sampled["telemetry_jsonl"]
    assert again["telemetry_fingerprint"] == sampled["telemetry_fingerprint"]
    assert sampled["telemetry_jsonl"]  # non-empty: sampling actually ran


def test_telemetry_series_round_trips(sampled):
    header, samples = load_series(sampled["telemetry_jsonl"])
    assert header["interval"] == TELEMETRY_INTERVAL
    assert len(samples) == sampled["samples"] > 0
    # Sample deltas telescope back to the final counters for every
    # counter the series saw (gauges are level-sampled, not deltas).
    totals: dict[str, float] = {}
    for sample in samples:
        for name, delta in sample.deltas.items():
            totals[name] = totals.get(name, 0.0) + delta
    final = sampled["snapshot"]
    for name, total in totals.items():
        assert total <= final[name] + 1e-9


# -- the profiler -------------------------------------------------------------------
def test_profiler_phases_sum_to_query_durations(traced_sampled):
    profile = profile_trace(traced_sampled["trace_jsonl"])
    assert len(profile.queries) == len(SESSIONS) * QUERIES_PER_SESSION
    for query in profile.queries:
        assert sum(query.phases.values()) == pytest.approx(
            query.duration, abs=1e-9
        )


def test_profiler_total_matches_the_ledger(traced_sampled):
    profile = profile_trace(traced_sampled["trace_jsonl"])
    assert profile.total_seconds == pytest.approx(
        traced_sampled["query_seconds_total"], abs=1e-9
    )


# -- SLO windows --------------------------------------------------------------------
def test_tight_slo_breaches_and_traces(slo_run):
    assert slo_run["snapshot"].get(SLO_BREACHES, 0) >= len(SESSIONS)
    assert '"slo.breach"' in slo_run["trace_jsonl"]
    for name in SESSIONS:
        assert slo_run["slo_report"][name]["breach_p99"] is True


def test_slo_only_adds_its_own_counters(plain, slo_run):
    stripped = {
        name: value
        for name, value in slo_run["snapshot"].items()
        if name != SLO_BREACHES
    }
    assert stripped == plain["snapshot"]
    assert slo_run["simulated_seconds"] == plain["simulated_seconds"]
