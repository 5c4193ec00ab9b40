"""E14 — fault tolerance of the workstation–server link.

The paper assumes the remote DBMS is "an independent system component"
reached over a real network; this experiment measures what the bridge does
when that link misbehaves.  Two scenarios:

* **fault-rate sweep** — every remote request fails (transiently) with
  probability p; the resilient RDI retries with backoff, so availability
  should stay at 1.0 for moderate p while simulated time grows with the
  retry work;
* **outage window** — a total outage in the middle of an E2-style session;
  the circuit breaker stops hammering the dead server and the CMS serves
  stale-archive/partial answers tagged *degraded* instead of failing.

Everything is seeded: the same seeds produce byte-identical metrics
snapshots, which is asserted below.
"""

from __future__ import annotations

import pytest

from repro.common.errors import RemoteDBMSError
from repro.core.cms import CacheManagementSystem
from repro.obs import Tracer
from repro.remote.faults import FaultPolicy
from repro.remote.server import RemoteDBMS
from repro.workloads.genealogy import genealogy
from repro.workloads.queries import StreamSpec, repeated_selection_stream

from benchmarks.harness import format_table, record, record_trace

FAULT_RATES = [0.0, 0.1, 0.2, 0.4]
LENGTH = 60
SEED = 11


def make_session(fault_rate: float, capacity_bytes: int = 600, traced: bool = False):
    server = RemoteDBMS(
        faults=FaultPolicy(seed=SEED, transient_rate=fault_rate)
        if fault_rate
        else None
    )
    if traced:
        server.tracer = Tracer(server.clock)
    for table in genealogy(seed=23).tables:
        server.load_table(table)
    cms = CacheManagementSystem(server, capacity_bytes=capacity_bytes)
    cms.begin_session()
    return cms, server


def stream():
    people = [f"p{i}" for i in range(22)]
    return list(
        repeated_selection_stream(
            "q(Y) :- parent($C, Y)", people, StreamSpec(LENGTH, 0.6, seed=7)
        )
    )


def run_session(
    fault_rate: float,
    outage: tuple[int, int] | None = None,
    traced: bool = False,
):
    """One seeded session; returns availability and resilience counters."""
    cms, server = make_session(fault_rate, traced=traced)
    answered = degraded = failed = 0
    for index, query in enumerate(stream()):
        if outage and index == outage[0]:
            server.set_fault_policy(FaultPolicy(seed=SEED + 1, transient_rate=1.0))
        if outage and index == outage[1]:
            server.set_fault_policy(
                FaultPolicy(seed=SEED + 2, transient_rate=fault_rate)
                if fault_rate
                else None
            )
        try:
            result = cms.query(query)
            result.fetch_all()
            answered += 1
            degraded += result.degraded
        except RemoteDBMSError:
            failed += 1
    metrics = server.metrics
    return {
        "availability": answered / (answered + failed),
        "answered": answered,
        "degraded": degraded,
        "failed": failed,
        "retries": metrics.get("remote.retries"),
        "timeouts": metrics.get("remote.timeouts"),
        "faults": metrics.get("remote.faults_injected"),
        "breaker_changes": metrics.get("remote.breaker_state_changes"),
        "simulated_seconds": server.clock.now,
        "snapshot": metrics.snapshot(),
        "trace_jsonl": server.tracer.to_jsonl(),
        "trace_fingerprint": server.tracer.fingerprint(),
    }


@pytest.fixture(scope="module")
def sweep():
    return {rate: run_session(rate) for rate in FAULT_RATES}


@pytest.fixture(scope="module")
def outage():
    return run_session(0.2, outage=(30, 35))


def test_report(sweep, outage):
    rows = [
        [
            rate,
            r["availability"],
            r["degraded"],
            r["retries"],
            r["faults"],
            r["simulated_seconds"],
        ]
        for rate, r in sweep.items()
    ]
    rows.append(
        [
            "0.2+outage",
            outage["availability"],
            outage["degraded"],
            outage["retries"],
            outage["faults"],
            outage["simulated_seconds"],
        ]
    )
    headers = [
        "fault rate",
        "availability",
        "degraded",
        "retries",
        "faults injected",
        "sim time (s)",
    ]
    record(
        "E14",
        f"fault-injected link, {LENGTH}-query selection stream",
        format_table(headers, rows),
        data={"headers": headers, "rows": rows},
        notes=(
            "Claim: bounded retries absorb transient faults (availability 1.0 "
            "at moderate rates); during a total outage the breaker sheds load "
            "and stale cache answers keep availability above 0.95."
        ),
    )


def test_availability_at_moderate_fault_rates(sweep):
    for rate in FAULT_RATES:
        assert sweep[rate]["availability"] >= 0.95
    # Retries absorbed the faults entirely up to 20%.
    assert sweep[0.2]["availability"] == 1.0


def test_retry_work_grows_with_fault_rate(sweep):
    retries = [sweep[rate]["retries"] for rate in FAULT_RATES]
    assert retries[0] == 0
    assert retries == sorted(retries)
    assert retries[-1] > 0


def test_faults_cost_simulated_time(sweep):
    assert sweep[0.4]["simulated_seconds"] > sweep[0.0]["simulated_seconds"]


def test_outage_degrades_instead_of_failing(outage):
    assert outage["availability"] >= 0.95
    assert outage["degraded"] > 0
    assert outage["retries"] > 0
    assert outage["snapshot"]["remote.degraded_answers"] == outage["degraded"]


def test_same_seed_is_byte_identical(outage):
    again = run_session(0.2, outage=(30, 35))
    assert again["snapshot"] == outage["snapshot"]
    assert again["simulated_seconds"] == outage["simulated_seconds"]


def test_zero_overhead_when_faults_disabled():
    # FaultPolicy.none() and no policy at all must be indistinguishable.
    def run(policy):
        server = RemoteDBMS(faults=policy)
        for table in genealogy(seed=23).tables:
            server.load_table(table)
        cms = CacheManagementSystem(server)
        cms.begin_session()
        for query in stream():
            cms.query(query).fetch_all()
        return server.metrics.snapshot(), server.clock.now

    assert run(FaultPolicy.none()) == run(None)


@pytest.fixture(scope="module")
def traced_faulted():
    return run_session(0.2, traced=True)


def test_traced_faults_are_byte_identical(traced_faulted):
    """Same-seed faulted runs export byte-identical traces."""
    again = run_session(0.2, traced=True)
    assert again["trace_jsonl"] == traced_faulted["trace_jsonl"]
    assert again["trace_fingerprint"] == traced_faulted["trace_fingerprint"]
    record_trace("E14", traced_faulted["trace_jsonl"])


def test_trace_records_fault_events(traced_faulted):
    jsonl = traced_faulted["trace_jsonl"]
    assert '"fault.injected"' in jsonl
    assert '"rdi.retry"' in jsonl


def test_tracing_does_not_change_faulted_outcomes(sweep, traced_faulted):
    """Tracing a faulted session must not perturb the fault schedule."""
    baseline = sweep[0.2]
    assert traced_faulted["snapshot"] == baseline["snapshot"]
    assert traced_faulted["simulated_seconds"] == baseline["simulated_seconds"]
    assert traced_faulted["availability"] == baseline["availability"]
