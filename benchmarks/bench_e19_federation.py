"""E19 — federated cross-backend joins vs naive loose coupling vs one server.

The federation spreads the suppliers workload over three autonomous
backends with distinct cost profiles:

* ``alpha`` (sqlite engine) owns ``supplier``,
* ``beta``  (pure-Python, 1.4x cost profile) owns ``part``,
* ``gamma`` (pure-Python, 0.7x cost profile) owns ``shipment``.

Three configurations run the same query session:

* **federated** — the full CMS over the
  :class:`~repro.federation.interface.FederatedInterface` router: a
  spanning query is planned as one remote part per backend, with
  cross-backend semijoin ship-bindings, caching and batching;
* **naive** — per-backend loose coupling: every query scatters to its
  home backends unreduced, every time (no cache, no semijoin);
* **oracle** — the same CMS against a *single* server holding every
  table: the answer authority the federated answers must match.

Expected shape: federated answers identical to the single-backend oracle,
with strictly fewer tuples shipped and strictly lower simulated time than
naive.  Turning one backend dark mid-session keeps availability >= 95%
(the survivors answer), every diverging answer is tagged ``degraded``,
and same-seed reruns are byte-identical (metrics snapshots and trace
fingerprints agree).
"""

from __future__ import annotations

import pytest

from repro.common.clock import CostProfile, SimClock
from repro.common.errors import BraidError
from repro.obs import Tracer
from repro.remote.faults import FaultPolicy
from repro.remote.server import RemoteDBMS
from repro.caql.parser import parse_query
from repro.core.cms import CacheManagementSystem
from repro.federation import BackendSpec, build_federation
from repro.workloads.suppliers import suppliers

from benchmarks.harness import format_table, record, record_trace

CONFIGURATIONS = ("federated", "naive", "oracle")

#: The healthy session: single-backend, two-backend, and three-backend
#: spans, with repeats so caching (federated/oracle only) can pay off.
HEALTHY = (
    "sup(S, C) :- supplier(S, N, C, R), R >= 8",
    "goods(S, P, Q) :- supplier(S, N, C, R), R >= 5, shipment(S, P, Q, Co)",
    "heavy(S, P) :- shipment(S, P, Q, C), part(P, PN, Col, W), W > 30",
    "triple(S, P) :- supplier(S, N, C, R), R >= 6, shipment(S, P, Q, Co), "
    "part(P, PN, Col, W), W > 20",
    "goods(S, P, Q) :- supplier(S, N, C, R), R >= 5, shipment(S, P, Q, Co)",
    "triple(S, P) :- supplier(S, N, C, R), R >= 6, shipment(S, P, Q, Co), "
    "part(P, PN, Col, W), W > 20",
)

#: Queries issued after ``gamma`` (shipments) goes dark.
DARK = (
    "sup2(S, C) :- supplier(S, N, C, R), R >= 3",
    "parts(P, W) :- part(P, PN, Col, W), W > 50",
    "goods2(C) :- supplier(S, N, C, R), R >= 5, shipment(S, P, Q, Co)",
    "heavy2(P) :- shipment(S, P, Q, C), part(P, PN, Col, W), W > 60",
)


def _specs() -> list[BackendSpec]:
    workload = suppliers(n_suppliers=30, n_parts=40, n_shipments=300, seed=11)
    tables = {t.schema.name: t for t in workload.tables}
    return [
        BackendSpec("alpha", tables=(tables["supplier"],), engine="sqlite"),
        BackendSpec(
            "beta", tables=(tables["part"],), profile=CostProfile().scaled(1.4)
        ),
        BackendSpec(
            "gamma", tables=(tables["shipment"],), profile=CostProfile().scaled(0.7)
        ),
    ]


def _build(configuration: str):
    """A fresh (system, federation-or-None) pair with its own clock."""
    if configuration == "oracle":
        server = RemoteDBMS()
        server.tracer = Tracer(server.clock)
        for table in suppliers(
            n_suppliers=30, n_parts=40, n_shipments=300, seed=11
        ).tables:
            server.load_table(table)
        cms = CacheManagementSystem(server)
        cms.begin_session()
        return cms, None
    clock = SimClock()
    federation = build_federation(_specs(), clock=clock, tracer=Tracer(clock))
    if configuration == "naive":
        system = federation.naive()
    else:
        system = federation.cms()
    system.begin_session()
    return system, federation


def run(configuration: str, dark_phase: bool = True) -> dict:
    system, federation = _build(configuration)
    answers = {}
    for text in HEALTHY:
        answers[text] = sorted(system.query(parse_query(text)).fetch_all())

    out = {
        "answers": answers,
        "healthy_shipped": system.metrics.get("remote.tuples_shipped"),
        "healthy_requests": system.metrics.get("remote.requests"),
        "healthy_seconds": system.clock.now,
    }
    if federation is not None:
        out["by_backend"] = {
            name: {
                "requests": scope.get("remote.requests"),
                "shipped": scope.get("remote.tuples_shipped"),
            }
            for name, scope in system.metrics.scopes().items()
        }

    if dark_phase and federation is not None:
        federation.set_backend_faults(
            "gamma", FaultPolicy(seed=23, permanent_rate=1.0)
        )
        answered = degraded = 0
        dark_answers = {}
        for text in DARK:
            try:
                stream = system.query(parse_query(text))
                rows = sorted(stream.fetch_all())
            except BraidError as error:
                dark_answers[text] = type(error).__name__
                continue
            answered += 1
            degraded += bool(getattr(stream, "degraded", False))
            dark_answers[text] = {
                "rows": rows,
                "degraded": bool(getattr(stream, "degraded", False)),
            }
        out["availability"] = answered / len(DARK)
        out["degraded_answers"] = degraded
        out["dark_answers"] = dark_answers

    out["snapshot"] = system.metrics.snapshot()
    tracer = federation.tracer if federation is not None else system.remote.tracer
    out["fingerprint"] = tracer.fingerprint()
    out["trace_jsonl"] = tracer.to_jsonl()
    return out


@pytest.fixture(scope="module")
def results():
    return {name: run(name) for name in CONFIGURATIONS}


def test_report(results):
    rows = []
    for name in CONFIGURATIONS:
        r = results[name]
        rows.append(
            [
                name,
                r["healthy_requests"],
                r["healthy_shipped"],
                round(r["healthy_seconds"], 4),
                r.get("availability", "-"),
            ]
        )
    headers = [
        "configuration",
        "remote reqs",
        "tuples shipped",
        "sim time (s)",
        "availability (gamma dark)",
    ]
    per_backend = results["federated"]["by_backend"]
    record(
        "E19",
        "federated cross-backend joins vs naive loose coupling vs one server",
        format_table(headers, rows),
        notes=(
            "Claim: spanning plans with cross-backend semijoin ship-bindings "
            "answer identically to a single-server oracle while strictly "
            "beating naive per-backend loose coupling on tuples shipped and "
            "simulated time; one dark backend degrades gracefully (answers "
            "tagged degraded, availability >= 95%)."
        ),
        data={
            "headers": headers,
            "rows": rows,
            "per_backend": per_backend,
            "availability": results["federated"]["availability"],
            "degraded_answers": results["federated"]["degraded_answers"],
        },
    )
    record_trace("E19", results["federated"]["trace_jsonl"])


def test_federated_answers_equal_single_backend_oracle(results):
    assert results["federated"]["answers"] == results["oracle"]["answers"]
    assert any(len(rows) for rows in results["federated"]["answers"].values())


def test_naive_answers_equal_oracle_too(results):
    # The baseline is slow, not wrong.
    assert results["naive"]["answers"] == results["oracle"]["answers"]


def test_federated_strictly_beats_naive_on_tuples_shipped(results):
    assert (
        results["federated"]["healthy_shipped"]
        < results["naive"]["healthy_shipped"]
    )


def test_federated_strictly_beats_naive_on_simulated_time(results):
    assert (
        results["federated"]["healthy_seconds"]
        < results["naive"]["healthy_seconds"]
    )


def test_every_backend_served_its_share(results):
    by_backend = results["federated"]["by_backend"]
    assert set(by_backend) == {"alpha", "beta", "gamma"}
    assert all(share["requests"] > 0 for share in by_backend.values())
    total = sum(share["shipped"] for share in by_backend.values())
    assert total == results["federated"]["healthy_shipped"]


def test_dark_backend_degrades_gracefully(results):
    federated = results["federated"]
    assert federated["availability"] >= 0.95
    healthy_oracle, _ = _build("oracle")
    for text, answer in federated["dark_answers"].items():
        assert isinstance(answer, dict), f"{text} errored: {answer}"
        expected = sorted(healthy_oracle.query(parse_query(text)).fetch_all())
        if answer["rows"] != expected:
            # A diverging answer is only acceptable when tagged degraded.
            assert answer["degraded"], f"untagged divergence on {text}"
    # The dark phase actually exercised the degraded path.
    assert federated["degraded_answers"] > 0


def test_same_seed_runs_are_byte_identical(results):
    rerun = run("federated")
    first = results["federated"]
    assert rerun["snapshot"] == first["snapshot"]
    assert rerun["fingerprint"] == first["fingerprint"]
    assert rerun["trace_jsonl"] == first["trace_jsonl"]


def test_benchmark_federated_session(benchmark):
    benchmark.pedantic(run, args=("federated",), rounds=3, iterations=1)
