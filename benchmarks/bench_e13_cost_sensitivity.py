"""E13 — cost-model sensitivity (DESIGN.md's key substitution).

The paper's whole design is premised on remote access being expensive
relative to workstation work ("the cost of communicating with [the]
remote DBMS is significant", Section 5.3.3).  This ablation sweeps the
simulated link latency from near-zero (co-located DBMS) to WAN-like and
measures the CMS's advantage over loose coupling on the same session.

Expected shape: the CMS's *relative* advantage grows with latency; even
with a free link it never loses (it still avoids redundant server work
and transfer), so the architecture degrades gracefully — supporting the
claim that the bridge suits "organizations that have substantial
investments in [remote] databases".
"""

from __future__ import annotations

import pytest

from repro.common.clock import CostProfile
from repro.baselines.loose import LooseCoupling
from repro.core.cms import CacheManagementSystem
from repro.remote.server import RemoteDBMS
from repro.workloads.genealogy import genealogy
from repro.workloads.queries import StreamSpec, repeated_selection_stream

from benchmarks.harness import format_table, record, run_queries

#: Round-trip latencies in seconds: co-located, LAN, default, WAN.
LATENCIES = [0.0, 0.005, 0.05, 0.3]
LENGTH = 40


def make_bridge(kind: str, latency: float):
    profile = CostProfile(remote_latency=latency)
    server = RemoteDBMS(profile=profile)
    for table in genealogy(seed=67).tables:
        server.load_table(table)
    if kind == "cms":
        return CacheManagementSystem(server)
    return LooseCoupling(server)


def stream():
    people = [f"p{i}" for i in range(22)]
    return repeated_selection_stream(
        "q(Y) :- parent($C, Y)", people, StreamSpec(LENGTH, 0.5, seed=5)
    )


@pytest.fixture(scope="module")
def results():
    queries = stream()
    out = {}
    for latency in LATENCIES:
        for kind in ("cms", "loose"):
            out[(kind, latency)] = run_queries(make_bridge(kind, latency), queries)
    return out


def test_report(results):
    rows = []
    for latency in LATENCIES:
        cms = results[("cms", latency)]
        loose = results[("loose", latency)]
        speedup = (
            loose["simulated_seconds"] / cms["simulated_seconds"]
            if cms["simulated_seconds"]
            else float("inf")
        )
        rows.append(
            [
                latency,
                cms["simulated_seconds"],
                loose["simulated_seconds"],
                f"{speedup:.2f}x",
            ]
        )
    headers = ["latency (s)", "CMS time (s)", "loose time (s)", "CMS speedup"]
    record(
        "E13",
        f"link-latency sweep over a {LENGTH}-query session (repetition 0.5)",
        format_table(headers, rows),
        notes="Claim: the bridge's advantage scales with communication cost and never reverses.",
        data={"headers": headers, "rows": rows},
    )


@pytest.mark.parametrize("latency", LATENCIES)
def test_cms_never_loses(results, latency):
    assert (
        results[("cms", latency)]["simulated_seconds"]
        <= results[("loose", latency)]["simulated_seconds"]
    )


def test_advantage_grows_with_latency(results):
    gaps = [
        results[("loose", latency)]["simulated_seconds"]
        - results[("cms", latency)]["simulated_seconds"]
        for latency in LATENCIES
    ]
    assert gaps == sorted(gaps)


def test_request_counts_latency_independent(results):
    baseline = results[("cms", LATENCIES[0])]["remote_requests"]
    for latency in LATENCIES[1:]:
        assert results[("cms", latency)]["remote_requests"] == baseline
