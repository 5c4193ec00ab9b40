"""E21: operator-level intermediate caching and shared MQO under churn.

A multi-tenant retail workload on a deliberately small shared cache:
Zipf-overlapping clients browse hot item selections and drill down into
order joins at ever-tighter thresholds, while private scans churn the
cache between hot repeats.  A drill projects ``(I, Q)`` but filters on
``V`` — so its *whole view* can never answer the next-tighter drill
(``V`` is projected away), while an operator-level intermediate that
kept ``V`` can.  Two regimes, one workload:

* **steady** (the cache holds the hot working set): intermediate
  caching vs whole-view caching.  The claim under test: intermediates
  strictly reduce both tuples shipped and simulated seconds.
* **churn** (the cache thrashes): the shared-subplan registry (MQO)
  on vs off.  The claim under test: concurrent sessions compute each
  shared remote part once (``server.shared_subplans > 0``) and ship
  strictly fewer tuples in strictly less simulated time — with answers
  identical to serial (one-client-at-a-time) execution.

Everything is seeded; the same configuration fingerprints identically
run to run.
"""

from __future__ import annotations

import pytest

from benchmarks.harness import format_table, record

from repro.common.metrics import (
    CACHE_INTERMEDIATE_HITS,
    CACHE_INTERMEDIATE_STORES,
    REMOTE_REQUESTS,
    REMOTE_TUPLES,
    SERVER_SHARED_SUBPLANS,
)
from repro.core.cache_model import cache_report
from repro.core.cms import CMSFeatures
from repro.obs.export import fingerprint as canonical_fingerprint
from repro.server import BraidServer, ServerConfig
from repro.workloads.multisession import (
    MultiSessionSpec,
    client_streams,
    submit_interleaved,
)
from repro.workloads.synthetic import retail_universe

SEED = 21
#: Holds the hot working set: the intermediates-vs-whole-view regime.
STEADY_BYTES = 12_000
#: Thrashes on every burst: the MQO ablation regime.
CHURN_BYTES = 3_000

SPEC = MultiSessionSpec(
    clients=6,
    requests_per_client=16,
    shared_fraction=0.7,
    hot_pool_size=9,
    private_pool_size=10,
    seed=SEED,
    join_fraction=0.667,  # 3 hot selections + 6 drill-down joins
    zipf_skew=1.0,
)

TABLES = retail_universe(rows=300, orders=600, domain=1000, seed=5).tables


def build_server(cache_bytes: int, intermediates: bool, mqo: bool) -> BraidServer:
    return BraidServer(
        tables=TABLES,
        config=ServerConfig(
            cache_capacity_bytes=cache_bytes,
            features=CMSFeatures(intermediates=intermediates, mqo=mqo),
            max_queue_depth=SPEC.clients * SPEC.requests_per_client + 16,
            scheduler_seed=SEED,
        ),
    )


def run_workload(cache_bytes: int, intermediates: bool, mqo: bool, serial: bool = False):
    """One full workload execution; returns a metrics + answers dict."""
    server = build_server(cache_bytes, intermediates, mqo)
    streams = client_streams(SPEC)
    for name in streams:
        server.open_session(name)
    if serial:
        # One client at a time: the no-concurrency ground truth.
        for name, stream in streams.items():
            for query in stream:
                server.submit(name, query)
            server.run_until_idle()
    else:
        submit_interleaved(server, streams)
        server.run_until_idle()

    snapshot = server.session_results_snapshot()
    answers = {
        name: sorted(
            (request_id, query_name, rows)
            for request_id, query_name, _latency, _degraded, _error, rows in results
        )
        for name, results in snapshot.items()
    }
    errors = sum(
        1
        for results in snapshot.values()
        for _rid, _q, _lat, _deg, error, _rows in results
        if error
    )
    metrics = server.metrics
    return {
        "tuples_shipped": metrics.get(REMOTE_TUPLES),
        "remote_requests": metrics.get(REMOTE_REQUESTS),
        "sim_seconds": round(server.clock.now, 9),
        "shared_subplans": metrics.get(SERVER_SHARED_SUBPLANS),
        "intermediate_hits": metrics.get(CACHE_INTERMEDIATE_HITS),
        "intermediate_stores": metrics.get(CACHE_INTERMEDIATE_STORES),
        "errors": errors,
        "answers": answers,
        "cache_report": cache_report(server.cache),
        "fingerprint": fingerprint(answers, metrics.get(REMOTE_TUPLES)),
    }


def fingerprint(answers: dict, tuples: int) -> str:
    return canonical_fingerprint(
        {"answers": {k: [list(map(repr, row)) for row in v] for k, v in answers.items()},
         "tuples": tuples}
    )


# -- module-scope runs (each configuration executes once) --------------------------


@pytest.fixture(scope="module")
def steady_whole_view():
    return run_workload(STEADY_BYTES, intermediates=False, mqo=False)


@pytest.fixture(scope="module")
def steady_intermediates():
    return run_workload(STEADY_BYTES, intermediates=True, mqo=False)


@pytest.fixture(scope="module")
def churn_no_mqo():
    return run_workload(CHURN_BYTES, intermediates=True, mqo=False)


@pytest.fixture(scope="module")
def churn_mqo():
    return run_workload(CHURN_BYTES, intermediates=True, mqo=True)


@pytest.fixture(scope="module")
def churn_serial():
    return run_workload(CHURN_BYTES, intermediates=True, mqo=True, serial=True)


class TestE21Intermediates:
    def test_no_errors(self, steady_whole_view, steady_intermediates, churn_no_mqo,
                       churn_mqo, churn_serial):
        for run in (steady_whole_view, steady_intermediates, churn_no_mqo,
                    churn_mqo, churn_serial):
            assert run["errors"] == 0

    def test_intermediates_strictly_beat_whole_view(
        self, steady_whole_view, steady_intermediates
    ):
        """The tentpole claim: on the same workload and cache budget,
        operator-level intermediates ship strictly fewer tuples in
        strictly less simulated time than whole-view-only caching."""
        assert (
            steady_intermediates["tuples_shipped"]
            < steady_whole_view["tuples_shipped"]
        )
        assert steady_intermediates["sim_seconds"] < steady_whole_view["sim_seconds"]

    def test_intermediates_are_exercised(self, steady_intermediates, steady_whole_view):
        assert steady_intermediates["intermediate_stores"] > 0
        assert steady_intermediates["intermediate_hits"] > 0
        assert steady_whole_view["intermediate_stores"] == 0
        assert steady_whole_view["intermediate_hits"] == 0

    def test_mqo_shares_subplans_under_churn(self, churn_no_mqo, churn_mqo):
        """The MQO ablation: with the registry on, concurrent sessions
        reuse in-flight parts (shared_subplans > 0) and both tuples and
        simulated time strictly drop."""
        assert churn_no_mqo["shared_subplans"] == 0
        assert churn_mqo["shared_subplans"] > 0
        assert churn_mqo["tuples_shipped"] < churn_no_mqo["tuples_shipped"]
        assert churn_mqo["sim_seconds"] < churn_no_mqo["sim_seconds"]

    def test_answers_identical_across_configurations(
        self, steady_whole_view, steady_intermediates, churn_no_mqo, churn_mqo
    ):
        base = steady_whole_view["answers"]
        for run in (steady_intermediates, churn_no_mqo, churn_mqo):
            assert run["answers"] == base

    def test_mqo_answers_identical_to_serial(self, churn_mqo, churn_serial):
        """Sharing in-flight subplans never changes any session's rows."""
        assert churn_mqo["answers"] == churn_serial["answers"]

    def test_deterministic_rerun(self, steady_intermediates, churn_mqo):
        assert (
            run_workload(STEADY_BYTES, intermediates=True, mqo=False)["fingerprint"]
            == steady_intermediates["fingerprint"]
        )
        assert (
            run_workload(CHURN_BYTES, intermediates=True, mqo=True)["fingerprint"]
            == churn_mqo["fingerprint"]
        )

    def test_record(
        self,
        steady_whole_view,
        steady_intermediates,
        churn_no_mqo,
        churn_mqo,
        churn_serial,
    ):
        labels = [
            ("steady/whole-view", steady_whole_view),
            ("steady/intermediates", steady_intermediates),
            ("churn/intermediates", churn_no_mqo),
            ("churn/intermediates+mqo", churn_mqo),
            ("churn/serial+mqo", churn_serial),
        ]
        rows = [
            [
                label,
                run["tuples_shipped"],
                run["remote_requests"],
                f"{run['sim_seconds']:.3f}",
                run["shared_subplans"],
                run["intermediate_hits"],
                run["intermediate_stores"],
            ]
            for label, run in labels
        ]
        table = format_table(
            ["configuration", "tuples", "requests", "sim_s", "shared", "int_hits",
             "int_stores"],
            rows,
        )
        saved_tuples = (
            steady_whole_view["tuples_shipped"]
            - steady_intermediates["tuples_shipped"]
        )
        mqo_saved = churn_no_mqo["tuples_shipped"] - churn_mqo["tuples_shipped"]
        record(
            "E21",
            title="Operator-level intermediate caching and shared MQO",
            table=table,
            notes=(
                f"steady cache ({STEADY_BYTES}B): intermediates save "
                f"{saved_tuples} tuples and "
                f"{steady_whole_view['sim_seconds'] - steady_intermediates['sim_seconds']:.3f}s; "
                f"churn cache ({CHURN_BYTES}B): MQO shares "
                f"{churn_mqo['shared_subplans']} in-flight subplans saving "
                f"{mqo_saved} tuples. Answers identical across all "
                f"configurations and vs serial execution."
            ),
            data={
                "spec": {
                    "clients": SPEC.clients,
                    "requests_per_client": SPEC.requests_per_client,
                    "shared_fraction": SPEC.shared_fraction,
                    "hot_pool_size": SPEC.hot_pool_size,
                    "join_fraction": SPEC.join_fraction,
                    "zipf_skew": SPEC.zipf_skew,
                    "seed": SPEC.seed,
                },
                "steady_bytes": STEADY_BYTES,
                "churn_bytes": CHURN_BYTES,
                "configurations": {
                    label: {
                        k: v
                        for k, v in run.items()
                        if k not in ("answers", "cache_report")
                    }
                    for label, run in labels
                },
                "cache_report": steady_intermediates["cache_report"],
            },
        )
