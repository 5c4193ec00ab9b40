"""Property test: scheduling must never change answers.

Whatever order the scheduler interleaves session steps in — any policy,
any seed, any submission order, even a cache small enough to force
evictions mid-run — every session must receive exactly the rows it would
have received running alone against its own private CMS.  This is the
server's core correctness contract: concurrency is a performance feature,
never a semantic one.
"""

import random

import pytest

from repro.core.cms import CacheManagementSystem
from repro.remote.server import RemoteDBMS
from repro.server import BraidServer, ServerConfig
from repro.workloads.multisession import MultiSessionSpec, client_streams
from repro.workloads.synthetic import selection_universe

WORKLOAD = selection_universe(rows=120, domain=400, seed=5)


def serial_answers(streams):
    """Each client alone against a fresh single-session CMS."""
    answers = {}
    for name, stream in streams.items():
        remote = RemoteDBMS()
        for table in WORKLOAD.tables:
            remote.load_table(table)
        cms = CacheManagementSystem(remote)
        cms.begin_session()
        answers[name] = [sorted(cms.query(q).fetch_all()) for q in stream]
    return answers


def server_answers(streams, policy, seed, submit_order, capacity_bytes=4_000_000):
    server = BraidServer(
        tables=WORKLOAD.tables,
        config=ServerConfig(
            cache_capacity_bytes=capacity_bytes,
            scheduler_policy=policy,
            scheduler_seed=seed,
            max_queue_depth=1024,
        ),
    )
    rng = random.Random(seed)
    for index, name in enumerate(streams):
        server.open_session(name, weight=1.0 + (index % 3))
    slots = [name for name, s in streams.items() for _ in s]
    if submit_order == "shuffled":
        # Shuffle arrival order across clients; within one client the
        # stream order still holds (a session's stream is a sequence).
        rng.shuffle(slots)
    cursor: dict[str, int] = {}
    for name in slots:
        position = cursor.get(name, 0)
        cursor[name] = position + 1
        server.submit(name, streams[name][position])
    server.run_until_idle()
    answers = {}
    for name in streams:
        completed = server.results(name)
        assert all(request.error is None for request in completed)
        by_id = {request.request_id: request for request in completed}
        answers[name] = [
            sorted(by_id[f"{name}#{i + 1}"].rows) for i in range(len(streams[name]))
        ]
    return answers


def spec(seed):
    return MultiSessionSpec(
        clients=3,
        requests_per_client=5,
        shared_fraction=0.6,
        hot_pool_size=4,
        private_pool_size=5,
        domain=400,
        seed=seed,
    )


@pytest.mark.parametrize("workload_seed", [2, 9, 23])
@pytest.mark.parametrize("policy", ["round-robin", "weighted-fair"])
@pytest.mark.parametrize("submit_order", ["interleaved", "shuffled"])
def test_any_interleaving_matches_serial(workload_seed, policy, submit_order):
    streams = client_streams(spec(workload_seed))
    expected = serial_answers(streams)
    got = server_answers(streams, policy, seed=workload_seed, submit_order=submit_order)
    assert got == expected


@pytest.mark.parametrize("scheduler_seed", range(5))
def test_tie_break_seeds_never_change_answers(scheduler_seed):
    streams = client_streams(spec(4))
    expected = serial_answers(streams)
    got = server_answers(
        streams, "weighted-fair", seed=scheduler_seed, submit_order="interleaved"
    )
    assert got == expected


def test_eviction_pressure_does_not_change_answers():
    # A cache small enough that elements are evicted during the run: the
    # pin held for each plan must keep its derivations correct anyway.
    streams = client_streams(spec(7))
    expected = serial_answers(streams)
    got = server_answers(
        streams,
        "round-robin",
        seed=7,
        submit_order="interleaved",
        capacity_bytes=6_000,
    )
    assert got == expected
