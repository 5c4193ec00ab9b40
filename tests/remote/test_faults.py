"""Deterministic failure-mode tests for the fault-injected remote link.

Every test here is seeded: the injector draws a fixed number of RNG values
per request, so a (seed, request-sequence) pair always produces the same
faults, charges, and metrics.  ``seed_with_pattern`` searches for a seed
whose failure draws match an explicit pattern, which lets tests script
exact sequences like "fail once, then succeed".
"""

import random

import pytest

from repro.common.errors import (
    CircuitOpenError,
    RemoteDBMSError,
    RemoteTimeoutError,
    TransientRemoteError,
)
from repro.common.metrics import (
    REMOTE_BREAKER_STATE_CHANGES,
    REMOTE_FAULTS_INJECTED,
    REMOTE_REQUESTS,
    REMOTE_RETRIES,
    REMOTE_TIMEOUTS,
)
from repro.relational.relation import relation_from_columns
from repro.remote.faults import (
    BACKOFF_BASE,
    BACKOFF_JITTER,
    BACKOFF_MULTIPLIER,
    BACKOFF_SEED,
    CircuitBreaker,
    FaultInjector,
    FaultPolicy,
    RetryPolicy,
    backoff,
)
from repro.remote.server import RemoteDBMS
from repro.remote.sql import FetchTableQuery
from repro.caql.eval import psj_of
from repro.caql.parser import parse_query
from repro.core.rdi import RemoteInterface


def seed_with_pattern(rate: float, pattern: list[bool], limit: int = 100_000) -> int:
    """A seed whose per-request failure draws match ``pattern`` exactly.

    The injector consumes three draws per request; the first decides
    failure.  Deterministic, so tests stay reproducible byte-for-byte.
    """
    for seed in range(limit):
        rng = random.Random(seed)
        draws = []
        for _ in pattern:
            u_fail = rng.random()
            rng.random()  # stall draw
            rng.random()  # disconnect draw
            draws.append(u_fail < rate)
        if draws == pattern:
            return seed
    raise AssertionError(f"no seed under {limit} matches {pattern}")


def make_server(faults=None, rows=300, **kwargs):
    server = RemoteDBMS(faults=faults, **kwargs)
    server.load_table(
        relation_from_columns(
            "t", a=list(range(rows)), b=[i % 7 for i in range(rows)]
        )
    )
    return server


def make_psj(text="q(A, B) :- t(A, B)"):
    return psj_of(parse_query(text))


class TestFaultPolicy:
    def test_none_is_inert(self):
        assert FaultPolicy.none().is_none()
        assert FaultPolicy().is_none()
        assert not FaultPolicy(transient_rate=0.1).is_none()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"transient_rate": -0.1},
            {"transient_rate": 1.5},
            {"transient_rate": 0.7, "permanent_rate": 0.7},
            {"stall_seconds": -1.0},
            {"disconnect_after_buffers": -1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FaultPolicy(**kwargs)

    def test_none_policy_installs_no_injector(self):
        assert make_server(faults=FaultPolicy.none()).fault_injector is None
        assert make_server(faults=None).fault_injector is None
        assert make_server(faults=FaultPolicy(transient_rate=1.0)).fault_injector

    def test_retry_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(timeout_seconds=0)


class TestInjectorDeterminism:
    def test_same_seed_same_decisions(self):
        policy = FaultPolicy(
            seed=42, transient_rate=0.3, stall_rate=0.2, disconnect_rate=0.2
        )
        a = FaultInjector(policy)
        b = FaultInjector(policy)
        assert [a.on_request() for _ in range(50)] == [
            b.on_request() for _ in range(50)
        ]

    def test_draws_per_request_fixed(self):
        # Decision k depends only on (seed, k): two policies with the same
        # seed but different rates see the same underlying draws.
        lo = FaultInjector(FaultPolicy(seed=3, transient_rate=0.999))
        hi = FaultInjector(FaultPolicy(seed=3, transient_rate=0.001))
        for _ in range(30):
            lo.on_request()
        # Request 31 of the low-rate injector matches what a fresh injector
        # seeing the same seed produces at position 31.
        fresh = FaultInjector(FaultPolicy(seed=3, transient_rate=0.001))
        for _ in range(30):
            fresh.on_request()
        assert hi is not fresh  # sanity: independent objects
        assert lo.on_request().extra_latency == fresh.on_request().extra_latency


class TestServerInjection:
    def test_transient_failure_raises_and_charges_latency(self):
        server = make_server(faults=FaultPolicy(seed=0, transient_rate=1.0))
        before = server.clock.now
        with pytest.raises(TransientRemoteError):
            server.execute_stream(FetchTableQuery("t"))
        assert server.clock.now - before == pytest.approx(
            server.profile.remote_latency
        )
        assert server.metrics.get(REMOTE_FAULTS_INJECTED) == 1
        assert server.metrics.get(REMOTE_REQUESTS) == 1

    def test_permanent_failure_raises(self):
        server = make_server(faults=FaultPolicy(seed=0, permanent_rate=1.0))
        with pytest.raises(RemoteDBMSError) as excinfo:
            server.execute(FetchTableQuery("t"))
        assert not isinstance(excinfo.value, TransientRemoteError)

    def test_stall_charges_extra_latency(self):
        server = make_server(
            faults=FaultPolicy(seed=0, stall_rate=1.0, stall_seconds=3.0)
        )
        healthy = make_server()
        server.execute(FetchTableQuery("t"))
        healthy.execute(FetchTableQuery("t"))
        assert server.clock.now == pytest.approx(healthy.clock.now + 3.0)

    def test_disconnect_mid_stream(self):
        server = make_server(
            faults=FaultPolicy(
                seed=0, disconnect_rate=1.0, disconnect_after_buffers=2
            )
        )
        stream = server.execute_stream(FetchTableQuery("t"), buffer_size=10)
        assert len(stream.next_buffer()) == 10
        assert len(stream.next_buffer()) == 10
        with pytest.raises(TransientRemoteError):
            stream.next_buffer()
        # Only the delivered buffers paid transfer cost.
        assert server.metrics.get("remote.tuples_shipped") == 20

    def test_metadata_faults_opt_in(self):
        server = make_server(faults=FaultPolicy(seed=0, transient_rate=1.0))
        server.schema_of("t")  # metadata unaffected by default
        strict = make_server(
            faults=FaultPolicy(seed=0, transient_rate=1.0, metadata_faults=True)
        )
        with pytest.raises(TransientRemoteError):
            strict.schema_of("t")

    def test_set_fault_policy_mid_run(self):
        server = make_server()
        server.execute(FetchTableQuery("t"))
        server.set_fault_policy(FaultPolicy(seed=1, transient_rate=1.0))
        with pytest.raises(TransientRemoteError):
            server.execute(FetchTableQuery("t"))
        server.set_fault_policy(None)
        server.execute(FetchTableQuery("t"))


class TestRetries:
    def test_transient_retried_then_succeeds(self):
        seed = seed_with_pattern(0.5, [True, False])
        server = make_server(faults=FaultPolicy(seed=seed, transient_rate=0.5))
        rdi = RemoteInterface(server, retry=RetryPolicy(max_retries=3))
        result = rdi.fetch(make_psj())
        assert len(result) == 300
        assert server.metrics.get(REMOTE_RETRIES) == 1

    def test_permanent_error_not_retried(self):
        server = make_server(faults=FaultPolicy(seed=0, permanent_rate=1.0))
        rdi = RemoteInterface(server, retry=RetryPolicy(max_retries=5))
        requests_before = server.metrics.get(REMOTE_REQUESTS)
        with pytest.raises(RemoteDBMSError):
            rdi.fetch(make_psj())
        # schema lookup + exactly one data attempt; no retries.
        assert server.metrics.get(REMOTE_REQUESTS) == requests_before + 2
        assert server.metrics.get(REMOTE_RETRIES) == 0

    def test_exhausted_retries_raise_last_transient(self):
        server = make_server(faults=FaultPolicy(seed=0, transient_rate=1.0))
        rdi = RemoteInterface(
            server, retry=RetryPolicy(max_retries=2, breaker_threshold=0)
        )
        with pytest.raises(TransientRemoteError):
            rdi.fetch(make_psj())
        assert server.metrics.get(REMOTE_RETRIES) == 2

    def test_backoff_charged_to_remote_track(self):
        server = make_server(faults=FaultPolicy(seed=0, transient_rate=1.0))
        rdi = RemoteInterface(
            server,
            retry=RetryPolicy(max_retries=2, breaker_threshold=0),
        )
        rdi.schema_of("t")  # pay the metadata trip outside the measurement
        before = server.clock.now
        with pytest.raises(TransientRemoteError):
            rdi.fetch(make_psj())
        waited = server.clock.now - before - 3 * server.profile.remote_latency
        # 3 failed round trips + the two jittered waits, BASE and BASE * MULT.
        nominal = BACKOFF_BASE * (1 + BACKOFF_MULTIPLIER)
        assert nominal * (1 - BACKOFF_JITTER) <= waited <= nominal * (1 + BACKOFF_JITTER)
        rng = random.Random(BACKOFF_SEED)
        assert waited == pytest.approx(backoff(0, rng) + backoff(1, rng))

    def test_backoff_jitter_is_seeded(self):
        def run():
            server = make_server(faults=FaultPolicy(seed=0, transient_rate=1.0))
            rdi = RemoteInterface(
                server,
                retry=RetryPolicy(max_retries=3, breaker_threshold=0),
            )
            with pytest.raises(TransientRemoteError):
                rdi.fetch(make_psj())
            return server.clock.now

        assert run() == run()

    def test_no_faults_means_no_retry_machinery(self):
        server = make_server()
        rdi = RemoteInterface(server)
        rdi.fetch(make_psj())
        assert server.metrics.get(REMOTE_RETRIES) == 0
        assert server.metrics.get(REMOTE_TIMEOUTS) == 0
        assert server.metrics.get(REMOTE_BREAKER_STATE_CHANGES) == 0


class TestTimeouts:
    def test_stall_beyond_budget_times_out(self):
        server = make_server(
            faults=FaultPolicy(seed=0, stall_rate=1.0, stall_seconds=10.0)
        )
        rdi = RemoteInterface(
            server, retry=RetryPolicy(max_retries=0, timeout_seconds=1.0)
        )
        with pytest.raises(RemoteTimeoutError):
            rdi.fetch(make_psj())
        assert server.metrics.get(REMOTE_TIMEOUTS) == 1

    def test_timeout_mid_stream(self):
        # 3000 tuples * 0.5ms transfer = 1.5s total; budget 0.3s runs out
        # part-way through the buffered drain.
        server = make_server(rows=3000)
        rdi = RemoteInterface(
            server, retry=RetryPolicy(max_retries=0, timeout_seconds=0.3)
        )
        with pytest.raises(RemoteTimeoutError):
            rdi.fetch(make_psj())
        shipped = server.metrics.get("remote.tuples_shipped")
        assert 0 < shipped < 3000  # gave up mid-stream, not at the end
        assert server.metrics.get(REMOTE_TIMEOUTS) == 1

    def test_timeouts_are_retried(self):
        server = make_server(
            faults=FaultPolicy(seed=0, stall_rate=1.0, stall_seconds=10.0)
        )
        rdi = RemoteInterface(
            server,
            retry=RetryPolicy(max_retries=2, timeout_seconds=1.0, breaker_threshold=0),
        )
        with pytest.raises(RemoteTimeoutError):
            rdi.fetch(make_psj())
        assert server.metrics.get(REMOTE_TIMEOUTS) == 3
        assert server.metrics.get(REMOTE_RETRIES) == 2

    def test_generous_timeout_never_fires(self):
        server = make_server()
        rdi = RemoteInterface(server, retry=RetryPolicy(timeout_seconds=1e9))
        assert len(rdi.fetch(make_psj())) == 300
        assert server.metrics.get(REMOTE_TIMEOUTS) == 0


class TestCircuitBreaker:
    def make_rdi(self, server, **kwargs):
        defaults = dict(
            max_retries=0,
            breaker_threshold=2,
            breaker_cooldown=1.0,
            breaker_probe_after=3,
        )
        defaults.update(kwargs)
        return RemoteInterface(server, retry=RetryPolicy(**defaults))

    def test_opens_after_threshold_and_refuses_locally(self):
        server = make_server(faults=FaultPolicy(seed=0, transient_rate=1.0))
        rdi = self.make_rdi(server)
        for _ in range(2):
            with pytest.raises(TransientRemoteError):
                rdi.fetch(make_psj())
        assert rdi.breaker.state == CircuitBreaker.OPEN
        requests = server.metrics.get(REMOTE_REQUESTS)
        with pytest.raises(CircuitOpenError):
            rdi.fetch(make_psj())
        assert server.metrics.get(REMOTE_REQUESTS) == requests  # refused locally
        assert not rdi.remote_available()

    def test_half_open_after_cooldown_then_closes_on_success(self):
        seed = seed_with_pattern(0.5, [True, True, False])
        server = make_server(faults=FaultPolicy(seed=seed, transient_rate=0.5))
        rdi = self.make_rdi(server)
        psj = make_psj()
        rdi.schema_of("t")
        for _ in range(2):
            with pytest.raises(TransientRemoteError):
                rdi.fetch(psj)
        assert rdi.breaker.state == CircuitBreaker.OPEN
        server.clock.advance(5.0)  # cooldown passes
        assert rdi.remote_available()
        result = rdi.fetch(psj)  # half-open trial succeeds
        assert len(result) == 300
        assert rdi.breaker.state == CircuitBreaker.CLOSED
        # closed -> open -> half-open -> closed
        assert server.metrics.get(REMOTE_BREAKER_STATE_CHANGES) == 3

    def test_failed_half_open_trial_reopens(self):
        server = make_server(faults=FaultPolicy(seed=0, transient_rate=1.0))
        rdi = self.make_rdi(server)
        psj = make_psj()
        for _ in range(2):
            with pytest.raises(TransientRemoteError):
                rdi.fetch(psj)
        server.clock.advance(5.0)
        with pytest.raises(TransientRemoteError):
            rdi.fetch(psj)  # half-open trial fails immediately
        assert rdi.breaker.state == CircuitBreaker.OPEN

    def test_probe_after_refusals_without_time_passing(self):
        server = make_server(faults=FaultPolicy(seed=0, transient_rate=1.0))
        rdi = self.make_rdi(server, breaker_cooldown=1e9, breaker_probe_after=3)
        psj = make_psj()
        for _ in range(2):
            with pytest.raises(TransientRemoteError):
                rdi.fetch(psj)
        for _ in range(3):
            with pytest.raises(CircuitOpenError):
                rdi.fetch(psj)
        # The 4th attempt is allowed through as a half-open probe.
        with pytest.raises(TransientRemoteError):
            rdi.fetch(psj)

    def test_threshold_zero_disables_breaker(self):
        server = make_server(faults=FaultPolicy(seed=0, transient_rate=1.0))
        rdi = self.make_rdi(server, breaker_threshold=0)
        for _ in range(10):
            with pytest.raises(TransientRemoteError):
                rdi.fetch(make_psj())
        assert rdi.breaker.state == CircuitBreaker.CLOSED
        assert server.metrics.get(REMOTE_BREAKER_STATE_CHANGES) == 0


class TestDeterminism:
    def workload(self, seed):
        server = make_server(
            faults=FaultPolicy(
                seed=seed,
                transient_rate=0.3,
                stall_rate=0.1,
                stall_seconds=0.2,
                disconnect_rate=0.1,
            )
        )
        rdi = RemoteInterface(
            server, retry=RetryPolicy(max_retries=2, timeout_seconds=5.0)
        )
        psj = make_psj()
        outcomes = []
        for _ in range(25):
            try:
                outcomes.append(len(rdi.fetch(psj)))
            except RemoteDBMSError as error:
                outcomes.append(type(error).__name__)
        return outcomes, server.metrics.snapshot(), server.clock.now

    def test_same_seed_identical_runs(self):
        assert self.workload(17) == self.workload(17)

    def test_different_seeds_differ(self):
        assert self.workload(17)[1] != self.workload(18)[1]


class TestZeroOverhead:
    """FaultPolicy.none() must be byte-identical to no faults at all."""

    def run(self, faults, retry):
        server = make_server(faults=faults)
        rdi = RemoteInterface(server, retry=retry)
        psj = make_psj("q(A) :- t(A, 3)")
        for _ in range(5):
            rdi.fetch(psj)
        rdi.fetch_base_relation("t")
        return server.metrics.snapshot(), server.clock.now

    def test_none_policy_equals_no_policy(self):
        assert self.run(FaultPolicy.none(), None) == self.run(None, None)

    def test_default_retry_policy_is_inert_on_healthy_link(self):
        default = self.run(None, RetryPolicy())
        fail_fast = self.run(None, RetryPolicy.none())
        assert default == fail_fast
        snapshot, _clock = default
        assert "remote.retries" not in snapshot
        assert "remote.timeouts" not in snapshot
        assert "remote.breaker_state_changes" not in snapshot
