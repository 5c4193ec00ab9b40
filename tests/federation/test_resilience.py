"""Per-backend fault isolation: breakers, batches, probes, degradation.

The federation's resilience contract: each backend has its own retry
budget and circuit breaker; one dark backend never blocks the others, and
a spanning query over a dark backend degrades to the survivors instead of
failing outright.
"""

import pytest

from repro.common.errors import (
    CircuitOpenError,
    RemoteDBMSError,
    TransientRemoteError,
)
from repro.common.metrics import (
    REMOTE_DEGRADED_ANSWERS,
    REMOTE_FAULTS_INJECTED,
    REMOTE_REQUESTS,
)
from repro.remote.faults import CircuitBreaker, FaultPolicy, RetryPolicy
from repro.caql.parser import parse_query

from tests.federation.conftest import (
    LOCAL,
    SPAN2,
    SURVIVOR,
    make_federation,
    oracle,
    psj,
)

FAIL_FAST = RetryPolicy(max_retries=0, breaker_threshold=1, breaker_cooldown=2.0)


def dark(seed=0):
    return FaultPolicy(seed=seed, transient_rate=1.0)


class TestPerBackendBreakers:
    def test_one_dark_backend_does_not_block_the_others(self):
        federation = make_federation(
            retries={"beta": FAIL_FAST}, faults={"beta": dark()}
        )
        with pytest.raises(TransientRemoteError):
            federation.interface.fetch(psj(LOCAL))
        assert (
            federation.interface.links["beta"].breaker.state == CircuitBreaker.OPEN
        )
        # beta now refuses locally; alpha and gamma still serve.
        with pytest.raises(CircuitOpenError):
            federation.interface.fetch(psj(LOCAL))
        cms = federation.cms()
        cms.begin_session()
        stream = cms.query(parse_query(SPAN2))
        assert set(stream.fetch_all()) == oracle(SPAN2)
        assert not stream.degraded
        assert federation.interface.remote_available()

    def test_open_breaker_refuses_without_a_round_trip(self):
        federation = make_federation(
            retries={"beta": FAIL_FAST}, faults={"beta": dark()}
        )
        with pytest.raises(TransientRemoteError):
            federation.interface.fetch(psj(LOCAL))
        beta = federation.metrics.scopes()["beta"]
        requests = beta.get(REMOTE_REQUESTS)
        with pytest.raises(CircuitOpenError):
            federation.interface.fetch(psj(LOCAL))
        assert beta.get(REMOTE_REQUESTS) == requests


class TestBatchResilienceUnit:
    def test_failed_batch_is_one_unit_and_trips_the_breaker(self):
        """A batch that fails mid-stream refuses the remaining members as
        one resilience unit: one fault decision, no partial results, and
        the whole ``fetch_many`` raises."""
        federation = make_federation(
            retries={"beta": FAIL_FAST}, faults={"beta": dark()}
        )
        queries = [psj(LOCAL), psj("q5(P) :- part(P, 2)"), psj("q6(S) :- sup(S, 100)")]
        with pytest.raises(TransientRemoteError):
            federation.interface.fetch_many(queries)
        beta = federation.metrics.scopes()["beta"]
        # One injected fault killed the whole two-member batch — the
        # members were not retried or delivered individually.
        assert beta.get(REMOTE_FAULTS_INJECTED) == 1
        assert federation.interface.links["beta"].breaker.state == CircuitBreaker.OPEN
        # The batch is one unit for the breaker too: the next beta fetch
        # is refused locally, while alpha's member was never poisoned.
        with pytest.raises(CircuitOpenError):
            federation.interface.fetch(psj(LOCAL))
        result = federation.interface.fetch(psj("q6(S) :- sup(S, 100)"))
        assert set(result.rows) == {(1,), (4,)}


class TestHalfOpenProbes:
    def test_probe_charged_to_the_probed_backends_track(self):
        """After cooldown the half-open probe's round trip lands on the
        *probed* backend's clock track and network ledger — not on any
        healthy peer's."""
        federation = make_federation(
            retries={"beta": FAIL_FAST}, faults={"beta": dark()}
        )
        interface = federation.interface
        with pytest.raises(TransientRemoteError):
            interface.fetch(psj(LOCAL))
        assert interface.links["beta"].breaker.state == CircuitBreaker.OPEN
        federation.clock.advance(5.0)  # past the cooldown

        alpha_net = federation.backend("alpha").network.charged_seconds
        beta_net = federation.backend("beta").network.charged_seconds
        with federation.clock.parallel() as region:
            with pytest.raises(TransientRemoteError):
                interface.fetch(psj(LOCAL))  # the half-open probe fails
        assert "remote.beta" in region.tracks
        assert "remote.alpha" not in region.tracks
        assert (
            federation.backend("beta").network.charged_seconds > beta_net
        )
        assert (
            federation.backend("alpha").network.charged_seconds == alpha_net
        )
        assert interface.links["beta"].breaker.state == CircuitBreaker.OPEN

    def test_successful_probe_closes_only_that_breaker(self):
        federation = make_federation(
            retries={"beta": FAIL_FAST, "gamma": FAIL_FAST},
            faults={"beta": dark(), "gamma": dark(seed=1)},
        )
        interface = federation.interface
        for text in (LOCAL, "q8(S) :- ship(S, P, Q)"):
            with pytest.raises(TransientRemoteError):
                interface.fetch(psj(text))
        federation.set_backend_faults("beta", None)  # beta recovers
        federation.clock.advance(5.0)
        result = interface.fetch(psj(LOCAL))
        assert set(result.rows) == oracle(LOCAL)
        assert interface.links["beta"].breaker.state == CircuitBreaker.CLOSED
        assert interface.links["gamma"].breaker.state == CircuitBreaker.OPEN


class TestDegradedAnswers:
    def test_fetch_partial_answers_from_survivors(self):
        federation = make_federation(
            faults={"gamma": FaultPolicy(seed=0, permanent_rate=1.0)}
        )
        cms = federation.cms()
        cms.begin_session()
        stream = cms.query(parse_query(SURVIVOR))
        assert stream.degraded
        # The surviving backend's part answers; the join condition against
        # the dark backend is dropped: every supplier city survives
        # (deduplicated set semantics).
        assert set(stream.fetch_all()) == {(100,), (200,), (300,)}

    def test_fetch_partial_none_when_every_backend_dark(self):
        federation = make_federation(
            faults={
                "alpha": FaultPolicy(seed=0, permanent_rate=1.0),
                "gamma": FaultPolicy(seed=1, permanent_rate=1.0),
            }
        )
        # The one-backend contract: a failed request answers None.
        assert federation.interface.fetch_partial(psj("q8(S) :- sup(S, C)")) is None
        cms = federation.cms()
        cms.begin_session()
        with pytest.raises(RemoteDBMSError):
            cms.query(parse_query(SPAN2)).fetch_all()
        assert federation.metrics.get(REMOTE_DEGRADED_ANSWERS) == 0

    def test_cms_tags_partial_answers_degraded(self):
        federation = make_federation()
        cms = federation.cms()
        cms.begin_session()
        healthy = cms.query(parse_query(SURVIVOR))
        assert set(healthy.fetch_all()) == oracle(SURVIVOR)
        assert not healthy.degraded

        federation.set_backend_faults(
            "gamma", FaultPolicy(seed=0, permanent_rate=1.0)
        )
        stream = cms.query(parse_query("q9(C) :- sup(S, C), ship(S, P, 99)"))
        assert stream.degraded
        assert set(stream.fetch_all()) == {(100,), (200,), (300,)}

    def test_cms_raises_when_nothing_survives(self):
        federation = make_federation()
        cms = federation.cms()
        cms.begin_session()
        for name in federation.backends():
            federation.set_backend_faults(
                name, FaultPolicy(seed=0, permanent_rate=1.0)
            )
        with pytest.raises(RemoteDBMSError):
            cms.query(parse_query(SPAN2)).fetch_all()
