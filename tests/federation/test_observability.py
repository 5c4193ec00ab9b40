"""Per-backend metrics namespacing, tagged trace events, determinism."""

import pytest

from repro.common.errors import RemoteDBMSError
from repro.common.metrics import REMOTE_REQUESTS, REMOTE_TUPLES
from repro.remote.faults import FaultPolicy, RetryPolicy
from repro.caql.parser import parse_query

from tests.federation.conftest import (
    LOCAL,
    SPAN2,
    SPAN3,
    make_federation,
    psj,
    trace_events,
)


class TestMetricsNamespacing:
    def test_root_aggregates_backend_scopes(self):
        federation = make_federation()
        for text in (SPAN3, SPAN2, LOCAL):
            federation.interface.fetch(psj(text))
        scopes = federation.metrics.scopes()
        assert set(scopes) == {"alpha", "beta", "gamma"}
        for counter in (REMOTE_REQUESTS, REMOTE_TUPLES):
            shares = {name: scope.get(counter) for name, scope in scopes.items()}
            assert all(share > 0 for share in shares.values()), shares
            assert federation.metrics.get(counter) == sum(shares.values())

    def test_scoped_ledgers_pass_their_own_invariants(self):
        federation = make_federation()
        federation.interface.fetch(psj(SPAN3))
        federation.metrics.check_invariants()


class TestTraceTagging:
    def test_route_scatter_gather_events(self):
        federation = make_federation(with_tracer=True)
        federation.interface.fetch(psj(SPAN3))
        by_name = {}
        for event in trace_events(federation.tracer):
            by_name.setdefault(event.name, []).append(dict(event.attributes))
        assert len(by_name["federation.scatter"]) == 1
        assert len(by_name["federation.gather"]) == 1
        routes = by_name["rdi.route"]
        assert {attrs["backend"] for attrs in routes} == {
            "alpha", "beta", "gamma",
        }

    def test_breaker_transitions_carry_the_backend_tag(self):
        federation = make_federation(
            retries={
                "gamma": RetryPolicy(max_retries=0, breaker_threshold=1)
            },
            faults={"gamma": FaultPolicy(seed=0, transient_rate=1.0)},
            with_tracer=True,
        )
        with pytest.raises(RemoteDBMSError):
            federation.interface.fetch(psj("q8(S) :- ship(S, P, Q)"))
        transitions = [
            dict(e.attributes)
            for e in trace_events(federation.tracer)
            if e.name == "breaker.transition"
        ]
        assert transitions
        assert all(attrs["backend"] == "gamma" for attrs in transitions)
        assert transitions[-1]["after"] == "open"


class TestDeterminism:
    def run(self, seed=7):
        federation = make_federation(
            retries={
                "gamma": RetryPolicy(max_retries=2, seed=seed, breaker_threshold=3)
            },
            faults={
                "gamma": FaultPolicy(
                    seed=seed, transient_rate=0.4, stall_rate=0.2
                )
            },
            with_tracer=True,
        )
        outcomes = []
        for text in (SPAN3, SPAN2, LOCAL, SPAN2, SPAN3):
            try:
                outcomes.append(len(federation.interface.fetch(psj(text))))
            except RemoteDBMSError as error:
                outcomes.append(type(error).__name__)
        return (
            outcomes,
            federation.metrics.snapshot(),
            federation.clock.now,
            federation.tracer.fingerprint(),
        )

    def test_same_seed_byte_identical(self):
        assert self.run() == self.run()

    def test_different_seeds_differ(self):
        assert self.run(seed=7)[1] != self.run(seed=8)[1]

    def test_cms_run_fingerprints_are_stable(self):
        def run():
            federation = make_federation(with_tracer=True)
            cms = federation.cms()
            cms.begin_session()
            for text in (SPAN3, SPAN2, LOCAL, SPAN3):
                cms.query(parse_query(text)).fetch_all()
            return (
                federation.metrics.snapshot(),
                federation.clock.now,
                federation.tracer.fingerprint(),
            )

        assert run() == run()
