"""Per-backend metrics namespacing, tagged trace events, determinism."""

import pytest

from repro.common.errors import RemoteDBMSError
from repro.common.metrics import REMOTE_REQUESTS, REMOTE_TUPLES
from repro.remote.faults import FaultPolicy, RetryPolicy
from repro.caql.parser import parse_query
from repro.core.cms import CMSFeatures

from tests.federation.conftest import (
    LOCAL,
    SPAN2,
    SPAN3,
    make_federation,
    psj,
    trace_events,
)


def uncached(federation):
    """A CMS that sends every query to the backends."""
    cms = federation.cms(features=CMSFeatures(caching=False))
    cms.begin_session()
    return cms


class TestMetricsNamespacing:
    def test_root_aggregates_backend_scopes(self):
        federation = make_federation()
        cms = uncached(federation)
        for text in (SPAN3, SPAN2, LOCAL):
            cms.query(parse_query(text)).fetch_all()
        scopes = federation.metrics.scopes()
        assert set(scopes) == {"alpha", "beta", "gamma"}
        for counter in (REMOTE_REQUESTS, REMOTE_TUPLES):
            shares = {name: scope.get(counter) for name, scope in scopes.items()}
            assert all(share > 0 for share in shares.values()), shares
            assert federation.metrics.get(counter) == sum(shares.values())

    def test_scoped_ledgers_pass_their_own_invariants(self):
        federation = make_federation()
        uncached(federation).query(parse_query(SPAN3)).fetch_all()
        federation.metrics.check_invariants()


class TestTraceTagging:
    def test_route_scatter_gather_events(self):
        # The planner span's parts show the scatter; each part is routed
        # to its own backend.
        federation = make_federation(with_tracer=True)
        uncached(federation).query(parse_query(SPAN3)).fetch_all()
        plans = [s for s in federation.tracer.spans if s.name == "planner.plan"]
        assert [label.split("__")[-1] for label in dict(plans[0].attributes)["parts"]] == [
            "beta", "alpha", "gamma+semijoin",
        ]
        by_name = {}
        for event in trace_events(federation.tracer):
            by_name.setdefault(event.name, []).append(dict(event.attributes))
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
                "gamma": RetryPolicy(max_retries=2, breaker_threshold=3)
            },
            faults={
                "gamma": FaultPolicy(
                    seed=seed, transient_rate=0.4, stall_rate=0.2
                )
            },
            with_tracer=True,
        )
        cms = uncached(federation)
        outcomes = []
        for text in (SPAN3, SPAN2, LOCAL, SPAN2, SPAN3):
            try:
                outcomes.append(len(cms.query(parse_query(text)).fetch_all()))
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
