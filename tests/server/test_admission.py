"""Tests for admission control: queue bounds, backpressure, in-flight limits."""

import pytest

from repro.caql.ast import ConjunctiveQuery
from repro.caql.parser import parse_query
from repro.common.errors import ServerOverloadError
from repro.common.metrics import (
    SERVER_REQUESTS_ACCEPTED,
    SERVER_REQUESTS_REJECTED,
    Metrics,
)
from repro.advice.language import AdviceSet
from repro.advice.view_spec import annotate
from repro.logic.terms import Atom, Const, Var
from repro.server import BraidServer, ServerConfig
from repro.server.admission import MAX_INFLIGHT_PER_SESSION, AdmissionController
from repro.server.session import Request, Session
from repro.workloads.synthetic import selection_universe


def stub_session(name="s"):
    # Admission only reads queue state, so a bare object with the
    # Session queue attributes is enough.
    session = Session.__new__(Session)
    session.name = name
    session.open = True
    session.backlog = []
    session.in_flight = []
    return session


def stub_request(session, n):
    return Request(
        request_id=f"{session.name}#{n}",
        session_name=session.name,
        query=None,
        submitted_at=0.0,
    )


class TestController:
    def test_rejects_beyond_queue_depth(self):
        metrics = Metrics()
        controller = AdmissionController(max_queue_depth=2, metrics=metrics)
        session = stub_session()
        controller.admit(session)
        controller.admit(session)
        with pytest.raises(ServerOverloadError) as excinfo:
            controller.admit(session)
        assert excinfo.value.queue_depth == 2
        assert excinfo.value.max_queue_depth == 2
        assert metrics.get(SERVER_REQUESTS_ACCEPTED) == 2
        assert metrics.get(SERVER_REQUESTS_REJECTED) == 1

    def test_release_reopens_admission(self):
        controller = AdmissionController(max_queue_depth=1)
        session = stub_session()
        controller.admit(session)
        controller.release()
        controller.admit(session)  # does not raise

    def test_unmatched_release_rejected(self):
        with pytest.raises(ValueError):
            AdmissionController().release()

    def test_bounds_must_be_positive(self):
        with pytest.raises(ValueError):
            AdmissionController(max_queue_depth=0)

    def test_may_start_caps_in_flight(self):
        controller = AdmissionController()
        session = stub_session()
        session.in_flight = [
            stub_request(session, n) for n in range(MAX_INFLIGHT_PER_SESSION - 1)
        ]
        assert controller.may_start(session)
        session.in_flight.append(stub_request(session, MAX_INFLIGHT_PER_SESSION))
        assert not controller.may_start(session)

    def test_eligibility(self):
        controller = AdmissionController()
        session = stub_session()
        assert not controller.is_eligible(session)  # nothing to do
        session.backlog = [stub_request(session, 0)]
        assert controller.is_eligible(session)  # can start
        session.in_flight = [
            stub_request(session, n) for n in range(1, MAX_INFLIGHT_PER_SESSION + 1)
        ]
        assert controller.is_eligible(session)  # can drain (but not start)
        assert not controller.may_start(session)
        session.backlog = []
        session.in_flight = []
        session.open = False
        assert not controller.is_eligible(session)

    def test_utilization(self):
        controller = AdmissionController(max_queue_depth=4)
        session = stub_session()
        controller.admit(session)
        assert controller.utilization() == 0.25


class TestServerBackpressure:
    def make_server(self, max_queue_depth=3):
        config = ServerConfig(max_queue_depth=max_queue_depth)
        return BraidServer(
            tables=selection_universe(rows=30, seed=5).tables, config=config
        )

    def queries(self, n):
        return [
            parse_query(f"q{i}(I, V) :- item(I, cat{i % 10}, V)") for i in range(n)
        ]

    def test_submit_beyond_bound_raises(self):
        server = self.make_server()
        server.open_session("alice")
        for query in self.queries(3):
            server.submit("alice", query)
        with pytest.raises(ServerOverloadError):
            server.submit("alice", self.queries(4)[3])

    def test_backpressure_clears_as_work_completes(self):
        server = self.make_server()
        server.open_session("alice")
        queries = self.queries(4)
        for query in queries[:3]:
            server.submit("alice", query)
        server.run_until_idle()
        server.submit("alice", queries[3])  # the queue drained
        server.run_until_idle()
        assert len(server.results("alice")) == 4

    def test_in_flight_limit_forces_drain_before_next_start(self):
        limit = MAX_INFLIGHT_PER_SESSION
        server = self.make_server(max_queue_depth=limit + 1)
        # Advice that prefers lazy evaluation for every view: each answer
        # derived from the warmed table is a stream, drained in its own step.
        lazy = self.queries(limit + 1)
        server.open_session(
            "alice", advice=AdviceSet.from_views([annotate(q, "^^") for q in lazy])
        )
        server.submit("alice", parse_query("warm(I, C, V) :- item(I, C, V)"))
        server.run_until_idle()
        assert [record.phase for record in server.schedule_trace] == ["execute"]
        del server.schedule_trace[:]
        requests = [server.submit("alice", query) for query in lazy]
        server.run_until_idle()
        assert all(request.stream.lazy for request in requests)
        # One session at its in-flight limit must drain before it starts
        # its last request.
        phases = [record.phase for record in server.schedule_trace]
        assert phases == ["execute"] * limit + ["drain", "execute"] + ["drain"] * limit

    def test_an_eager_answer_is_never_in_flight(self):
        limit = MAX_INFLIGHT_PER_SESSION
        server = self.make_server(max_queue_depth=limit + 1)
        server.open_session("alice")
        for query in self.queries(limit + 1):
            server.submit("alice", query)
        server.run_until_idle()
        # Each eager request completes in its execute step: the limit on
        # undrained streams never binds.
        phases = [record.phase for record in server.schedule_trace]
        assert phases == ["execute"] * (limit + 1)
        assert server.sessions.get("alice").in_flight_peak == 0

    def test_close_releases_abandoned_admissions(self):
        server = self.make_server()
        server.open_session("alice")
        for query in self.queries(3):
            server.submit("alice", query)
        server.close_session("alice")
        assert server.admission.queued == 0
        server.open_session("bob")
        server.submit("bob", self.queries(1)[0])  # capacity is back


class TestUntranslatableRequestReleasesItsSlot:
    """A request the translator refuses is *finished* with a typed error.

    A non-binary comparison used to escape ``cms.query`` as a bare
    ``ValueError``, past ``_execute``'s ``except BraidError``: the request
    was popped from the backlog, never finished, and its admission slot
    leaked.  A negated literal was silently dropped and answered."""

    NEGATED = parse_query("d(I) :- item(I, C, V), \\+ item(I, cat1, V)")
    TERNARY = ConjunctiveQuery(
        "d",
        (Var("I"),),
        (
            Atom("item", (Var("I"), Var("C"), Var("V"))),
            Atom("<", (Var("I"), Var("V"), Const(3))),
        ),
    )

    @pytest.mark.parametrize(
        "query", [NEGATED, TERNARY], ids=["negated", "ternary-comparison"]
    )
    def test_finished_with_error_and_the_session_carries_on(self, query):
        server = BraidServer(
            tables=selection_universe(rows=30, seed=5).tables,
            config=ServerConfig(max_queue_depth=2),
        )
        server.open_session("alice")
        refused = server.submit("alice", query)
        server.run_until_idle()
        assert refused.finished
        assert refused.error.startswith("TranslationError")
        assert refused.rows is None
        assert server.admission.utilization() == 0

        served = server.submit(
            "alice", parse_query("q(I, V) :- item(I, cat1, V)")
        )
        server.run_until_idle()
        assert served.finished and served.error is None
        assert served.rows
        assert server.admission.utilization() == 0
