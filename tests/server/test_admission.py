"""Tests for admission control: queue bounds, backpressure, and the
one-step life of a request."""

import pytest

from repro.caql.ast import ConjunctiveQuery
from repro.caql.parser import parse_query
from repro.common.errors import ServerError, ServerOverloadError
from repro.common.metrics import (
    LAZY_TUPLES_PRODUCED,
    SERVER_REQUESTS_ACCEPTED,
    SERVER_REQUESTS_REJECTED,
    SERVER_SCHEDULER_STEPS,
    Metrics,
)
from repro.advice.language import AdviceSet
from repro.advice.view_spec import annotate
from repro.logic.terms import Atom, Const, Var
from repro.server import BraidServer, ServerConfig
from repro.server.admission import AdmissionController
from repro.server.session import Request, Session
from repro.workloads.synthetic import selection_universe


def stub_session(name="s"):
    # Admission only reads queue state, so a bare object with the
    # Session queue attributes is enough.
    session = Session.__new__(Session)
    session.name = name
    session.open = True
    session.backlog = []
    return session


def stub_request(session, n):
    return Request(
        request_id=f"{session.name}#{n}",
        session_name=session.name,
        query=None,
        submitted_at=0.0,
    )


def run_one_step_session(lazy: bool) -> tuple[BraidServer, list]:
    """Warm the table, then ask five views of it from one session, one
    ``step()`` at a time; after each step, every request it executed has
    completed and no cache element is still pinned.  ``lazy``: the
    session's advice prefers lazy evaluation, so every view is a stream
    derived from the warmed element."""
    views = [parse_query(f"q{i}(I, V) :- item(I, cat{i}, V)") for i in range(5)]
    server = BraidServer(
        tables=selection_universe(rows=30, seed=5).tables,
        config=ServerConfig(max_queue_depth=8),
    )
    advice = AdviceSet.from_views([annotate(q, "^^") for q in views]) if lazy else None
    server.open_session("alice", advice=advice)
    requests = [server.submit("alice", parse_query("warm(I, C, V) :- item(I, C, V)"))]
    requests += [server.submit("alice", query) for query in views]
    for request in requests:
        assert server.step()
        assert request.finished and request.error is None
        assert all(e.pin_count == 0 for e in server.cache.elements())
    assert not server.step()
    return server, [request.rows for request in requests]


def check_every_answer_completes_in_its_execute_step():
    """A lazy answer, like an eager one, is drained in the step that
    executes it: one step per request, no pin outlives its step, and the
    rows are those of the same requests without advice."""
    server, rows = run_one_step_session(lazy=True)
    assert server.metrics.get(LAZY_TUPLES_PRODUCED) > 0
    assert server.metrics.get(SERVER_SCHEDULER_STEPS) == len(rows)
    steps = [r.request_id for r in server.schedule_trace]
    assert len(steps) == len(set(steps)) == len(rows)  # one step per request
    eager, eager_rows = run_one_step_session(lazy=False)
    assert eager.metrics.get(LAZY_TUPLES_PRODUCED) == 0
    assert [sorted(r) for r in rows] == [sorted(r) for r in eager_rows]


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
            AdmissionController(max_queue_depth=1).release()

    def test_bounds_must_be_positive(self):
        # One check, typed like every other configuration error, at the
        # server boundary and on a controller built directly.
        for depth in (0, -1):
            with pytest.raises(ServerError, match="max_queue_depth"):
                BraidServer(config=ServerConfig(max_queue_depth=depth))
            with pytest.raises(ServerError, match="max_queue_depth"):
                AdmissionController(max_queue_depth=depth)

    def test_a_controller_has_no_default_bound_of_its_own(self):
        # The server's default lives in ``ServerConfig`` only.
        with pytest.raises(TypeError):
            AdmissionController()

    def test_eligibility(self):
        controller = AdmissionController(max_queue_depth=1)
        session = stub_session()
        assert not controller.is_eligible(session)  # nothing to do
        session.backlog = [stub_request(session, 0)]
        assert controller.is_eligible(session)  # can start
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

    def test_every_answer_completes_in_its_execute_step(self):
        check_every_answer_completes_in_its_execute_step()

    def test_an_eager_answer_is_never_in_flight(self):
        server = self.make_server(max_queue_depth=5)
        server.open_session("alice")
        requests = [server.submit("alice", query) for query in self.queries(5)]
        server.run_until_idle()
        # Each request completes in its execute step: nothing is left
        # between steps, and no pin outlives one.
        steps = [record.request_id for record in server.schedule_trace]
        assert len(steps) == len(set(steps)) == 5  # one step per request
        assert all(request.rows is not None for request in requests)
        assert all(e.pin_count == 0 for e in server.cache.elements())

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
