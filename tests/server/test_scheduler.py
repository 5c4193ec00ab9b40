"""Tests for the cooperative scheduler: policies, fairness, determinism."""

import pytest

from repro.advice.language import AdviceSet
from repro.advice.view_spec import annotate
from repro.caql.parser import parse_query
from repro.common.errors import ServerError
from repro.server import BraidServer, ServerConfig
from repro.server.scheduler import (
    POLICIES,
    RoundRobinPolicy,
    WeightedFairPolicy,
)
from repro.server.session import Session
from repro.workloads.synthetic import selection_universe


def stub_session(name, weight=1.0):
    session = Session.__new__(Session)
    session.name = name
    session.weight = weight
    session.open = True
    return session


class TestRoundRobin:
    def test_takes_turns_in_opening_order(self):
        policy = RoundRobinPolicy()
        sessions = [stub_session(n) for n in ("a", "b", "c")]
        for session in sessions:
            policy.note_session(session)
        picks = [policy.pick(sessions).name for _ in range(6)]
        assert picks == ["a", "b", "c", "a", "b", "c"]

    def test_skips_ineligible_sessions(self):
        policy = RoundRobinPolicy()
        a, b, c = (stub_session(n) for n in ("a", "b", "c"))
        for session in (a, b, c):
            policy.note_session(session)
        assert policy.pick([a, c]).name == "a"
        assert policy.pick([a, c]).name == "c"
        assert policy.pick([a, c]).name == "a"

    def test_forget_keeps_rotation_stable(self):
        policy = RoundRobinPolicy()
        a, b, c = (stub_session(n) for n in ("a", "b", "c"))
        for session in (a, b, c):
            policy.note_session(session)
        assert policy.pick([a, b, c]).name == "a"
        policy.forget_session("a")
        assert [policy.pick([b, c]).name for _ in range(4)] == ["b", "c", "b", "c"]

    def test_empty_pick_rejected(self):
        with pytest.raises(ServerError):
            RoundRobinPolicy().pick([])


class TestWeightedFair:
    def test_equal_weights_share_equally(self):
        policy = WeightedFairPolicy(seed=1)
        sessions = [stub_session(n) for n in ("a", "b")]
        for session in sessions:
            policy.note_session(session)
        picks = [policy.pick(sessions).name for _ in range(40)]
        assert picks.count("a") == picks.count("b") == 20

    def test_steps_proportional_to_weight(self):
        policy = WeightedFairPolicy(seed=1)
        heavy = stub_session("heavy", weight=3.0)
        light = stub_session("light", weight=1.0)
        policy.note_session(heavy)
        policy.note_session(light)
        picks = [policy.pick([heavy, light]).name for _ in range(80)]
        assert picks.count("heavy") == 60
        assert picks.count("light") == 20

    def test_latecomer_joins_at_current_floor(self):
        policy = WeightedFairPolicy(seed=1)
        a, b = stub_session("a"), stub_session("b")
        policy.note_session(a)
        for _ in range(10):
            policy.pick([a])
        policy.note_session(b)
        # b starts at a's accumulated pass, so it neither monopolizes the
        # scheduler catching up nor waits for a to lap it.
        picks = [policy.pick([a, b]).name for _ in range(20)]
        assert picks.count("a") == picks.count("b") == 10

    def test_same_seed_same_tie_breaks(self):
        def sequence(seed):
            policy = WeightedFairPolicy(seed=seed)
            sessions = [stub_session(n) for n in ("a", "b", "c")]
            for session in sessions:
                policy.note_session(session)
            return [policy.pick(sessions).name for _ in range(30)]

        assert sequence(7) == sequence(7)


class TestSchedulerWrapper:
    """What the deleted ``Scheduler`` wrapper checked, where it is checked
    now: the configuration validates the name, each policy its own pick."""

    def test_unknown_policy_rejected(self):
        assert "lottery" not in POLICIES
        with pytest.raises(ServerError, match="lottery"):
            ServerConfig(scheduler_policy="lottery")

    def test_empty_pick_rejected(self):
        for policy in POLICIES.values():
            with pytest.raises(ServerError):
                policy(0).pick([])

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_the_server_holds_the_policy_its_config_names(self, policy):
        server = BraidServer(
            tables=selection_universe(rows=4, seed=5).tables,
            config=ServerConfig(scheduler_policy=policy),
        )
        assert type(server.scheduler) is POLICIES[policy]


class TestServerDeterminism:
    def run_server(self, policy, seed, lazy=False):
        """Five requests per session.  ``lazy``: both sessions' advice
        prefers lazy evaluation and the table is warmed first, so every
        answer is a stream derived from the cache."""
        server = BraidServer(
            tables=selection_universe(rows=40, seed=5).tables,
            config=ServerConfig(scheduler_policy=policy, scheduler_seed=seed),
        )
        streams = {
            name: [
                parse_query(f"{name[0]}{i}(I, V) :- item(I, cat{i}, V)")
                for i in range(5)
            ]
            for name in ("alice", "bob")
        }
        for name, weight in (("alice", 2.0), ("bob", 1.0)):
            advice = (
                AdviceSet.from_views([annotate(q, "^^") for q in streams[name]])
                if lazy
                else None
            )
            server.open_session(name, advice=advice, weight=weight)
        if lazy:
            server.submit("alice", parse_query("warm(I, C, V) :- item(I, C, V)"))
            server.run_until_idle()
        for i in range(5):
            server.submit("alice", streams["alice"][i])
            server.submit("bob", streams["bob"][i])
        server.run_until_idle()
        return server

    @pytest.mark.parametrize("policy", ["round-robin", "weighted-fair"])
    def test_same_seed_byte_identical(self, policy):
        first = self.run_server(policy, seed=3)
        second = self.run_server(policy, seed=3)
        assert first.schedule_lines() == second.schedule_lines()
        assert first.schedule_fingerprint() == second.schedule_fingerprint()
        assert first.session_results_snapshot() == second.session_results_snapshot()

    def test_trace_lines_are_well_formed(self):
        server = self.run_server("round-robin", seed=0)
        for index, line in enumerate(server.schedule_lines()):
            fields = line.split("|")
            assert len(fields) == 4
            assert int(fields[0]) == index
            assert fields[1] in ("alice", "bob")

    @staticmethod
    def steps_by_request(server):
        seen: dict[str, int] = {}
        for record in server.schedule_trace:
            seen[record.request_id] = seen.get(record.request_id, 0) + 1
        return seen

    def test_every_request_executes_then_drains(self):
        # An eager answer is drained in the step that produced it, and so
        # is a lazy stream: one step per request either way.
        eager = self.steps_by_request(self.run_server("weighted-fair", seed=9))
        assert len(eager) == 10
        assert all(steps == 1 for steps in eager.values())
        server = self.run_server("weighted-fair", seed=9, lazy=True)
        lazy = self.steps_by_request(server)
        assert len(lazy) == 11  # the warming request, then ten streams
        assert all(steps == 1 for steps in lazy.values())
        assert all(
            request.rows is not None
            for name in ("alice", "bob")
            for request in server.results(name)
        )

    def test_weighted_fair_respects_weights_in_steps(self):
        server = self.run_server("weighted-fair", seed=3)
        report = server.fairness_report()
        # Both sessions completed everything and latencies stayed within
        # a sane band of each other.
        assert report["sessions"]["alice"]["completed"] == 5
        assert report["sessions"]["bob"]["completed"] == 5
        assert report["max_min_latency_ratio"] < 3.0
