"""A spanning query is a plan: one remote part per backend, run by the
Execution Monitor.

Regression tests for what the federation's private scatter-gather got
wrong (dependent fetches timed as overlapping; the semijoin ablation not
reaching the federation), the plan-order invariant with its planted
mutant, and ``cms.explain`` showing the backends.
"""

import pytest

from repro.common.errors import InvariantViolation
from repro.common.metrics import REMOTE_BINDINGS_SHIPPED
from repro.caql.parser import parse_query
from repro.core.cms import CMSFeatures
from repro.core.plan import QueryPlan, RemotePart, sub_query
from repro.core.planner import QueryPlanner

from tests.federation.conftest import (
    SPAN2,
    SPAN3,
    make_federation,
    oracle,
    psj,
    trace_events,
)

WARM = "w(S, C) :- sup(S, C)"


def warmed(features=None):
    """A traced federated CMS with ``sup`` cached and SPAN3's metadata
    looked up, so the next SPAN3 is a hybrid plan and nothing but its own
    fetches reaches the backends."""
    federation = make_federation(with_tracer=True)
    cms = federation.cms(features=features)
    cms.begin_session()
    cms.query(parse_query(WARM)).fetch_all()
    cms.explain(parse_query(SPAN3))
    return federation, cms


class TestDependentFetchesAreSequential:
    def test_a_reduced_fetch_never_runs_in_the_parallel_region(self):
        federation, cms = warmed()
        network = {
            name: federation.backend(name).network for name in federation.backends()
        }
        spent = {name: link.charged_seconds for name, link in network.items()}
        started = federation.clock.now
        assert set(cms.query(parse_query(SPAN3)).fetch_all()) == oracle(SPAN3)
        elapsed = federation.clock.now - started
        spent = {
            name: link.charged_seconds - spent[name] for name, link in network.items()
        }
        assert spent["beta"] > 0 and spent["gamma"] > 0

        events = trace_events(federation.tracer)
        home = {
            dict(e.attributes)["view"]: dict(e.attributes)["backend"]
            for e in events
            if e.name == "rdi.route"
        }
        reduced = {
            home[dict(s.attributes)["view"]]
            for s in federation.tracer.spans
            if s.name == "rdi.fetch" and dict(s.attributes).get("semijoin")
        }
        assert reduced == {"gamma"}
        regions = [
            dict(s.attributes)
            for s in federation.tracer.spans
            if s.name == "executor.parallel_tracks"
        ]
        assert regions
        for region in regions:
            assert not any(f"track.remote.{name}" in region for name in reduced)
        # gamma's IN-list comes from beta's rows: the two round trips add up.
        assert elapsed >= spent["beta"] + spent["gamma"]


class TestSemijoinAblationReachesTheFederation:
    @pytest.mark.parametrize(
        "features",
        [CMSFeatures(semijoin=False), CMSFeatures.none()],
        ids=["semijoin-off", "everything-off"],
    )
    def test_no_binding_is_shipped(self, features):
        federation = make_federation(with_tracer=True)
        cms = federation.cms(features=features)
        cms.begin_session()
        assert set(cms.query(parse_query(SPAN2)).fetch_all()) == oracle(SPAN2)
        names = [e.name for e in trace_events(federation.tracer)]
        assert "rdi.semijoin" not in names
        assert federation.metrics.get(REMOTE_BINDINGS_SHIPPED) == 0
        assert not any(
            part.bind_columns
            for part in cms.last_plan.parts
            if isinstance(part, RemotePart)
        )

    def test_semijoin_on_ships_the_in_list(self):
        federation = make_federation()
        cms = federation.cms()
        cms.begin_session()
        cms.query(parse_query(SPAN2)).fetch_all()
        assert federation.metrics.get(REMOTE_BINDINGS_SHIPPED) > 0


class TestPlanOrderInvariant:
    def test_swapped_remote_parts_are_caught_under_audit(self, monkeypatch):
        # Planted mutant: the planner emits a spanning plan's remote parts
        # in the wrong order, so a binding draws on a part that runs later.
        split = QueryPlanner._remote_parts

        def swapped(self, component, notes, specs=()):
            parts = split(self, component, notes, specs)
            if len(parts) > 1:
                parts[0], parts[-1] = parts[-1], parts[0]
            return parts

        monkeypatch.setattr(QueryPlanner, "_remote_parts", swapped)
        federation = make_federation()
        cms = federation.cms()
        cms.begin_session()
        cms.planner.audit = True
        with pytest.raises(InvariantViolation, match="no earlier part"):
            cms.query(parse_query(SPAN2))

    def test_two_parts_for_one_backend_are_caught(self):
        planner = make_federation().cms().planner
        planner.spanning_plan(psj(SPAN2)).check_invariants(planner.backend_of)
        # A self-join of gamma's ``ship`` split into one part per occurrence.
        query = psj("qs(S) :- ship(S, P, Q), ship(S, P2, Q2)")
        parts = []
        for occ in query.occurrences:
            sub = sub_query(query, frozenset({occ.tag}), f"qs__{occ.tag}")
            parts.append(RemotePart(sub, tuple(sub.projection), frozenset({occ.tag})))
        plan = QueryPlan(query, "remote", parts=tuple(parts))
        with pytest.raises(InvariantViolation, match="to backend gamma"):
            plan.check_invariants(planner.backend_of)
        # Under a lone server's resolver every remote part is bound for
        # the one server.
        with pytest.raises(InvariantViolation, match="more than one remote part"):
            plan.check_invariants(lambda _table: ("", None))


class TestExplainShowsTheBackends:
    def test_one_remote_part_per_backend(self):
        _federation, cms = warmed()
        explanation = cms.explain(parse_query(SPAN3))
        assert explanation.strategy == "hybrid"
        remote = [part for part in explanation.parts if part.startswith("remote:")]
        assert remote == ["remote:q__rest__beta", "remote:q__rest__gamma+semijoin"]
        assert "  part remote:q__rest__gamma+semijoin" in explanation.lines()
