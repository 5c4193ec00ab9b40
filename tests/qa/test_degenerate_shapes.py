"""The shapes no traffic reaches, through every bridge.

A logic client produces them all the time — a fully instantiated *boolean*
query (no projection), a plan part that only has to *exist*, a projection
of constants, an occurrence-free or contradictory conjunction — and every
one ends in the same two pieces of code: the row builder and existence
rule of :mod:`repro.relational.operators`, and the CAQL front door of
:mod:`repro.core.cms`.  No wall workload, E-series experiment, example or
fuzz profile runs these arms (EXPERIMENTS.md, "Line-level reachability");
this module does, one fixed sequence driven through the full CMS,
``CMSFeatures.none()``, the three baselines, the federated CMS and the
naive federation against the direct-evaluation oracle, under a roomy and a
churning cache, healthy and with the link lost mid-sequence.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caql.eval import _project_result, evaluate_conjunctive, result_schema
from repro.caql.parser import parse_query
from repro.caql.psj import ConstProj, Occurrence, PSJQuery, projection_entries
from repro.common.metrics import CACHE_HITS_EXACT
from repro.core import engine as engine_module
from repro.core.plan import CachePart, RemotePart
from repro.qa.differential import (
    FEDERATED_VARIANT,
    VARIANTS,
    _build_federation,
    build_variant,
    run_case,
)
from repro.qa.generator import case_from_relations
from repro.relational.generator import GeneratorRelation
from repro.relational.operators import entry_rows, project_entries
from repro.relational.relation import Relation
from repro.relational.schema import Schema


def table(name, rows):
    return Relation(Schema(name, tuple(f"a{i}" for i in range(len(rows[0])))), rows)


#: ``r`` and ``s`` are big enough that a 3 KB cache churns; ``t`` and ``u``
#: live on other backends in the federated runs.
RELATIONS = {
    "r": table("r", [(i, i % 7) for i in range(1, 41)]),
    "s": table("s", [(i % 7, 100 + i) for i in range(30)]),
    "t": table("t", [(7,), (9,)]),
    "u": table("u", [(5,)]),
}
BACKENDS = {"r": "alpha", "s": "beta", "t": "gamma", "u": "gamma"}

#: (query, the plan shape the full CMS gives it under a roomy cache).
SEQUENCE = [
    # Cold spanning queries first: the federated CMS scatters them, and
    # r's share is a bare existence check (non-empty, empty, all parts).
    ("f1(Y, Z) :- r(X, 3), s(Y, Z)", "remote"),
    ("f3 :- r(X, 3), t(7)", "remote"),
    ("f4 :- r(98, Y), u(5)", "remote"),
    ("f2(Z) :- r(99, Y), t(Z)", "remote"),
    ("w(X, Y) :- r(X, Y)", "remote"),  # advised: indexed on X once cached
    ("b0 :- s(2, 102)", "remote"),
    ("b0 :- s(2, 102)", "exact"),
    ("b1 :- r(3, Y)", "indexed"),
    ("b2 :- r(77, Y)", "indexed"),
    ("b3 :- r(X, Y), Y > 5", "cache-full"),
    ("b4 :- r(X, Y), Y > 9", "cache-full"),
    ("lz :- r(X, Y), Y < 9", "lazy"),
    ("le :- r(X, Y), Y < 0", "lazy"),
    ("h1(Z) :- r(X, 3), t(Z)", "hybrid cache-exists"),
    ("h2(Z) :- r(97, Y), t(Z)", "hybrid cache-exists"),
    ("h3(X) :- r(X, 2), u(5)", "hybrid remote-exists"),
    ("h4(X) :- r(X, 2), u(6)", "hybrid remote-exists"),
    ("k0(7, 8) :- s(2, 102)", "cache-full"),  # off b0's fetched (True,) row
    # b1 was derived, so not stored: k1 derives off w through its index.
    ("k1(7, 8) :- r(3, Y)", "indexed"),
    ("k2(7, 8) :- r(96, Y)", "indexed"),
    ("k3(7) :- r(X, Y), Y > 5", "cache-full"),
    ("k4(7) :- r(X, Y), Y > 9", "cache-full"),
    ("c1(3, 4) :- 1 < 2", "unit"),
    ("c0 :- 1 < 2", "unit"),
    ("n1(X) :- r(X, Y), 1 > 2", "unsatisfiable"),
    ("n2(X) :- r(X, Y), Y < 2, Y > 3", "unsatisfiable"),
    ("n3 :- r(X, Y), Y < 2, Y > 3", "unsatisfiable"),
]
QUERIES = [text for text, _shape in SEQUENCE]
ADVICE = dict(
    advice_views=["w(X, Y) :- r(X, Y)", "lz :- r(X, Y), Y < 9", "le :- r(X, Y), Y < 0"],
    advice_annotations=["?.", "", ""],
)
#: The link dies here: everything cached before is what degraded answers
#: draw on; the hybrids, and nothing else after it, still need the remote.
ONSET = QUERIES.index("h1(Z) :- r(X, 3), t(Z)")
ALL_VARIANTS = VARIANTS + (FEDERATED_VARIANT,)
CACHES = [4_000_000, 3_000]


def make_case(**kwargs):
    return case_from_relations(
        RELATIONS, QUERIES, backends=BACKENDS, **ADVICE, **kwargs
    )


def oracle(text):
    database = {name: relation for name, relation in RELATIONS.items()}
    return set(evaluate_conjunctive(parse_query(text), database.__getitem__))


def test_the_sequence_has_both_answers_of_every_boolean():
    answers = {text: oracle(text) for text in QUERIES}
    assert answers["b0 :- s(2, 102)"] == answers["b1 :- r(3, Y)"] == {(True,)}
    assert answers["b2 :- r(77, Y)"] == answers["le :- r(X, Y), Y < 0"] == set()
    assert answers["f3 :- r(X, 3), t(7)"] == {(True,)}
    assert answers["f4 :- r(98, Y), u(5)"] == set()
    assert answers["k1(7, 8) :- r(3, Y)"] == {(7, 8)}
    assert answers["c1(3, 4) :- 1 < 2"] == {(3, 4)}
    assert answers["h3(X) :- r(X, 2), u(5)"] and not answers["h4(X) :- r(X, 2), u(6)"]


@pytest.mark.parametrize("cache_bytes", CACHES)
def test_every_bridge_answers_like_the_oracle(cache_bytes):
    report = run_case(make_case(cache_bytes=cache_bytes))
    assert not report.divergences, [d.to_dict() for d in report.divergences]
    assert not report.violations, report.violations
    assert {o.status for o in report.outcomes} == {"ok"}
    assert len(report.outcomes) == len(QUERIES) * len(ALL_VARIANTS)


def test_the_naive_federation_answers_like_the_oracle():
    naive = _build_federation(make_case()).naive()
    naive.begin_session()
    for text in QUERIES:
        stream = naive.query(parse_query(text))
        assert set(stream.fetch_all()) == oracle(text), text
        assert not stream.degraded


@pytest.mark.parametrize("cache_bytes", CACHES)
def test_a_link_lost_mid_sequence_degrades_with_a_tag_or_not_at_all(cache_bytes):
    case = make_case(
        cache_bytes=cache_bytes,
        fault={"seed": 7, "permanent_rate": 1.0},
        fault_onset=ONSET,
    )
    report = run_case(case)
    # The contract: a non-degraded answer equals the oracle's, whatever the
    # link does; only the faulted variant may degrade or fail.
    assert not report.divergences, [d.to_dict() for d in report.divergences]
    assert not report.violations, report.violations
    after = [o for o in report.outcomes if o.variant == "full" and o.query_index >= ONSET]
    assert {o.status for o in after} <= {"ok", "degraded", "error"}
    if cache_bytes == CACHES[0]:
        # Everything over r alone is still answered from cache, untagged;
        # the hybrids lose their remote part and say so.
        by_query = {QUERIES[o.query_index]: o.status for o in after}
        assert by_query["k1(7, 8) :- r(3, Y)"] == "ok"
        assert by_query["n3 :- r(X, Y), Y < 2, Y > 3"] == "ok"
        assert by_query["h3(X) :- r(X, 2), u(5)"] == "degraded"
        assert report.degraded_answers >= 2


def shape_of(plan, indexed):
    if plan.strategy == "cache-full":
        return "lazy" if plan.lazy else "indexed" if indexed else "cache-full"
    if plan.strategy != "hybrid":
        return plan.strategy
    (bare,) = [type(part) for part in plan.parts if not part.columns]
    return {CachePart: "hybrid cache-exists", RemotePart: "hybrid remote-exists"}[bare]


def test_the_full_cms_plans_every_shape_the_sequence_is_named_for(monkeypatch):
    probes = []
    derive_full = engine_module.TupleEngine.derive_full
    monkeypatch.setattr(
        engine_module.TupleEngine,
        "derive_full",
        lambda self, match, query, prefiltered=None: probes.append(
            prefiltered is not None
        )
        or derive_full(self, match, query, prefiltered=prefiltered),
    )
    case = make_case()
    cms = build_variant(case, "full")
    cms.begin_session(case.build_advice())
    for (text, shape), query in zip(SEQUENCE, case.parsed_queries()):
        del probes[:]
        hits = cms.metrics.get(CACHE_HITS_EXACT)
        stream = cms.query(query)
        assert stream.lazy == (shape == "lazy"), text
        assert set(stream.fetch_all()) == oracle(text), text
        exact = cms.metrics.get(CACHE_HITS_EXACT) - hits
        assert exact == (shape == "exact"), text
        if exact:
            assert cms.last_plan is None, text  # read as stored, never planned
        else:
            assert shape_of(cms.last_plan, indexed=probes == [True]) == shape, text
        cms.check_invariants()
        stream.check_invariants()


def test_the_federated_scatter_gathers_existence_only_parts():
    case = make_case()
    cms = build_variant(case, FEDERATED_VARIANT)
    gathers = []
    combine = cms.monitor._combine

    def spy(parts, plan, partial=False):
        gathers.append(
            (
                plan.query.name,
                [
                    (not rows.schema.attributes[0].startswith("_exists_"), len(rows))
                    for rows in parts
                ],
            )
        )
        return combine(parts, plan, partial)

    cms.monitor._combine = spy
    cms.begin_session(case.build_advice())
    for text in QUERIES[:4]:
        assert set(cms.query(parse_query(text)).fetch_all()) == oracle(text)
        assert all(isinstance(p, RemotePart) for p in cms.last_plan.parts)
    shapes = dict(gathers)
    # (has columns, rows) of each backend's part, combined once: one bare
    # existence share beside a valued one, open and closed; then nothing
    # but existence shares, open and closed.
    assert sorted(shapes["f1"]) == [(False, 1), (True, 30)]
    assert (False, 0) in shapes["f2"] and any(valued for valued, _n in shapes["f2"])
    assert [valued for valued, _n in shapes["f3"]] == [False, False]
    assert all(rows == 1 for _valued, rows in shapes["f3"])
    assert [valued for valued, _n in shapes["f4"]] == [False, False]
    assert 0 in [rows for _valued, rows in shapes["f4"]]


def test_a_drained_lazy_element_served_exactly_is_traced_not_crashed():
    # ``stream.ready`` used to take len() of whatever backed the stream; a
    # generator has none, so a traced exact hit on a drained lazy element
    # raised TypeError.
    from repro.obs.tracer import Tracer

    case = make_case()
    cms = build_variant(case, "full")
    cms.tracer = cms.monitor.tracer = Tracer(cms.clock)
    cms.begin_session(case.build_advice())
    lazy = parse_query("lz :- r(X, Y), Y < 9")
    cms.query(parse_query("w(X, Y) :- r(X, Y)")).fetch_all()
    assert cms.query(lazy).fetch_all() == [(True,)]
    hits = cms.metrics.get(CACHE_HITS_EXACT)
    again = cms.query(lazy)
    assert cms.metrics.get(CACHE_HITS_EXACT) == hits + 1
    assert cms.last_plan is None and again.lazy
    assert again.fetch_all() == [(True,)]


def every_bridge():
    case = make_case()
    bridges = {name: build_variant(case, name) for name in ALL_VARIANTS}
    bridges["naive-federation"] = _build_federation(case).naive()
    for bridge in bridges.values():
        bridge.begin_session()
    return bridges


def test_the_front_door_is_the_same_through_every_bridge():
    """AGG, SETOF/BAGOF, the quantifiers and an evaluable residue, over
    boolean and empty operands: one dispatcher, so one answer."""
    from repro.caql.ast import AggregateQuery, QuantifiedQuery, SetOfQuery
    from repro.caql.eval import (
        evaluate_aggregate,
        evaluate_quantified,
        evaluate_setof,
    )
    from repro.common.errors import PlanningError

    database = dict(RELATIONS)

    def direct(text):
        return evaluate_conjunctive(parse_query(text), database.__getitem__)

    some, none = "v(X, Y) :- r(X, Y), Y > 5", "e(X, Y) :- r(X, Y), Y > 9"
    yes, no = "b1 :- r(3, Y)", "b2 :- r(77, Y)"
    count = (("count", 0, "n"),)
    wrapped = []
    for text in (some, none, yes, no):
        base = parse_query(text)
        if base.arity:  # AGG needs a column to name, even for count
            agg = AggregateQuery(base, group_by=(), aggregations=count)
            wrapped.append((agg, evaluate_aggregate(agg, direct(text))))
        for bag in (False, True):
            setof = SetOfQuery(base, with_counts=bag)
            wrapped.append((setof, evaluate_setof(setof, direct(text))))
        for quantifier in ("exists", "any"):
            quantified = QuantifiedQuery(quantifier, base)
            wrapped.append((quantified, evaluate_quantified(quantified, direct(text))))
    subset = QuantifiedQuery("all", parse_query(some), parse_query("a(X, Y) :- r(X, Y)"))
    wrapped.append((subset, evaluate_quantified(subset, direct(some), database["r"])))
    evaluable = "p(X, S) :- r(X, Y), plus(Y, 1, S), Y > 5"

    for name, bridge in every_bridge().items():
        for query, expected in wrapped:
            stream = bridge.query(query)
            assert set(stream.fetch_all()) == set(expected), (name, str(query))
            assert not stream.degraded
        assert set(bridge.query(parse_query(evaluable)).fetch_all()) == set(
            direct(evaluable)
        ), name
        with pytest.raises(PlanningError, match="not a CAQL query"):
            bridge.query("r(X, Y)")


# -- the shared row builder against the oracle's own projection ---------------------

COLUMNS = ("t0.c0", "t0.c1", "t0.c2")


@st.composite
def projections(draw):
    rows = draw(
        st.lists(st.tuples(*[st.integers(0, 2)] * 3), max_size=8, unique=True)
    )
    kind = draw(st.sampled_from(["col", "const", "mixed", "repeated", "empty"]))
    column, const = st.sampled_from(COLUMNS), st.builds(ConstProj, st.integers(7, 9))
    if kind == "empty":
        entries = []
    elif kind == "col":
        entries = draw(st.lists(column, min_size=1, max_size=4, unique=True))
    elif kind == "const":
        entries = draw(st.lists(const, min_size=1, max_size=3))
    elif kind == "repeated":
        first = draw(column)
        entries = [first, *draw(st.lists(st.one_of(column, const), max_size=2)), first]
    else:
        entries = draw(st.lists(st.one_of(column, const), min_size=1, max_size=5))
    return rows, tuple(entries)


@settings(max_examples=300, deadline=None)
@given(projections())
def test_the_row_builder_is_the_oracles_projection(projection):
    rows, entries = projection
    combined = Relation(Schema("t0", COLUMNS), rows)
    psj = PSJQuery("q", (Occurrence("t0", "r", 3),), (), entries)
    schema = result_schema("q", len(entries))
    expected = _project_result(combined, psj, schema).rows
    built = projection_entries(entries, combined.schema)
    assert project_entries(combined, built, schema).rows == expected
    pipelined = GeneratorRelation(schema, lambda: entry_rows(iter(rows), built))
    assert pipelined.to_extension().rows == expected
    if not entries:
        assert expected == ([(True,)] if rows else [])


def test_only_the_relation_buffer_bills_an_occurrence_free_answer():
    # Kept as it was when each bridge carried its own guard: the buffer
    # evaluates everything locally and charges the row it builds.
    from repro.common.metrics import CACHE_TUPLES_PROCESSED

    case = make_case()
    billed = {}
    for variant in ("loose", "exact-cache", "relation-buffer"):
        bridge = build_variant(case, variant)
        before = bridge.clock.now
        for text in ("c1(3, 4) :- 1 < 2", "c0 :- 1 < 2", "n1(X) :- r(X, Y), 1 > 2"):
            bridge.query(parse_query(text)).fetch_all()
        billed[variant] = (
            bridge.metrics.get(CACHE_TUPLES_PROCESSED),
            bridge.clock.now > before,
        )
    assert billed == {
        "loose": (0, False),
        "exact-cache": (0, False),
        "relation-buffer": (2, True),
    }
