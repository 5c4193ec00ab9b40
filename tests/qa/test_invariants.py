"""The invariant hooks must actually catch corruption.

Every ``check_invariants`` the fuzzer calls is exercised here twice: once
on a healthy object (no raise) and once after deliberately corrupting the
internal structures it guards (must raise).  Without these tests a hook
could silently rot into a no-op and the fuzzer would audit nothing.
"""

import pytest

from repro.caql.eval import evaluate_psj, psj_of, result_schema
from repro.caql.parser import parse_query
from repro.common.metrics import Metrics
from repro.core.cache import Cache, pin_anchor
from repro.core.executor import ResultStream
from repro.core.plan import BindingSpec, QueryPlan, RemotePart
from repro.core.subsumption import find_relevant
from repro.qa import (
    CaseConfig,
    CaseGenerator,
    InvariantViolation,
    audit,
    audit_cms,
    run_corpus,
)
from repro.relational.expressions import Col, Comparison
from repro.relational.generator import GeneratorRelation
from repro.relational.relation import Relation
from repro.relational.schema import Schema

DB = {
    "r": Relation(result_schema("r", 2), [(1, 2), (2, 3), (3, 4)]),
    "s": Relation(result_schema("s", 2), [(2, 9), (3, 8)]),
}


def stored_cache():
    cache = Cache()
    psj = psj_of(parse_query("e(X, Y) :- r(X, Y)"))
    element = cache.store(psj, evaluate_psj(psj, DB.__getitem__))
    return cache, element


class TestCacheInvariants:
    def test_healthy_cache_passes(self):
        cache, _ = stored_cache()
        cache.check_invariants()

    def test_negative_pin_count(self):
        cache, element = stored_cache()
        element.pin_count = -1
        with pytest.raises(InvariantViolation, match="pin count"):
            cache.check_invariants()

    def test_row_mutated_in_place_after_sizing(self):
        # Breaks Relation's append-only contract: the memoized size no
        # longer matches what a recount of the rows gives.
        cache, element = stored_cache()
        cache.used_bytes()
        element.relation._rows[0] = ("a string long enough to count", 2)
        with pytest.raises(InvariantViolation, match="recount"):
            cache.check_invariants()

    def test_planted_duplicate_row_in_a_stored_element(self):
        # Selections and joins adopt their output without a dedupe pass;
        # a kernel that produced a duplicate must not survive the audit
        # even when the relation never reaches a ResultStream.
        cache, element = stored_cache()
        rows = element.relation.rows
        element.relation = Relation.from_distinct_rows(
            element.relation.schema, rows + rows[:1]
        )
        with pytest.raises(InvariantViolation, match="duplicate"):
            cache.check_invariants()

    def test_stored_row_of_the_wrong_arity(self):
        cache, element = stored_cache()
        element.relation = Relation.from_distinct_rows(
            element.relation.schema, element.relation.rows + [(9, 9, 9)]
        )
        with pytest.raises(InvariantViolation, match="arity"):
            cache.check_invariants()

    def test_churny_corpus_audits_clean(self):
        # Small caches, many queries, intermediates: every stored element
        # is recounted after every query.
        cases = CaseGenerator(7, CaseConfig.churny()).corpus(4)
        report = run_corpus(cases, seed=7)
        assert not report.failed_cases, f"violations={report.violations}"

    def test_growing_generator_element_recounts_clean(self):
        cache = Cache()
        psj = psj_of(parse_query("e(X, Y) :- r(X, Y)"))
        lazy = GeneratorRelation(result_schema("e", 2), lambda: iter(DB["r"]))
        cache.store(psj, lazy)
        rows = iter(lazy)
        for _ in range(3):
            next(rows)
            cache.check_invariants()

    # The one per-predicate index: ``_unpinned`` (predicate -> ids) beside
    # ``_by_pin`` (predicate -> anchor slot -> constant -> ids).  Each case
    # corrupts it one way; the rebuild-and-compare must notice.

    def test_element_missing_from_predicate_index(self):
        cache, element = stored_cache()
        cache._unpinned["r"].pop(element.element_id)
        with pytest.raises(InvariantViolation, match="pin index"):
            cache.check_invariants()

    def test_stray_key_index_entry(self):
        cache, element = stored_cache()
        cache._by_key[("bogus",)] = element.element_id
        with pytest.raises(InvariantViolation, match="key index"):
            cache.check_invariants()

    def test_predicate_bucket_referencing_retired_element(self):
        cache, _ = stored_cache()
        cache._unpinned["r"]["E999"] = None
        with pytest.raises(InvariantViolation, match="pin index"):
            cache.check_invariants()

    def test_empty_predicate_bucket(self):
        cache, _ = stored_cache()
        cache._by_pin["ghost"] = {}
        with pytest.raises(InvariantViolation, match="pin index"):
            cache.check_invariants()

    @staticmethod
    def pinned_cache():
        """One element the pin index files under ``r``'s first argument = 1."""
        cache = Cache()
        psj = psj_of(parse_query("e(Y) :- r(1, Y)"))
        element = cache.store(psj, evaluate_psj(psj, DB.__getitem__))
        slot, value = pin_anchor(element.signature)
        assert cache._by_pin == {"r": {slot: {value: {element.element_id: None}}}}
        assert cache._unpinned == {}
        cache.check_invariants()
        return cache, element, slot, value

    def test_stale_pin_bucket_entry(self):
        cache, _, slot, value = self.pinned_cache()
        cache._by_pin["r"][slot][value]["E999"] = None
        with pytest.raises(InvariantViolation, match="pin index"):
            cache.check_invariants()

    def test_element_missing_from_pin_index(self):
        cache, _, slot, _ = self.pinned_cache()
        del cache._by_pin["r"][slot]
        with pytest.raises(InvariantViolation, match="pin index"):
            cache.check_invariants()

    def test_empty_pin_bucket(self):
        cache, _, _, _ = self.pinned_cache()
        cache._unpinned["r"] = {}
        with pytest.raises(InvariantViolation, match="pin index"):
            cache.check_invariants()

    def test_running_byte_total_off_by_one(self):
        cache, _ = stored_cache()
        cache._extension_bytes += 1
        with pytest.raises(InvariantViolation, match="running byte total"):
            cache.check_invariants()


def lone_server(_table):
    """A lone server's backend resolver: backend ``""`` owns every table."""
    return "", None


def remote_part(psj, tags, **kwargs):
    return RemotePart(
        sub_query=psj, columns=tuple(psj.projection), tags=frozenset(tags), **kwargs
    )


class TestPlanInvariants:
    PSJ = psj_of(parse_query("q(X, Z) :- r(X, Y), s(Y, Z)"))
    TAGS = sorted(occ.tag for occ in PSJ.occurrences)

    def test_remote_plan_covering_everything_passes(self):
        plan = QueryPlan(self.PSJ, "remote", parts=(remote_part(self.PSJ, self.TAGS),))
        plan.check_invariants(lone_server)

    def test_terminal_strategies_are_always_consistent(self):
        QueryPlan(self.PSJ, "unsatisfiable").check_invariants(lone_server)
        QueryPlan(self.PSJ, "unit").check_invariants(lone_server)

    def test_uncovered_occurrence(self):
        plan = QueryPlan(
            self.PSJ, "remote", parts=(remote_part(self.PSJ, self.TAGS[:1]),)
        )
        with pytest.raises(InvariantViolation, match="covered by no part"):
            plan.check_invariants(lone_server)

    def test_unknown_tag(self):
        plan = QueryPlan(
            self.PSJ, "remote", parts=(remote_part(self.PSJ, ["t9"]),)
        )
        with pytest.raises(InvariantViolation, match="unknown tags"):
            plan.check_invariants(lone_server)

    def test_double_coverage(self):
        plan = QueryPlan(
            self.PSJ,
            "remote",
            parts=(
                remote_part(self.PSJ, self.TAGS),
                remote_part(self.PSJ, self.TAGS[:1]),
            ),
        )
        with pytest.raises(InvariantViolation, match="more than one"):
            plan.check_invariants(lone_server)

    def test_lazy_plan_touching_remote(self):
        plan = QueryPlan(
            self.PSJ, "remote", parts=(remote_part(self.PSJ, self.TAGS),), lazy=True
        )
        with pytest.raises(InvariantViolation, match="lazy"):
            plan.check_invariants(lone_server)

    def test_cache_full_without_full_match(self):
        plan = QueryPlan(self.PSJ, "cache-full")
        with pytest.raises(InvariantViolation, match="no full match"):
            plan.check_invariants(lone_server)

    def test_cache_full_plan_with_its_match_passes(self):
        cache, _element = stored_cache()
        psj = psj_of(parse_query("q(X, Y) :- r(X, Y), X > 1"))
        (match,) = find_relevant(cache, psj)
        QueryPlan(psj, "cache-full", full_match=match).check_invariants(lone_server)

    def test_exact_plan_without_its_element(self):
        # An exact hit is read without a plan; a plan claiming the
        # strategy covers nothing.
        plan = QueryPlan(self.PSJ, "exact")
        with pytest.raises(InvariantViolation, match="covered by no part"):
            plan.check_invariants(lone_server)

    def test_second_remote_part(self):
        first, second = ([tag] for tag in self.TAGS)
        plan = QueryPlan(
            self.PSJ,
            "remote",
            parts=(remote_part(self.PSJ, first), remote_part(self.PSJ, second)),
        )
        with pytest.raises(InvariantViolation, match="more than one remote part"):
            plan.check_invariants(lone_server)

    def test_binding_from_a_column_no_cache_part_exposes(self):
        remote_column = sorted(self.PSJ.all_columns())[0]
        part = remote_part(
            self.PSJ,
            self.TAGS,
            bind_columns=(
                BindingSpec(
                    remote_column=remote_column,
                    source_column="t9.a9",
                    condition=Comparison(Col(remote_column), "=", Col("t9.a9")),
                ),
            ),
        )
        plan = QueryPlan(self.PSJ, "hybrid", parts=(part,))
        with pytest.raises(InvariantViolation):
            plan.check_invariants(lone_server)


class TestMetricsInvariants:
    def test_healthy_ledger_passes(self):
        metrics = Metrics()
        metrics.incr("remote.requests")
        metrics.scope("session").incr("cache.hits")
        metrics.check_invariants()

    def test_negative_counter(self):
        metrics = Metrics()
        metrics.counters["x"] = -1
        with pytest.raises(InvariantViolation, match="negative"):
            metrics.check_invariants()

    def test_non_finite_counter(self):
        metrics = Metrics()
        metrics.counters["x"] = float("inf")
        with pytest.raises(InvariantViolation, match="non-finite"):
            metrics.check_invariants()

    def test_child_scope_with_broken_parent_pointer(self):
        metrics = Metrics()
        child = metrics.scope("child")
        child.parent = None
        with pytest.raises(InvariantViolation, match="parent"):
            metrics.check_invariants()

    def test_corruption_in_a_child_scope_is_found(self):
        metrics = Metrics()
        metrics.scope("child").counters["x"] = -5
        with pytest.raises(InvariantViolation, match="child"):
            metrics.check_invariants()


class TestStreamInvariants:
    SCHEMA = Schema("q", ("a0", "a1"))

    def test_healthy_stream_passes(self):
        stream = ResultStream(Relation(self.SCHEMA, [(1, 2), (3, 4)]), "q")
        stream.fetch_all()
        stream.check_invariants()

    def test_duplicate_production(self):
        relation = Relation(self.SCHEMA, [(1, 2), (3, 4)])
        relation._rows.append((1, 2))  # bypass the dedup path
        with pytest.raises(InvariantViolation, match="duplicate"):
            ResultStream(relation, "q").check_invariants()

    def test_arity_violation(self):
        relation = Relation(self.SCHEMA, [(1, 2)])
        relation._rows.append((1, 2, 3))  # its row set is not built yet
        with pytest.raises(InvariantViolation, match="arity"):
            ResultStream(relation, "q").check_invariants()

    def test_drained_generator_replays_exactly(self):
        generated = GeneratorRelation(
            self.SCHEMA, lambda: iter([(1, 2), (3, 4), (1, 2)])
        )
        stream = ResultStream(generated, "q")
        rows = stream.fetch_all()
        assert len(rows) == 2  # deduplicated
        stream.check_invariants()  # exhausted: replay must produce nothing new


class TestAggregators:
    def test_audit_skips_objects_without_hooks(self):
        audit(object(), None, 42)  # nothing to check, nothing raised

    def test_audit_raises_on_first_violation(self):
        metrics = Metrics()
        metrics.counters["x"] = -1
        with pytest.raises(InvariantViolation):
            audit(Metrics(), metrics)

    def test_audit_cms_covers_a_real_system(self):
        from repro.qa import CaseGenerator
        from repro.qa.differential import build_variant

        case = CaseGenerator(0).generate(0)
        cms = build_variant(case, "full")
        cms.begin_session(case.build_advice())
        for query in case.parsed_queries():
            cms.query(query).fetch_all()
        audit_cms(cms)  # healthy run: every hook passes
