"""Tests for workload generators."""

import pytest

from repro.caql.ast import COMPARISON_PREDS
from repro.workloads.genealogy import genealogy
from repro.workloads.queries import (
    StreamSpec,
    range_query_stream,
    repeated_selection_stream,
)
from repro.workloads.suppliers import suppliers
from repro.workloads.synthetic import chain, selection_universe
from tests.workloads import table


class TestGenealogy:
    def test_deterministic(self):
        a, b = genealogy(seed=1), genealogy(seed=1)
        assert table(a, "parent").rows == table(b, "parent").rows

    def test_seed_changes_data(self):
        assert table(genealogy(seed=1), "parent").rows != table(genealogy(seed=2), "parent").rows

    def test_every_person_has_sex_and_age(self):
        w = genealogy()
        people = set()
        for par, child in table(w, "parent"):
            people.add(par)
            people.add(child)
        sexed = table(w, "male").distinct_values("person") | table(w, "female").distinct_values("person")
        aged = table(w, "age").distinct_values("person")
        assert people <= sexed
        assert people <= aged

    def test_sexes_disjoint(self):
        w = genealogy()
        males = table(w, "male").distinct_values("person")
        females = table(w, "female").distinct_values("person")
        assert not males & females

    def test_generation_structure(self):
        w = genealogy(generations=3, branching=2, roots=1, seed=5)
        parents = table(w, "parent")
        children = {c for _p, c in parents}
        roots = {p for p, _c in parents} - children
        assert roots == {"p0"}

    def test_kb_builds_cleanly(self):
        kb = genealogy().build_kb()
        assert kb.validate() == []
        assert kb.soas.recursive_for("ancestor") is not None


class TestSuppliers:
    def test_shipment_references_valid(self):
        w = suppliers()
        supplier_ids = table(w, "supplier").distinct_values("s_id")
        part_ids = table(w, "part").distinct_values("p_id")
        for s_id, p_id, _qty, _cost in table(w, "shipment"):
            assert s_id in supplier_ids
            assert p_id in part_ids

    def test_requested_sizes(self):
        w = suppliers(n_suppliers=5, n_parts=7, n_shipments=20)
        assert len(table(w, "supplier")) == 5
        assert len(table(w, "part")) == 7
        assert len(table(w, "shipment")) == 20

    def test_kb_builds_cleanly(self):
        kb = suppliers().build_kb()
        assert kb.validate() == []

    def test_fd_soas_present(self):
        w = suppliers()
        kb = w.build_kb()
        assert kb.soas.fds_for("supplier", 4)


class TestSynthetic:
    def test_chain_tables(self):
        w = chain(length=4, rows_per_relation=50)
        assert len(w.tables) == 4
        assert all(len(t) <= 50 for t in w.tables)

    def test_chain_rule_arity(self):
        w = chain(length=3)
        kb = w.build_kb()
        assert ("chain", 2) in kb.user_signatures()

    def test_chain_length_validated(self):
        with pytest.raises(ValueError):
            chain(length=0)

    def test_selection_universe(self):
        w = selection_universe(rows=100, domain=50)
        assert len(table(w, "item")) == 100
        assert all(0 <= v < 50 for _i, _c, v in table(w, "item"))


class TestQueryStreams:
    def test_repeated_selection_stream_length(self):
        stream = repeated_selection_stream(
            "q(Y) :- parent($C, Y)", ["tom", "bob"], StreamSpec(length=20, seed=3)
        )
        assert len(stream) == 20

    def test_repetition_rate_one_repeats(self):
        stream = repeated_selection_stream(
            "q(Y) :- parent($C, Y)",
            ["a", "b", "c"],
            StreamSpec(length=10, repetition_rate=1.0, seed=3),
        )
        keys = {str(q) for q in stream}
        assert len(keys) == 1  # everything repeats the first query

    def test_template_requires_placeholder(self):
        with pytest.raises(ValueError):
            repeated_selection_stream("q(Y) :- parent(tom, Y)", ["a"], StreamSpec(5))

    def test_numeric_constants_rendered(self):
        stream = repeated_selection_stream(
            "q(Y) :- edge($C, Y)", [1, 2, 3], StreamSpec(length=5, seed=1)
        )
        assert all("(" in str(q) for q in stream)

    def test_range_stream_shapes(self):
        stream = range_query_stream(
            "item", 2, 3, domain=100, spec=StreamSpec(length=10, seed=2)
        )
        assert len(stream) == 10
        for query in stream:
            comparisons = [lit for lit in query.literals if lit.pred in COMPARISON_PREDS]
            assert len(comparisons) == 2

    def test_range_stream_deterministic(self):
        a = range_query_stream("item", 2, 3, 100, StreamSpec(length=5, seed=2))
        b = range_query_stream("item", 2, 3, 100, StreamSpec(length=5, seed=2))
        assert [str(q) for q in a] == [str(q) for q in b]
