"""Seeded case generation: determinism, round-trips, well-formedness."""

import json

from repro.caql.parser import parse_query
from repro.obs.export import canonical_json
from repro.qa import CaseConfig, CaseGenerator, FuzzCase, encode_rows
from repro.qa.generator import case_from_relations
from repro.relational.relation import Relation
from repro.relational.schema import Schema


class TestDeterminism:
    def test_same_seed_same_corpus(self):
        first = CaseGenerator(7).corpus(20)
        second = CaseGenerator(7).corpus(20)
        assert [c.to_dict() for c in first] == [c.to_dict() for c in second]
        assert [c.fingerprint() for c in first] == [c.fingerprint() for c in second]

    def test_different_seeds_differ(self):
        a = CaseGenerator(0).generate(0)
        b = CaseGenerator(1).generate(0)
        assert a.fingerprint() != b.fingerprint()

    def test_different_indices_differ(self):
        generator = CaseGenerator(0)
        assert generator.generate(0).fingerprint() != generator.generate(1).fingerprint()

    def test_cases_independent_of_corpus_position(self):
        # Case 5 is the same whether generated alone or inside a corpus.
        alone = CaseGenerator(3).generate(5)
        in_corpus = CaseGenerator(3).corpus(10)[5]
        assert alone.to_dict() == in_corpus.to_dict()

    def test_faulty_profile_is_a_different_stream_knob(self):
        healthy = CaseGenerator(0, CaseConfig()).corpus(30)
        faulty = CaseGenerator(0, CaseConfig.faulty()).corpus(30)
        assert all(c.fault is None for c in healthy)
        assert any(c.fault is not None for c in faulty)


class TestRoundTrip:
    def test_json_round_trip_preserves_fingerprint(self):
        for case in CaseGenerator(11).corpus(10):
            wire = json.dumps(case.to_dict())
            back = FuzzCase.from_dict(json.loads(wire))
            assert back.to_dict() == case.to_dict()
            assert back.fingerprint() == case.fingerprint()

    def test_from_dict_tolerates_missing_optionals(self):
        case = FuzzCase.from_dict(
            {"seed": 0, "index": 0, "tables": [], "queries": []}
        )
        assert case.fault is None
        assert case.fault_onset == 0
        assert case.build_advice() is None


class TestWellFormedness:
    def test_every_generated_query_parses(self):
        for case in CaseGenerator(5).corpus(25):
            for text in case.queries:
                parse_query(text)
            for text in case.advice_views:
                parse_query(text)

    def test_tables_build_and_match_declared_arity(self):
        for case in CaseGenerator(5).corpus(10):
            for table, relation in zip(case.tables, case.build_tables()):
                assert relation.schema.arity == len(table["columns"])
                for row in relation.rows:
                    assert len(row) == len(table["columns"])

    def test_advice_and_fault_policy_materialize(self):
        built_advice = built_fault = 0
        for case in CaseGenerator(9, CaseConfig.faulty()).corpus(40):
            advice = case.build_advice()
            if advice is not None:
                built_advice += 1
                assert len(case.advice_annotations) == len(case.advice_views)
            policy = case.build_fault_policy()
            if policy is not None:
                built_fault += 1
                assert 0 <= case.fault_onset < max(len(case.queries), 1)
        assert built_advice > 0
        assert built_fault > 0


class TestEncoding:
    def test_encode_rows_keeps_collapsing_types_distinct(self):
        # 1, 1.0, True are Python-equal; "1" repr-collides with 1 — the
        # (type, repr) encoding must keep all four apart.
        encoded = encode_rows([(1,), (1.0,), ("1",), (True,)])
        assert len({tuple(map(tuple, row)) for row in encoded}) == 4

    def test_encode_rows_is_order_insensitive(self):
        assert encode_rows([(1, "a"), (2, "b")]) == encode_rows([(2, "b"), (1, "a")])

    def test_canonical_json_sorts_keys(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})


class TestCaseFromRelations:
    def test_hand_built_case_round_trips(self):
        relation = Relation(Schema("r", ("a0", "a1")), [(1, "x"), (2, "y")])
        case = case_from_relations({"r": relation}, ["q(X) :- r(X, Y)"])
        rebuilt = case.database()["r"]
        assert set(rebuilt.rows) == set(relation.rows)
        assert case.parsed_queries()[0].name == "q"
