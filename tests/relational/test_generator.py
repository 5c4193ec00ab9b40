"""Tests for the generator (lazy) relation representation."""

from itertools import islice

from repro.relational.generator import GeneratorRelation, generator_from_rows
from repro.relational.relation import Relation
from repro.relational.schema import Schema

SCHEMA = Schema("p", ("a", "b"))
ROWS = [(1, "x"), (2, "y"), (3, "z")]


def counting_source(rows, counter):
    """A source that counts how many rows the underlying computation yields."""

    def factory():
        for row in rows:
            counter.append(row)
            yield row

    return factory


class TestLaziness:
    def test_nothing_produced_on_construction(self):
        pulled = []
        gen = GeneratorRelation(SCHEMA, counting_source(ROWS, pulled))
        assert pulled == []
        assert gen.produced_count == 0

    def test_take_produces_only_what_is_needed(self):
        pulled = []
        gen = GeneratorRelation(SCHEMA, counting_source(ROWS, pulled))
        assert list(islice(gen, 1)) == [(1, "x")]
        assert len(pulled) == 1

    def test_take_more_than_available(self):
        gen = generator_from_rows(SCHEMA, ROWS)
        assert len(list(islice(gen, 10))) == 3

    def test_exhausted_flag(self):
        gen = generator_from_rows(SCHEMA, ROWS)
        assert not gen.exhausted
        list(gen)
        assert gen.exhausted


class TestMemoization:
    def test_second_iteration_replays_memo(self):
        pulled = []
        gen = GeneratorRelation(SCHEMA, counting_source(ROWS, pulled))
        assert list(gen) == ROWS
        assert list(gen) == ROWS
        assert len(pulled) == 3  # source consumed exactly once

    def test_interleaved_readers_share_production(self):
        pulled = []
        gen = GeneratorRelation(SCHEMA, counting_source(ROWS, pulled))
        first = iter(gen)
        second = iter(gen)
        assert next(first) == (1, "x")
        assert next(second) == (1, "x")  # replayed from memo
        assert len(pulled) == 1

    def test_interleaved_readers_and_a_late_third_replay_one_order(self):
        rows = [(i, "x") for i in range(6)] + [(0, "x")]  # one duplicate
        pulled = []
        gen = GeneratorRelation(SCHEMA, counting_source(rows, pulled))
        first, second = iter(gen), iter(gen)
        seen_first = [next(first), next(first), next(first)]
        seen_second = [next(second)]  # replays while `first` is ahead
        seen_second += [next(second) for _ in range(3)]  # overtakes: pulls row 3
        seen_first.append(next(first))  # replays what `second` pulled
        third = iter(gen)  # joins late, mid-production
        seen_third = [next(third) for _ in range(5)]  # memo, then pulls row 4
        seen_first += list(first)  # drains the source
        seen_second += list(second)
        seen_third += list(third)
        assert seen_first == seen_second == seen_third == rows[:6]
        assert len(pulled) == len(rows)  # source consumed exactly once
        assert list(gen) == rows[:6]

    def test_duplicates_eliminated(self):
        gen = generator_from_rows(SCHEMA, [(1, "x"), (1, "x"), (2, "y")])
        assert list(gen) == [(1, "x"), (2, "y")]

    def test_on_produce_hook_fires_once_per_new_row(self):
        produced = []
        gen = generator_from_rows(SCHEMA, [(1, "x"), (1, "x"), (2, "y")])
        gen.on_produce = produced.append
        list(gen)
        list(gen)
        assert produced == [(1, "x"), (2, "y")]


class TestPromotion:
    def test_to_extension_drains(self):
        gen = generator_from_rows(SCHEMA, ROWS)
        extension = gen.to_extension()
        assert isinstance(extension, Relation)
        assert extension.rows == ROWS

    def test_to_extension_idempotent(self):
        pulled = []
        gen = GeneratorRelation(SCHEMA, counting_source(ROWS, pulled))
        first = gen.to_extension()
        second = gen.to_extension()
        assert first is second
        assert len(pulled) == 3

    def test_partial_consumption_then_promotion(self):
        gen = generator_from_rows(SCHEMA, ROWS)
        next(iter(gen))
        extension = gen.to_extension()
        assert len(extension) == 3
