"""Tests for the Remote DBMS Interface and the cache model."""

import pytest

from repro.common.errors import TranslationError, UnknownRelationError
from repro.common.metrics import REMOTE_REQUESTS
from repro.relational.relation import Relation, relation_from_columns
from repro.remote.server import RemoteDBMS
from repro.caql.eval import evaluate_psj, psj_of, result_schema
from repro.caql.parser import parse_query
from repro.core.cache import Cache
from repro.core.cache_model import CACHE_MODEL_SCHEMA, cache_model, cache_statistics
from repro.core.rdi import RemoteInterface


def make_server():
    server = RemoteDBMS()
    server.load_table(
        relation_from_columns("emp", id=[1, 2, 3], dept=["a", "b", "a"])
    )
    return server


def make_psj(text):
    return psj_of(parse_query(text))


class TestRemoteInterface:
    def test_fetch_matches_local_eval(self):
        server = make_server()
        rdi = RemoteInterface(server)
        psj = make_psj("q(I) :- emp(I, a)")
        local = evaluate_psj(
            psj, {"emp": Relation(result_schema("emp", 2), [(1, "a"), (2, "b"), (3, "a")])}.__getitem__
        )
        assert rdi.fetch(psj) == local

    def test_schema_cached_after_first_lookup(self):
        server = make_server()
        rdi = RemoteInterface(server)
        rdi.schema_of("emp")
        first = server.metrics.get(REMOTE_REQUESTS)
        rdi.schema_of("emp")
        assert server.metrics.get(REMOTE_REQUESTS) == first

    def test_statistics_cached(self):
        server = make_server()
        rdi = RemoteInterface(server)
        assert rdi.statistics_of("emp").cardinality == 3
        first = server.metrics.get(REMOTE_REQUESTS)
        rdi.statistics_of("emp")
        assert server.metrics.get(REMOTE_REQUESTS) == first

    def test_has_table_uses_cache(self):
        server = make_server()
        rdi = RemoteInterface(server)
        rdi.schema_of("emp")
        assert rdi.has_table("emp")
        assert not rdi.has_table("ghost")

    def test_fetch_base_relation_positional_attrs(self):
        rdi = RemoteInterface(make_server())
        relation = rdi.fetch_base_relation("emp")
        assert relation.schema.attributes == ("a0", "a1")
        assert len(relation) == 3

    def test_fetch_base_unknown(self):
        rdi = RemoteInterface(make_server())
        with pytest.raises(UnknownRelationError):
            rdi.fetch_base_relation("ghost")

    def test_fetch_unsatisfiable_rejected(self):
        rdi = RemoteInterface(make_server())
        with pytest.raises(TranslationError):
            rdi.fetch(make_psj("q(I) :- emp(I, a), 1 > 2"))


class TestCacheModel:
    def fill_cache(self):
        cache = Cache()
        psj = make_psj("d1(I) :- emp(I, a)")
        element = cache.store(
            psj, Relation(result_schema("d1", 1), [(1,), (3,)]), use="probe"
        )
        cache.touch(element)
        return cache, element

    def test_model_schema(self):
        cache, _ = self.fill_cache()
        model = cache_model(cache)
        assert model.schema is CACHE_MODEL_SCHEMA
        assert len(model) == 1

    def test_model_row_contents(self):
        cache, element = self.fill_cache()
        (row,) = cache_model(cache).rows
        as_dict = dict(zip(CACHE_MODEL_SCHEMA.attributes, row))
        assert as_dict["e_id"] == element.element_id
        assert as_dict["view"] == "d1"
        assert as_dict["kind"] == "extension"
        assert as_dict["rows"] == 2
        assert as_dict["use_count"] == 1
        assert as_dict["uses"] == "probe"
        assert as_dict["pinned"] == 0

    def test_model_is_queryable_relation(self):
        cache, _ = self.fill_cache()
        model = cache_model(cache)
        assert model.column("view") == ["d1"]

    def test_statistics(self):
        cache, _ = self.fill_cache()
        stats = cache_statistics(cache)
        assert stats["elements"] == 1
        assert stats["extensions"] == 1
        assert stats["generators"] == 0
        assert stats["total_rows"] == 2
        assert 0 < stats["fill_fraction"] < 1

    def test_empty_cache_statistics(self):
        stats = cache_statistics(Cache())
        assert stats["elements"] == 0
        assert stats["fill_fraction"] == 0
