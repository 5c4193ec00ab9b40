"""Relational substrate: schemas, relations, generators, indexes, operators."""

from repro.relational.expressions import (
    Col,
    Comparison,
    Lit,
    col_eq,
    compile_conjunction,
    eq,
)
from repro.relational.generator import (
    GeneratorRelation,
    generator_from_relation,
    generator_from_rows,
)
from repro.relational.index import HashIndex, IndexSet
from repro.relational.operators import (
    aggregate,
    join,
    join_iter,
    project,
    select,
    select_iter,
    transitive_closure,
    union,
)
from repro.relational.relation import Relation, relation_from_columns
from repro.relational.schema import Schema, generic_schema
from repro.relational.statistics import (
    AttributeStats,
    RelationStatistics,
    estimate_join_size,
)

__all__ = [
    "AttributeStats",
    "Col",
    "Comparison",
    "GeneratorRelation",
    "HashIndex",
    "IndexSet",
    "Lit",
    "Relation",
    "RelationStatistics",
    "Schema",
    "aggregate",
    "col_eq",
    "compile_conjunction",
    "eq",
    "estimate_join_size",
    "generator_from_relation",
    "generator_from_rows",
    "generic_schema",
    "join",
    "join_iter",
    "project",
    "relation_from_columns",
    "select",
    "select_iter",
    "transitive_closure",
    "union",
]
