"""Relational substrate: schemas, relations, generators, indexes, operators."""

from repro.relational.expressions import (
    Col,
    Comparison,
    Lit,
    compile_conjunction,
)
from repro.relational.generator import GeneratorRelation, generator_from_rows
from repro.relational.index import HashIndex, IndexSet
from repro.relational.operators import (
    aggregate,
    join,
    project,
    select,
    select_iter,
    transitive_closure,
)
from repro.relational.relation import Relation, relation_from_columns
from repro.relational.schema import Schema
from repro.relational.statistics import AttributeStats, RelationStatistics

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
    "compile_conjunction",
    "generator_from_rows",
    "join",
    "project",
    "relation_from_columns",
    "select",
    "select_iter",
    "transitive_closure",
]
