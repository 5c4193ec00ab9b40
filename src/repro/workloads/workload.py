"""The workload container: database tables + knowledge base + queries.

A workload bundles everything a BrAID experiment needs: the base tables to
load into the remote DBMS, the rules and SOAs for the IE's knowledge base,
and named example AI queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.logic.kb import KnowledgeBase
from repro.logic.soa import (
    FunctionalDependency,
    MutualExclusion,
    RecursiveStructure,
)
from repro.relational.relation import Relation

SOA = MutualExclusion | FunctionalDependency | RecursiveStructure


@dataclass
class Workload:
    """A complete experimental setup."""

    name: str
    tables: list[Relation]
    rules: str
    database: tuple[tuple[str, int], ...]
    soas: tuple[SOA, ...] = ()
    #: Named example AI queries (textual atoms).
    example_queries: dict[str, str] = field(default_factory=dict)
    description: str = ""

    def build_kb(self) -> KnowledgeBase:
        """A fresh knowledge base with this workload's rules and SOAs."""
        kb = KnowledgeBase()
        for pred, arity in self.database:
            kb.declare_database(pred, arity)
        kb.add_rules(self.rules)
        for soa in self.soas:
            kb.add_soa(soa)
        return kb
