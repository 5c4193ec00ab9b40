"""Logic substrate: terms, unification, parsing, knowledge bases, SOAs."""

from repro.logic.builtins import BuiltinRegistry
from repro.logic.kb import KnowledgeBase
from repro.logic.parser import (
    Clause,
    parse_atom,
    parse_clause,
    parse_program,
)
from repro.logic.soa import (
    FunctionalDependency,
    MutualExclusion,
    RecursiveStructure,
    SOARegistry,
)
from repro.logic.terms import (
    EMPTY_SUBSTITUTION,
    Atom,
    Const,
    Substitution,
    Term,
    Var,
    fresh_var,
    rename_apart,
)
from repro.logic.unify import unify, unify_terms

__all__ = [
    "Atom",
    "BuiltinRegistry",
    "Clause",
    "Const",
    "EMPTY_SUBSTITUTION",
    "FunctionalDependency",
    "KnowledgeBase",
    "MutualExclusion",
    "RecursiveStructure",
    "SOARegistry",
    "Substitution",
    "Term",
    "Var",
    "fresh_var",
    "parse_atom",
    "parse_clause",
    "parse_program",
    "rename_apart",
    "unify",
    "unify_terms",
]
