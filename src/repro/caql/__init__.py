"""CAQL — the Cache Query Language: AST, PSJ form, evaluation, translation."""

from repro.caql.ast import (
    COMPARISON_PREDS,
    AggregateQuery,
    CAQLQuery,
    ConjunctiveQuery,
    QuantifiedQuery,
    SetOfQuery,
)
from repro.caql.eval import (
    apply_evaluable,
    core_plan,
    evaluate_aggregate,
    evaluate_conjunctive,
    evaluate_psj,
    evaluate_quantified,
    evaluate_setof,
    psj_of,
    result_schema,
    split_literals,
)
from repro.caql.implication import ConditionSet
from repro.caql.parser import parse_query, parse_query_pattern
from repro.caql.psj import (
    ConstProj,
    Occurrence,
    PSJQuery,
    column,
    parse_column,
    psj_from_literals,
)
from repro.caql.translate import SQLTranslation, sql_from_psj

__all__ = [
    "AggregateQuery",
    "CAQLQuery",
    "COMPARISON_PREDS",
    "ConditionSet",
    "ConjunctiveQuery",
    "ConstProj",
    "Occurrence",
    "PSJQuery",
    "SQLTranslation",
    "SetOfQuery",
    "column",
    "evaluate_aggregate",
    "QuantifiedQuery",
    "apply_evaluable",
    "core_plan",
    "evaluate_conjunctive",
    "evaluate_quantified",
    "evaluate_psj",
    "evaluate_setof",
    "parse_column",
    "parse_query",
    "parse_query_pattern",
    "psj_from_literals",
    "psj_of",
    "result_schema",
    "split_literals",
    "sql_from_psj",
]
