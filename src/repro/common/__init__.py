"""Shared substrate: errors, simulated time, and metric accounting."""

from repro.common.clock import CostProfile, SimClock
from repro.common.errors import (
    AdviceError,
    BraidError,
    CacheCapacityError,
    CacheError,
    EvaluationError,
    InferenceError,
    KnowledgeBaseError,
    ParseError,
    PlanningError,
    RemoteDBMSError,
    SchemaError,
    TranslationError,
    UnknownRelationError,
)
from repro.common.metrics import Metrics

__all__ = [
    "AdviceError",
    "BraidError",
    "CacheCapacityError",
    "CacheError",
    "CostProfile",
    "EvaluationError",
    "InferenceError",
    "KnowledgeBaseError",
    "Metrics",
    "ParseError",
    "PlanningError",
    "RemoteDBMSError",
    "SchemaError",
    "SimClock",
    "TranslationError",
    "UnknownRelationError",
]
