"""The paper's primary contribution: the Cache Management System (CMS)."""

from repro.core.advice_manager import AdviceManager
from repro.core.cache import Cache, CacheElement
from repro.core.cache_model import CACHE_MODEL_SCHEMA, cache_model, cache_statistics
from repro.core.cms import CacheManagementSystem, CMSFeatures
from repro.core.executor import ExecutionMonitor, ResultStream
from repro.core.plan import CachePart, QueryPlan, RemotePart
from repro.core.planner import PlannerFeatures, QueryPlanner
from repro.core.rdi import RemoteInterface
from repro.core.subsumption import (
    SubsumptionMatch,
    derive_full,
    derive_full_lazy,
    derive_part,
    find_relevant,
    match_element,
)

__all__ = [
    "AdviceManager",
    "CACHE_MODEL_SCHEMA",
    "Cache",
    "CacheElement",
    "CacheManagementSystem",
    "CachePart",
    "CMSFeatures",
    "ExecutionMonitor",
    "PlannerFeatures",
    "QueryPlan",
    "QueryPlanner",
    "RemoteInterface",
    "RemotePart",
    "ResultStream",
    "SubsumptionMatch",
    "cache_model",
    "cache_statistics",
    "derive_full",
    "derive_full_lazy",
    "derive_part",
    "find_relevant",
    "match_element",
]
