"""The inference engine: problem graphs, shaping, advice, strategies."""

from repro.ie.advice_gen import generate_advice, simplest_advice
from repro.ie.controller import DepthFirstController
from repro.ie.engine import InferenceEngine, Solutions
from repro.ie.explain import Explainer, Proof
from repro.ie.extractor import extract_problem_graph
from repro.ie.path_creator import create_path_expression
from repro.ie.problem_graph import (
    BUILTIN,
    DATABASE,
    RECURSIVE_REF,
    UNKNOWN,
    USER,
    AndNode,
    OrNode,
)
from repro.ie.shaper import shape
from repro.ie.strategies import (
    STRATEGIES,
    CompiledResult,
    CompiledStrategy,
    specifier_config_for,
)
from repro.ie.view_specifier import (
    SpecifierConfig,
    SpecifierResult,
    flatten_graph,
    minimal_argument_set,
    specify_views,
)

__all__ = [
    "AndNode",
    "BUILTIN",
    "CompiledResult",
    "CompiledStrategy",
    "DATABASE",
    "DepthFirstController",
    "Explainer",
    "Proof",
    "InferenceEngine",
    "OrNode",
    "RECURSIVE_REF",
    "STRATEGIES",
    "Solutions",
    "SpecifierConfig",
    "SpecifierResult",
    "UNKNOWN",
    "USER",
    "create_path_expression",
    "extract_problem_graph",
    "flatten_graph",
    "generate_advice",
    "minimal_argument_set",
    "shape",
    "simplest_advice",
    "specifier_config_for",
    "specify_views",
]
