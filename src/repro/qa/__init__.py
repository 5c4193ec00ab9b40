"""repro.qa — deterministic differential fuzzing and invariant auditing.

The correctness backstop for the whole bridge: seeded case generation
(:mod:`repro.qa.generator`), differential execution against an oracle
hierarchy (:mod:`repro.qa.differential`), invariant aggregation
(:mod:`repro.qa.invariants`), and failure shrinking + replayable repro
files (:mod:`repro.qa.shrink`).  ``python -m repro fuzz`` is the CLI.
"""

from repro.qa.generator import (
    CaseConfig,
    CaseGenerator,
    FuzzCase,
    encode_rows,
    mutate_equivalent,
    render_query,
)
from repro.qa.differential import (
    FEDERATED_VARIANT,
    VARIANTS,
    CaseReport,
    Divergence,
    FuzzReport,
    QueryOutcome,
    case_failure,
    run_case,
    run_corpus,
)
from repro.qa.invariants import (
    InvariantViolation,
    audit,
    audit_cms,
    audit_stream,
)
from repro.qa.shrink import (
    ShrinkResult,
    load_repro,
    replay,
    shrink,
    write_repro,
)

__all__ = [
    "CaseConfig",
    "CaseGenerator",
    "FuzzCase",
    "encode_rows",
    "mutate_equivalent",
    "render_query",
    "FEDERATED_VARIANT",
    "VARIANTS",
    "CaseReport",
    "Divergence",
    "FuzzReport",
    "QueryOutcome",
    "case_failure",
    "run_case",
    "run_corpus",
    "InvariantViolation",
    "audit",
    "audit_cms",
    "audit_stream",
    "ShrinkResult",
    "load_repro",
    "replay",
    "shrink",
    "write_repro",
]
