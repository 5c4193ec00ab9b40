"""Shrinking failing cases to minimal replayable repro files.

Given a failing :class:`~repro.qa.generator.FuzzCase` and a failure
predicate, the shrinker produces the smallest case it can that still
fails *for the same class of reason*:

1. **ddmin over the query sequence** — delta debugging: try dropping
   chunks of queries (halves, then quarters, ...) and keep any reduction
   that still fails;
2. **structure reduction** — drop the advice, the path expression, and
   the fault schedule when the failure survives without them;
3. **garbage collection** — remove base tables no remaining query or
   advice view references.

Shrinking is deterministic (no randomness: reductions are tried in a
fixed order), so the same failing case always shrinks to the same repro.
The result is written as a JSON repro file that :func:`load_repro` reads
back and :func:`replay` re-executes through the differential runner.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

from repro.obs.export import canonical_json
from repro.qa.generator import FuzzCase
from repro.caql.ast import COMPARISON_PREDS
from repro.caql.parser import parse_query

#: A failure oracle: one-line reason the case fails, or None when clean.
FailureFn = Callable[[FuzzCase], "str | None"]

#: Format marker written into repro files.
REPRO_FORMAT = "repro.qa/1"


@dataclass
class ShrinkResult:
    """The minimal failing case plus how it was reached."""

    case: FuzzCase
    reason: str
    #: How many candidate reductions were evaluated.
    attempts: int
    #: Query count before → after.
    original_queries: int

    @property
    def queries(self) -> int:
        return len(self.case.queries)


def _with_queries(case: FuzzCase, queries: list[str]) -> FuzzCase:
    out = FuzzCase.from_dict(case.to_dict())
    out.queries = list(queries)
    return out


def _ddmin(
    case: FuzzCase, is_failing: FailureFn, counter: list[int]
) -> tuple[FuzzCase, str]:
    """Classic delta debugging over the query sequence."""
    queries = list(case.queries)
    reason = is_failing(case)
    assert reason is not None, "ddmin needs a failing case"
    granularity = 2
    while len(queries) >= 2:
        chunk = max(1, len(queries) // granularity)
        reduced = False
        start = 0
        while start < len(queries):
            candidate_queries = queries[:start] + queries[start + chunk:]
            if not candidate_queries:
                start += chunk
                continue
            candidate = _with_queries(case, candidate_queries)
            counter[0] += 1
            candidate_reason = is_failing(candidate)
            if candidate_reason is not None:
                queries = candidate_queries
                reason = candidate_reason
                granularity = max(granularity - 1, 2)
                reduced = True
                # restart scanning the (shorter) sequence
                start = 0
                continue
            start += chunk
        if not reduced:
            if granularity >= len(queries):
                break
            granularity = min(len(queries), granularity * 2)
    return _with_queries(case, queries), reason


def _referenced_tables(case: FuzzCase) -> set[str]:
    names: set[str] = set()
    for text in list(case.queries) + list(case.advice_views):
        for literal in parse_query(text).literals:
            if literal.pred not in COMPARISON_PREDS and not literal.negated:
                names.add(literal.pred)
    return names


def shrink(case: FuzzCase, is_failing: FailureFn) -> ShrinkResult:
    """Reduce ``case`` to a minimal sequence that still fails."""
    counter = [0]
    original = len(case.queries)
    current, reason = _ddmin(case, is_failing, counter)

    # Structure reduction: advice, path, faults — in that order, each kept
    # out only when the failure survives its removal.
    for strip in ("path_views", "advice", "fault"):
        candidate = FuzzCase.from_dict(current.to_dict())
        if strip == "path_views":
            if not candidate.path_views:
                continue
            candidate.path_views = []
        elif strip == "advice":
            if not candidate.advice_views:
                continue
            candidate.advice_views = []
            candidate.advice_annotations = []
            candidate.path_views = []
        else:
            if candidate.fault is None:
                continue
            candidate.fault = None
        counter[0] += 1
        candidate_reason = is_failing(candidate)
        if candidate_reason is not None:
            current = candidate
            reason = candidate_reason

    # Garbage-collect unreferenced tables (no re-check needed: a table no
    # query mentions cannot influence any variant, but be conservative and
    # verify anyway so the repro is guaranteed failing).
    referenced = _referenced_tables(current)
    pruned = FuzzCase.from_dict(current.to_dict())
    pruned.tables = [t for t in pruned.tables if t["name"] in referenced]
    if len(pruned.tables) != len(current.tables):
        counter[0] += 1
        pruned_reason = is_failing(pruned)
        if pruned_reason is not None:
            current = pruned
            reason = pruned_reason

    return ShrinkResult(
        case=current, reason=reason, attempts=counter[0], original_queries=original
    )


# -- repro files -----------------------------------------------------------------------


def write_repro(path, case: FuzzCase, reason: str = "") -> None:
    """Write a replayable JSON repro file (canonical, so diff-friendly)."""
    payload = {
        "format": REPRO_FORMAT,
        "reason": reason,
        "case": case.to_dict(),
    }
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(canonical_json(payload))
        handle.write("\n")


def load_repro(path) -> FuzzCase:
    """Read a repro file back into a case."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("format") != REPRO_FORMAT:
        raise ValueError(f"{path}: not a {REPRO_FORMAT} repro file")
    return FuzzCase.from_dict(payload["case"])


def replay(path):
    """Re-execute a repro file through the differential runner."""
    from repro.qa.differential import run_case

    return run_case(load_repro(path))
