"""The invariant auditor: one place to run every ``check_invariants`` hook.

The hooks themselves live on the audited classes — cheap, read-only
methods that raise :class:`~repro.common.errors.InvariantViolation` when
an internal consistency property is broken:

* :meth:`repro.core.cache.Cache.check_invariants` — index bijections,
  refcount sanity, the running byte total;
* :meth:`repro.core.plan.QueryPlan.check_invariants` — every occurrence
  covered by exactly one part, semijoin binding sources
  (enabled on every plan via :attr:`QueryPlanner.audit`);
* :meth:`repro.core.executor.ResultStream.check_invariants` — set
  semantics, schema arity, and the drain-once contract (a drained
  generator replays its memo exactly and produces nothing new);
* :meth:`repro.core.rdi.RemoteInterface.check_invariants` — the last
  translation bound from a request shape's template is the from-scratch
  one;
* :meth:`repro.common.metrics.Metrics.check_invariants` — no negative or
  non-finite counters, recursive over session scopes.

This module only *aggregates*: it walks a CMS (or any collection of
auditable objects) and raises on the first violation.  The differential
runner calls
:func:`audit_cms` and :func:`audit_stream` after every query.
"""

from __future__ import annotations

from repro.common.errors import InvariantViolation

__all__ = [
    "InvariantViolation",
    "audit",
    "audit_cms",
    "audit_stream",
]


def audit(*objects) -> None:
    """Run ``check_invariants`` on every argument; raise on the first
    violation.  Objects without a hook are skipped (baselines, say), so a
    mixed fleet of systems can be audited with one call."""
    for obj in objects:
        hook = getattr(obj, "check_invariants", None)
        if hook is not None:
            hook()


def audit_cms(cms) -> None:
    """Audit one CMS end to end: cache, metrics ledger (from its root),
    and the last produced plan.  Raises :class:`InvariantViolation`."""
    audit(cms)


def audit_stream(stream) -> None:
    """Audit one result stream.  Raises :class:`InvariantViolation`."""
    audit(stream)
