"""Deterministic hierarchical tracing on the simulated clock.

The paper evaluates BrAID along three cost dimensions (communication
volume, server load, workstation work) and by *why* the CMS chose cache
over remote, lazy over eager.  Counters aggregate those costs;
:class:`Tracer` preserves their *structure*: every stage of a query's
life — inference step, CAQL query, subsumption probe, planner decision,
executor parts, remote round trips, stream drain — becomes a span or an
event stamped with :class:`~repro.common.clock.SimClock` simulated time.

Two disciplines make traces first-class experiment artifacts rather than
debug noise:

* **Determinism** — span ids come from a counter, timestamps from the
  simulated clock, attribute encodings are canonical; the same seed and
  submissions therefore produce *byte-identical* trace exports, which is
  asserted with a SHA-256 fingerprint exactly like the server's schedule
  fingerprint.
* **Zero-cost opt-out** — :meth:`Tracer.disabled` returns a no-op tracer
  whose ``span``/``event`` hooks allocate nothing and record nothing, so
  instrumented components cost the same as uninstrumented ones when
  tracing is off.  Hot paths additionally guard attribute computation
  behind :attr:`Tracer.enabled`.

Tracing never touches the clock or the metrics ledger: enabling it can
never change a run's simulated totals, only describe them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.common.clock import SimClock


@dataclass(frozen=True)
class SpanEvent:
    """A point-in-time annotation inside (or outside) a span."""

    time: float
    name: str
    attributes: tuple[tuple[str, object], ...] = ()


@dataclass
class Span:
    """One timed stage of work, possibly nested under a parent span."""

    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float | None = None
    attributes: dict[str, object] = field(default_factory=dict)
    events: list[SpanEvent] = field(default_factory=list)
    _tracer: "Tracer | None" = field(default=None, repr=False, compare=False)

    def set(self, key: str, value: object) -> "Span":
        """Attach (or overwrite) one attribute."""
        self.attributes[key] = value
        return self

    def event(self, name: str, **attributes: object) -> None:
        """Record a point event at the current simulated time."""
        time = self._tracer.clock.now if self._tracer is not None else self.start
        self.events.append(
            SpanEvent(time, name, tuple(sorted(attributes.items())))
        )

    # -- context manager ----------------------------------------------------------
    def __enter__(self) -> "Span":
        tracer = self._tracer
        if tracer is not None:
            self.parent_id = (
                tracer._stack[-1].span_id if tracer._stack else None
            )
            self.start = tracer.clock.now
            tracer.spans.append(self)
            tracer._stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        tracer = self._tracer
        if tracer is not None:
            self.end = tracer.clock.now
            if tracer._stack and tracer._stack[-1] is self:
                tracer._stack.pop()
            elif self in tracer._stack:  # defensive: mismatched nesting
                tracer._stack.remove(self)
            if exc_type is not None:
                self.attributes["error"] = exc_type.__name__
        return False


class _NullSpan:
    """The shared do-nothing span returned by a disabled tracer."""

    __slots__ = ()

    attributes: dict[str, object] = {}
    events: tuple = ()

    def set(self, key: str, value: object) -> "_NullSpan":
        return self

    def event(self, name: str, **attributes: object) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _DisabledTracer:
    """A tracer whose every hook is a no-op (and allocates nothing)."""

    __slots__ = ()

    enabled = False
    spans: tuple = ()
    orphan_events: tuple = ()

    def span(self, name: str, **attributes: object) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, **attributes: object) -> None:
        pass

    # Exports of nothing, so callers need no special-casing.
    def to_jsonl(self) -> str:
        return ""

    def fingerprint(self) -> str:
        from repro.obs.export import trace_fingerprint

        return trace_fingerprint(self)

    def __repr__(self) -> str:
        return "Tracer.disabled()"


_DISABLED = _DisabledTracer()


class Tracer:
    """Collects hierarchical spans stamped with simulated time.

    One tracer is shared by every component of a system (remote DBMS,
    CMS, server): nesting follows the call structure through a span
    stack, so a remote fetch traced inside an executor part traced
    inside a CMS query renders as one tree.
    """

    enabled = True

    def __init__(self, clock: SimClock):
        self.clock = clock
        #: All spans ever opened, in opening order (open ones included).
        self.spans: list[Span] = []
        #: Events recorded while no span was open.
        self.orphan_events: list[SpanEvent] = []
        self._stack: list[Span] = []
        self._ids = itertools.count(1)

    @staticmethod
    def disabled() -> _DisabledTracer:
        """The shared no-op tracer: every hook is zero-cost."""
        return _DISABLED

    # -- recording ----------------------------------------------------------------
    def span(self, name: str, **attributes: object) -> Span:
        """Open a new span (use as a context manager); nests under the
        currently open span, if any."""
        return Span(
            span_id=next(self._ids),
            parent_id=None,  # resolved at __enter__
            name=name,
            start=self.clock.now,
            attributes=dict(attributes),
            _tracer=self,
        )

    def event(self, name: str, **attributes: object) -> None:
        """Record a point event on the current span (or as an orphan)."""
        if self._stack:
            self._stack[-1].event(name, **attributes)
        else:
            self.orphan_events.append(
                SpanEvent(self.clock.now, name, tuple(sorted(attributes.items())))
            )

    # -- exports (delegated, so the formats live in one module) -------------------
    def to_jsonl(self) -> str:
        from repro.obs.export import jsonl_trace

        return jsonl_trace(self)

    def fingerprint(self) -> str:
        from repro.obs.export import trace_fingerprint

        return trace_fingerprint(self)

    def __repr__(self) -> str:
        return (
            f"Tracer({len(self.spans)} spans, {len(self._stack)} open, "
            f"clock={self.clock.now:.6f})"
        )
