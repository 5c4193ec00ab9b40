"""Trace-driven critical-path profiler: where does simulated time go?

Consumes a span trace (its JSONL export, or the span records
:func:`repro.obs.export.load_trace` parses from it) and attributes every
top-level ``cms.query`` span's simulated time to **phases**:

========  =======================================================
plan      ``planner.plan`` (strategy choice, subsumption probes)
cache     cache-track derivation (exact-hit reads, full-match
          derivations, the local side of a parallel region)
remote    ``rdi.fetch`` / ``rdi.fetch_table`` / ``rdi.fetch_batch``
          round trips, net of retry backoff
retry     backoff seconds re-attributed from ``rdi.retry`` events
gather    the executor's combine/gather work around hybrid and
          remote plans (joins, projections, binding extraction)
compute   everything charged directly inside ``cms.query`` (residue
          evaluation, stream bookkeeping, nested sub-queries' shells)
========  =======================================================

Attribution is an **exact partition**: each span's *self time* is its
duration minus the summed durations of its children, assigned to the
span's phase; children recurse.  The per-phase totals of one query
therefore sum to the query span's duration — the simulated seconds
that query took — to float tolerance, with nothing double-counted and
nothing dropped.

Two span shapes need care:

* ``executor.parallel_tracks`` wraps a frozen-clock parallel region, so
  its children have zero duration and its own duration is the *merged*
  (max-track) advance.  The whole span is attributed to the phase of the
  dominant track (``track.*`` attributes recorded at region exit):
  ``remote``-rooted tracks → remote, anything else → cache.
* ``rdi.retry`` events carry ``backoff_seconds``; their sum (clamped to
  the owning fetch span's self time) moves from remote to retry.
* An exact hit opens no span of its own: the ``cms.exact_hit`` event on
  its ``cms.query`` span carries the ``seconds`` the read charged, which
  move from compute to cache.

The profiler is read-only and deterministic; rendering is flame-style
text bars plus a canonical JSON form, both printed by
``python -m repro profile``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.export import canonical_json, load_trace

#: Attribution buckets, in rendering order.
PHASES = ("plan", "cache", "remote", "retry", "gather", "compute")

#: Span names fetched over the wire (the remote phase).
_FETCH_SPANS = frozenset({"rdi.fetch", "rdi.fetch_table", "rdi.fetch_batch"})

#: Executor strategies whose residual work is cache-track derivation.
_CACHE_STRATEGIES = frozenset({"cache-full", "unit", "unsatisfiable"})


def _duration(span: dict) -> float:
    end = span.get("end")
    if end is None:
        return 0.0
    return end - span.get("start", 0.0)


def _classify(span: dict) -> str | None:
    """The phase owning this span's self time (None: inherit parent)."""
    name = span.get("name", "")
    if name == "planner.plan":
        return "plan"
    if name in _FETCH_SPANS:
        return "remote"
    if name == "executor.parallel_tracks":
        tracks = {
            key[len("track."):]: value
            for key, value in span.get("attributes", {}).items()
            if key.startswith("track.") and isinstance(value, (int, float))
        }
        if tracks:
            dominant = max(sorted(tracks), key=lambda t: (tracks[t], t))
            return "remote" if dominant.startswith("remote") else "cache"
        return "cache"
    if name == "executor.execute":
        strategy = span.get("attributes", {}).get("strategy", "")
        return "cache" if strategy in _CACHE_STRATEGIES else "gather"
    if name == "cms.query":
        return "compute"
    return None


def _event_seconds(span: dict, event_name: str, attribute: str) -> float:
    """Summed ``attribute`` of the ``event_name`` events on this span."""
    total = 0.0
    for event in span.get("events", []):
        if event.get("name") == event_name:
            seconds = event.get("attributes", {}).get(attribute, 0.0)
            if isinstance(seconds, (int, float)):
                total += seconds
    return total


@dataclass
class QueryProfile:
    """One top-level query's phase breakdown."""

    view: str
    session: str
    start: float
    duration: float
    phases: dict[str, float] = field(default_factory=dict)
    #: Seconds the parallel region saved versus sequential execution
    #: (summed ``overlap_saved_seconds`` over the query's regions).
    overlap_saved: float = 0.0

    def to_dict(self) -> dict:
        return {
            "view": self.view,
            "session": self.session,
            "start": self.start,
            "duration": self.duration,
            "phases": {p: self.phases.get(p, 0.0) for p in PHASES},
            "overlap_saved": self.overlap_saved,
        }


@dataclass
class TraceProfile:
    """The whole trace's attribution: per-query profiles plus rollups."""

    queries: list[QueryProfile] = field(default_factory=list)
    totals: dict[str, float] = field(default_factory=dict)
    #: Remote time/tuples per fetched sub-query view, heaviest first.
    hot_remote: list[dict] = field(default_factory=list)
    #: Base tables by routed-request count (``rdi.route`` events), then
    #: per-table fetch spans, busiest first.
    hot_tables: list[dict] = field(default_factory=list)
    #: Cache elements by plan references + subsumption matches.
    hot_elements: list[dict] = field(default_factory=list)
    #: Spans that never finished (excluded from attribution).
    unfinished: int = 0

    @property
    def total_seconds(self) -> float:
        return sum(q.duration for q in self.queries)

    def to_dict(self) -> dict:
        return {
            "queries": [q.to_dict() for q in self.queries],
            "totals": {p: self.totals.get(p, 0.0) for p in PHASES},
            "total_seconds": self.total_seconds,
            "hot_remote": list(self.hot_remote),
            "hot_tables": list(self.hot_tables),
            "hot_elements": list(self.hot_elements),
            "unfinished": self.unfinished,
        }

    def to_json(self) -> str:
        return canonical_json(self.to_dict())

    # -- rendering ---------------------------------------------------------------
    def render(self, top: int = 10, per_query: bool = True) -> str:
        lines: list[str] = []
        total = self.total_seconds
        lines.append(
            f"profile: {len(self.queries)} queries, "
            f"{total:.6f}s simulated"
            + (f" ({self.unfinished} unfinished spans skipped)"
               if self.unfinished else "")
        )
        lines.append("")
        lines.append("phase totals:")
        lines.extend(_bars(self.totals, total))
        if per_query and self.queries:
            for profile in self.queries:
                lines.append("")
                lines.append(
                    f"query {profile.view} (session {profile.session!r}) "
                    f"[{profile.start:.6f} +{profile.duration:.6f}s]"
                    + (f"  overlap_saved={profile.overlap_saved:.6f}s"
                       if profile.overlap_saved else "")
                )
                lines.extend(_bars(profile.phases, profile.duration))
        if self.hot_remote:
            lines.append("")
            lines.append(f"hot remote fetches (top {top}):")
            for entry in self.hot_remote[:top]:
                lines.append(
                    f"  {entry['view']:<28} {entry['seconds']:.6f}s  "
                    f"fetches={entry['count']}  tuples={entry['tuples']}"
                )
        if self.hot_tables:
            lines.append("")
            lines.append(f"hot base tables (top {top}):")
            for entry in self.hot_tables[:top]:
                lines.append(
                    f"  {entry['table']:<28} requests={entry['count']}"
                )
        if self.hot_elements:
            lines.append("")
            lines.append(f"hot cache elements (top {top}):")
            for entry in self.hot_elements[:top]:
                lines.append(
                    f"  {entry['element']:<6} plan_refs={entry['plan_refs']}  "
                    f"subsume_matches={entry['matches']}"
                )
        return "\n".join(lines)


def _bars(phases: dict[str, float], total: float, width: int = 24) -> list[str]:
    lines = []
    for phase in PHASES:
        seconds = phases.get(phase, 0.0)
        if not seconds:
            continue
        share = seconds / total if total > 0 else 0.0
        filled = int(round(share * width))
        bar = "#" * filled + "." * (width - filled)
        lines.append(f"  {phase:<8} {bar}  {seconds:.6f}s  {share * 100:5.1f}%")
    if not lines:
        lines.append("  (no finished time attributed)")
    return lines


def profile_trace(trace: str | list[dict]) -> TraceProfile:
    """Profile a trace: JSONL text (``ValueError`` when malformed), or a
    list of span records."""
    spans = load_trace(trace)[0] if isinstance(trace, str) else trace
    by_id = {span["span"]: span for span in spans}
    children: dict[object, list[dict]] = {}
    for span in spans:
        children.setdefault(span.get("parent"), []).append(span)

    profile = TraceProfile()
    hot_remote: dict[str, dict] = {}
    hot_tables: dict[str, int] = {}
    hot_elements: dict[str, dict] = {}

    def attribute(span: dict, inherited: str, out: dict[str, float],
                  query: QueryProfile) -> None:
        if span.get("end") is None:
            profile.unfinished += 1
            return
        phase = _classify(span)
        if phase is None:
            phase = inherited
        kids = children.get(span["span"], [])
        self_time = _duration(span) - sum(_duration(k) for k in kids)
        attrs = span.get("attributes", {})
        name = span.get("name", "")
        if name in _FETCH_SPANS:
            view = str(attrs.get("table") or attrs.get("view") or "?")
            entry = hot_remote.setdefault(
                view, {"view": view, "seconds": 0.0, "count": 0, "tuples": 0}
            )
            entry["seconds"] += _duration(span)
            entry["count"] += 1
            tuples = attrs.get("tuples")
            if isinstance(tuples, (int, float)):
                entry["tuples"] += int(tuples)
            if attrs.get("table"):
                hot_tables[str(attrs["table"])] = (
                    hot_tables.get(str(attrs["table"]), 0) + 1
                )
            retry = min(
                _event_seconds(span, "rdi.retry", "backoff_seconds"),
                max(self_time, 0.0),
            )
            if retry > 0:
                out["retry"] = out.get("retry", 0.0) + retry
                self_time -= retry
        if name == "cms.query":
            read = min(
                _event_seconds(span, "cms.exact_hit", "seconds"),
                max(self_time, 0.0),
            )
            if read > 0:
                out["cache"] = out.get("cache", 0.0) + read
                self_time -= read
        if name == "planner.plan":
            for part in attrs.get("parts", []) or []:
                if isinstance(part, str) and part.startswith("cache:"):
                    element = part[len("cache:"):]
                    entry = hot_elements.setdefault(
                        element,
                        {"element": element, "plan_refs": 0, "matches": 0},
                    )
                    entry["plan_refs"] += 1
        for event in span.get("events", []):
            event_attrs = event.get("attributes", {})
            if event.get("name") == "rdi.route":
                for table in event_attrs.get("tables", []) or []:
                    hot_tables[str(table)] = hot_tables.get(str(table), 0) + 1
            elif event.get("name") == "subsume.match":
                element = str(event_attrs.get("element", "?"))
                entry = hot_elements.setdefault(
                    element, {"element": element, "plan_refs": 0, "matches": 0}
                )
                entry["matches"] += 1
        if name == "executor.parallel_tracks":
            saved = attrs.get("overlap_saved_seconds")
            if isinstance(saved, (int, float)):
                query.overlap_saved += saved
        out[phase] = out.get(phase, 0.0) + self_time
        for kid in kids:
            attribute(kid, phase, out, query)

    def is_top_level_query(span: dict) -> bool:
        if span.get("name") != "cms.query":
            return False
        parent = span.get("parent")
        while parent is not None:
            above = by_id.get(parent)
            if above is None:
                break
            if above.get("name") == "cms.query":
                return False
            parent = above.get("parent")
        return True

    for span in spans:
        if not is_top_level_query(span):
            continue
        if span.get("end") is None:
            profile.unfinished += 1
            continue
        attrs = span.get("attributes", {})
        query = QueryProfile(
            view=str(attrs.get("view", "?")),
            session=str(attrs.get("session", "")),
            start=span.get("start", 0.0),
            duration=_duration(span),
        )
        attribute(span, "compute", query.phases, query)
        profile.queries.append(query)
        for phase, seconds in query.phases.items():
            profile.totals[phase] = profile.totals.get(phase, 0.0) + seconds

    profile.hot_remote = sorted(
        hot_remote.values(), key=lambda e: (-e["seconds"], e["view"])
    )
    profile.hot_tables = [
        {"table": table, "count": count}
        for table, count in sorted(
            hot_tables.items(), key=lambda kv: (-kv[1], kv[0])
        )
    ]
    profile.hot_elements = sorted(
        hot_elements.values(),
        key=lambda e: (-(e["plan_refs"] + e["matches"]), e["element"]),
    )
    return profile
