"""Continuous telemetry: deterministic time series over the Metrics ledger.

End-of-run counter totals say *what* a run cost; they cannot say *when*.
:class:`MetricsSampler` snapshots a :class:`~repro.common.metrics.Metrics`
ledger on a fixed :class:`~repro.common.clock.SimClock` cadence, turning
the ledger into a time series: counters as per-interval **deltas**,
high-water gauges as absolute levels, histograms as cumulative summaries,
and every direct child scope (server sessions, federated backends) as its
own delta/gauge block.

Everything is **read-only over the ledger** (snapshots and summary
copies; the sampler never mutates counters or histograms, never touches
the clock, and never emits trace events) and **deterministic**: the clock
is simulated, so the same seed produces byte-identical series.  The JSONL
export is canonical (:func:`repro.obs.export.canonical_json`) and
round-trippable through :func:`load_series` / :func:`dump_series`;
:meth:`MetricsSampler.fingerprint` is the SHA-256 the E-series asserts on,
and :func:`render_series` is what ``python -m repro metrics`` prints.

The sampler is *pulled*, not scheduled: call :meth:`maybe_sample` at
natural quiesce points (the server does so after every scheduler step).
A sample is taken when simulated time has crossed the next cadence
boundary since the last one; the sample is stamped with both the boundary
that made it due and the actual simulated time it was taken at.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from repro.common.clock import SimClock
from repro.common.metrics import GAUGE_SUFFIX, Metrics
from repro.obs.export import canonical_json

#: Format tag in the series header line, bumped on incompatible changes.
SERIES_VERSION = 1


def _split_gauges(
    snapshot: dict[str, float]
) -> tuple[dict[str, float], dict[str, float]]:
    """Partition a counter snapshot into (accumulating, gauges)."""
    counters: dict[str, float] = {}
    gauges: dict[str, float] = {}
    for name, value in snapshot.items():
        if name.endswith(GAUGE_SUFFIX):
            gauges[name] = value
        else:
            counters[name] = value
    return counters, gauges


def _deltas(now: dict[str, float], earlier: dict[str, float]) -> dict[str, float]:
    """Non-zero counter deltas since ``earlier`` (sorted by name)."""
    out: dict[str, float] = {}
    for name in sorted(set(now) | set(earlier)):
        delta = now.get(name, 0) - earlier.get(name, 0)
        if delta:
            out[name] = delta
    return out


@dataclass(frozen=True)
class TelemetrySample:
    """One point of the series.

    ``deltas`` are counter increments since the previous sample (or since
    the sampler was attached, for the first one); ``gauges`` are absolute
    high-water levels; ``histograms`` are cumulative summaries; ``scopes``
    holds the same delta/gauge split per direct child scope.
    """

    index: int
    #: Simulated time the sample was actually taken at.
    time: float
    #: The cadence boundary that made this sample due (``<= time``).
    due: float
    deltas: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    histograms: dict[str, dict[str, float]] = field(default_factory=dict)
    scopes: dict[str, dict[str, dict[str, float]]] = field(default_factory=dict)
    #: Optional label for forced samples ("final", say); "" for cadence ones.
    label: str = ""

    def to_record(self) -> dict:
        return {
            "sample": self.index,
            "t": self.time,
            "due": self.due,
            "label": self.label,
            "deltas": dict(sorted(self.deltas.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {
                name: dict(sorted(summary.items()))
                for name, summary in sorted(self.histograms.items())
            },
            "scopes": {
                scope: {
                    kind: dict(sorted(values.items()))
                    for kind, values in sorted(blocks.items())
                }
                for scope, blocks in sorted(self.scopes.items())
            },
        }

    @classmethod
    def from_record(cls, record: dict) -> "TelemetrySample":
        return cls(
            index=record["sample"],
            time=record["t"],
            due=record["due"],
            label=record.get("label", ""),
            deltas=dict(record.get("deltas", {})),
            gauges=dict(record.get("gauges", {})),
            histograms={
                name: dict(summary)
                for name, summary in record.get("histograms", {}).items()
            },
            scopes={
                scope: {kind: dict(values) for kind, values in blocks.items()}
                for scope, blocks in record.get("scopes", {}).items()
            },
        )


class MetricsSampler:
    """Samples a Metrics ledger into a deterministic time series."""

    def __init__(self, metrics: Metrics, clock: SimClock, interval: float):
        if interval <= 0:
            raise ValueError(f"sampling interval must be positive, got {interval}")
        self.metrics = metrics
        self.clock = clock
        self.interval = float(interval)
        self.samples: list[TelemetrySample] = []
        #: Counter state at the previous sample (gauges excluded).
        self._last_counters, _ = _split_gauges(metrics.snapshot())
        #: Per-scope counter state at the previous sample.
        self._last_scope_counters: dict[str, dict[str, float]] = {}
        for name, scope in sorted(metrics.scopes().items()):
            self._last_scope_counters[name], _ = _split_gauges(scope.snapshot())
        #: The first cadence boundary not yet sampled.
        self._next_due = self._boundary_after(clock.now)

    def _boundary_after(self, t: float) -> float:
        """The first cadence boundary strictly after simulated time ``t``."""
        steps = int(t / self.interval) + 1
        boundary = steps * self.interval
        # Float guard: never return a boundary at or before t.
        while boundary <= t:
            steps += 1
            boundary = steps * self.interval
        return boundary

    # -- sampling -----------------------------------------------------------------
    def maybe_sample(self) -> TelemetrySample | None:
        """Take a sample if simulated time has crossed the next cadence
        boundary; returns it (or None when not yet due).

        When a single burst of work jumps the clock past several
        boundaries, **one** sample is taken (the ledger's state at the
        skipped boundaries is unknowable after the fact) and the cadence
        resumes at the first boundary after now — deterministic, and
        honest about when the observation was actually made.
        """
        now = self.clock.now
        if now < self._next_due:
            return None
        due = self._next_due
        self._next_due = self._boundary_after(now)
        return self._take(due=due, label="")

    def _take(self, due: float, label: str) -> TelemetrySample:
        counters, gauges = _split_gauges(self.metrics.snapshot())
        scopes: dict[str, dict[str, dict[str, float]]] = {}
        for name, scope in sorted(self.metrics.scopes().items()):
            scope_counters, scope_gauges = _split_gauges(scope.snapshot())
            earlier = self._last_scope_counters.get(name, {})
            scope_deltas = _deltas(scope_counters, earlier)
            self._last_scope_counters[name] = scope_counters
            if scope_deltas or scope_gauges:
                scopes[name] = {"deltas": scope_deltas, "gauges": scope_gauges}
        sample = TelemetrySample(
            index=len(self.samples),
            time=self.clock.now,
            due=due,
            label=label,
            deltas=_deltas(counters, self._last_counters),
            gauges=gauges,
            histograms=self.metrics.histogram_summaries(),
            scopes=scopes,
        )
        self._last_counters = counters
        self.samples.append(sample)
        return sample

    # -- export -------------------------------------------------------------------
    def header(self) -> dict:
        return {
            "series": "telemetry",
            "version": SERIES_VERSION,
            "interval": self.interval,
            "scope": self.metrics.scope_name,
        }

    def to_jsonl(self) -> str:
        """The series as canonical JSON Lines: a header line, then one
        line per sample.  Byte-identical across same-seed runs."""
        return dump_series(self.header(), self.samples)

    def fingerprint(self) -> str:
        """SHA-256 over the canonical JSONL export."""
        return hashlib.sha256(self.to_jsonl().encode()).hexdigest()


def dump_series(header: dict, samples: list[TelemetrySample]) -> str:
    """Serialize a telemetry series canonically (header + one line per
    sample, trailing newline)."""
    lines = [canonical_json(header)]
    lines.extend(canonical_json(sample.to_record()) for sample in samples)
    return "\n".join(lines) + "\n"


def load_series(text: str) -> tuple[dict, list[TelemetrySample]]:
    """Parse a JSONL telemetry series back into (header, samples).

    Round-trip guarantee: ``dump_series(*load_series(text)) == text`` for
    any text produced by :func:`dump_series`.  Raises ``ValueError`` on a
    line that is not JSON or not a telemetry record.
    """
    header: dict = {}
    samples: list[TelemetrySample] = []
    for number, line in enumerate(text.splitlines()):
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        if isinstance(record, dict) and "series" in record:
            header = record
        elif isinstance(record, dict) and "sample" in record:
            samples.append(TelemetrySample.from_record(record))
        else:
            raise ValueError(f"line {number + 1}: not a telemetry record")
    return header, samples


def render_series(text: str) -> str:
    """A JSONL telemetry series as readable text: per-sample counter
    deltas, gauge levels and scope blocks, then the cumulative histogram
    summaries of the last sample."""
    header, samples = load_series(text)
    if not header and not samples:
        return "(empty telemetry series)"
    if header.get("series") != "telemetry":
        raise ValueError("not a telemetry series: missing header line")

    out = [
        f"telemetry: interval={header.get('interval')}s "
        f"scope={header.get('scope') or '<root>'} "
        f"version={header.get('version')} samples={len(samples)}"
    ]
    for sample in samples:
        label = f" [{sample.label}]" if sample.label else ""
        out.append(f"\nsample {sample.index} @t={sample.time:.6f}{label}")
        for name in sorted(sample.deltas):
            out.append(f"  +{sample.deltas[name]:<10g} {name}")
        for name in sorted(sample.gauges):
            out.append(f"  ={sample.gauges[name]:<10g} {name}")
        for scope in sorted(sample.scopes):
            block = sample.scopes[scope]
            parts = [
                f"{name}+{value:g}"
                for name, value in sorted(block.get("deltas", {}).items())
            ]
            parts.extend(
                f"{name}={value:g}"
                for name, value in sorted(block.get("gauges", {}).items())
            )
            if parts:
                out.append(f"  scope {scope}: " + " ".join(parts))
    histograms = samples[-1].histograms if samples else {}
    if histograms:
        out.append("\nhistograms (cumulative at last sample):")
        width = max(len(name) for name in histograms)
        for name in sorted(histograms):
            summary = histograms[name]
            out.append(
                f"  {name.ljust(width)}  count={summary.get('count', 0):<6g}"
                f" p50={summary.get('p50', 0.0):.6f}"
                f" p99={summary.get('p99', 0.0):.6f}"
                f" max={summary.get('max', 0.0):.6f}"
            )
    return "\n".join(out)
