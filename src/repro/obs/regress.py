"""The benchmark regression gate: BENCH_summary.json vs a committed baseline.

The E-series reports two kinds of numbers.  **Simulated** metrics (sim
seconds, requests, tuples shipped, hit counts) are fully deterministic —
same seed, same bytes — so the gate compares them *exactly* (within a
tiny float epsilon).  **Wall-clock** metrics (E16's wall column) vary run
to run and are ignored by default.

A baseline (``benchmarks/results/BASELINE.json``) is a frozen copy of the
summary's experiments plus comparison policy: a default tolerance,
per-metric tolerance overrides, and extra ignore patterns.  The gate
flattens both documents to dotted numeric leaf paths
(``E17.chain/semijoin-on.tuples shipped``), then reports:

* **regressions** — a metric moved beyond its tolerance band,
* **missing** — a baseline metric absent from the fresh summary (a
  silently dropped experiment must not pass),
* **new** — fresh metrics the baseline has never seen (informational;
  they start gating once the baseline is regenerated).

``python -m repro regress`` is the CLI; CI runs it on every push.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.export import canonical_json

#: Path substrings ignored by default: wall-clock quantities ("wall"
#: catches E16's column).
DEFAULT_IGNORE = ("wall",)

#: Relative band treated as float noise even at tolerance 0.
EPSILON = 1e-9

BASELINE_SCHEMA_VERSION = 1


# -- flattening ---------------------------------------------------------------------
def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _row_keys(rows: list) -> list[str]:
    """Stable, unique, human-readable keys for table rows: the row's
    string cells joined with "/", disambiguated by occurrence, falling
    back to the row index for all-numeric rows."""
    keys: list[str] = []
    seen: dict[str, int] = {}
    for index, row in enumerate(rows):
        base = "/".join(str(c) for c in row if isinstance(c, str))
        if not base:
            base = f"row{index}"
        count = seen.get(base, 0)
        seen[base] = count + 1
        keys.append(base if count == 0 else f"{base}#{count + 1}")
    return keys


def flatten(document: dict) -> dict[str, float]:
    """Numeric leaves of a summary document as dotted paths.

    ``{"headers": [...], "rows": [...]}`` tables are special-cased so a
    cell's path names its row and column rather than positional indexes.
    """
    out: dict[str, float] = {}

    def walk(node, path: str) -> None:
        if isinstance(node, dict):
            headers = node.get("headers")
            rows = node.get("rows")
            if (
                isinstance(headers, list)
                and isinstance(rows, list)
                and all(isinstance(r, list) for r in rows)
            ):
                for key, row in zip(_row_keys(rows), rows):
                    for header, cell in zip(headers, row):
                        if _is_number(cell):
                            out[f"{path}.{key}.{header}"] = cell
                for extra_key, extra in node.items():
                    if extra_key not in ("headers", "rows"):
                        walk(extra, f"{path}.{extra_key}")
                return
            for key in sorted(node):
                walk(node[key], f"{path}.{key}" if path else str(key))
            return
        if isinstance(node, list):
            for index, item in enumerate(node):
                walk(item, f"{path}[{index}]")
            return
        if _is_number(node):
            out[path] = node

    experiments = document.get("experiments", {})
    for name in sorted(experiments):
        walk(experiments[name].get("results", {}), name)
    return out


# -- comparison ---------------------------------------------------------------------
@dataclass(frozen=True)
class Finding:
    """One metric's verdict."""

    path: str
    kind: str  # "regression" | "missing" | "new"
    baseline: float | None = None
    fresh: float | None = None
    tolerance: float = 0.0

    def line(self) -> str:
        if self.kind == "missing":
            return f"MISSING  {self.path}  (baseline {self.baseline:g})"
        if self.kind == "new":
            return f"new      {self.path}  ({self.fresh:g})"
        delta = self.fresh - self.baseline
        rel = delta / self.baseline if self.baseline else float("inf")
        return (
            f"REGRESS  {self.path}  {self.baseline:g} -> {self.fresh:g}  "
            f"(delta {delta:+g}, {rel * 100:+.3f}%, tolerance "
            f"{self.tolerance * 100:g}%)"
        )


@dataclass
class RegressionReport:
    """The gate's full verdict over one summary/baseline pair."""

    regressions: list[Finding] = field(default_factory=list)
    missing: list[Finding] = field(default_factory=list)
    new: list[Finding] = field(default_factory=list)
    compared: int = 0
    ignored: int = 0

    @property
    def ok(self) -> bool:
        return not self.regressions and not self.missing

    def render(self) -> str:
        lines = [
            f"bench-regress: {self.compared} metrics compared, "
            f"{self.ignored} ignored (wall-clock), "
            f"{len(self.new)} new, {len(self.missing)} missing, "
            f"{len(self.regressions)} regressed"
        ]
        for finding in self.missing + self.regressions:
            lines.append("  " + finding.line())
        for finding in self.new:
            lines.append("  " + finding.line())
        lines.append("PASS" if self.ok else "FAIL")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "compared": self.compared,
            "ignored": self.ignored,
            "regressions": [f.line() for f in self.regressions],
            "missing": [f.line() for f in self.missing],
            "new": [f.line() for f in self.new],
        }


def _ignored(path: str, patterns: tuple[str, ...]) -> bool:
    return any(pattern in path for pattern in patterns)


def compare(
    baseline: dict,
    summary: dict,
    default_tolerance: float = 0.0,
    tolerances: dict[str, float] | None = None,
    ignore: tuple[str, ...] = DEFAULT_IGNORE,
) -> RegressionReport:
    """Diff a fresh summary against a baseline document.

    ``baseline`` is a document written by :func:`make_baseline` (its own
    policy fields extend the arguments); ``summary`` is a parsed
    ``BENCH_summary.json``.  A metric regresses when it differs from the
    baseline by more than ``max(tolerance * |baseline|, EPSILON)`` in
    either direction — an unexplained improvement is a determinism break,
    worth failing just as loudly as a slowdown.
    """
    tolerances = dict(tolerances or {})
    tolerances.update(baseline.get("tolerances", {}))
    default_tolerance = max(
        default_tolerance, baseline.get("default_tolerance", 0.0)
    )
    ignore = tuple(ignore) + tuple(baseline.get("ignore", []))

    base_flat = flatten(baseline)
    fresh_flat = flatten(summary)
    report = RegressionReport()

    for path in sorted(base_flat):
        if _ignored(path, ignore):
            report.ignored += 1
            continue
        expected = base_flat[path]
        if path not in fresh_flat:
            report.missing.append(Finding(path, "missing", baseline=expected))
            continue
        actual = fresh_flat[path]
        report.compared += 1
        tolerance = tolerances.get(path, default_tolerance)
        band = max(abs(expected) * tolerance, EPSILON)
        if abs(actual - expected) > band:
            report.regressions.append(
                Finding(
                    path,
                    "regression",
                    baseline=expected,
                    fresh=actual,
                    tolerance=tolerance,
                )
            )
    for path in sorted(set(fresh_flat) - set(base_flat)):
        if not _ignored(path, ignore):
            report.new.append(Finding(path, "new", fresh=fresh_flat[path]))
    return report


# -- baseline IO --------------------------------------------------------------------
def make_baseline(
    summary: dict,
    default_tolerance: float = 0.0,
    tolerances: dict[str, float] | None = None,
    ignore: tuple[str, ...] = (),
) -> dict:
    """Freeze a summary into a baseline document (experiments + policy)."""
    return {
        "baseline_schema_version": BASELINE_SCHEMA_VERSION,
        "generated_from": "BENCH_summary.json",
        "summary_schema_version": summary.get("schema_version"),
        "default_tolerance": default_tolerance,
        "tolerances": dict(sorted((tolerances or {}).items())),
        "ignore": sorted(ignore),
        "experiments": summary.get("experiments", {}),
    }


def dump_baseline(baseline: dict) -> str:
    """Canonical serialization, newline-terminated."""
    return canonical_json(baseline) + "\n"
