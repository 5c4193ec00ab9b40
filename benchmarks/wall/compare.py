"""``python benchmarks/wall/compare.py A.json B.json``: the A/B (or A/A) table.

One row per workload x end-to-end metric: both values, the ratio B/A with
its base, the regression bound, and a verdict —

* ``worse``       B's median is worse than A's by more than the bound;
* ``unresolved``  the episodes of A or of B spread wider than the bound, so
                  the medians cannot be told apart (unless every episode of
                  B reads better, or every one worse, than every episode of A);
* ``better``      B's median is better by more than either side's spread;
* ``within``      anything else.

The two ledgers are of the same seed, so the exact metrics (simulated cost,
remote load, failures: functions of the seed alone) have no spread and a
bound of zero: any worsening is ``worse``.  The other bounds come from
``BENCHMARK.json``; ``setup_s`` may also move by ``Metric.slack`` seconds
whatever its share says.  Exits non-zero on any ``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from statistics import median, quantiles

_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(_ROOT))

from benchmarks.wall.metrics import END_TO_END  # noqa: E402


def bounds() -> dict[str, float]:
    """Regression bounds: zero for the exact metrics, ``BENCHMARK.json``
    for the measured ones."""
    declared = json.loads((_ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    gated = {m["name"]: m["bound"] for m in declared}
    return {m.name: 0.0 if m.exact else gated[m.name] for m in END_TO_END}


def _spread(reps: list[float]) -> float:
    """Distance between the first and third quartile of the episodes'
    values, as a share of their median."""
    middle = median(reps)
    if len(reps) < 2 or not middle:
        return 0.0
    low, _mid, high = quantiles(reps, n=4)
    return (high - low) / abs(middle)


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[str, float]:
    """``(verdict, worsening)``; worsening is B's loss as a share of A
    (negative when B is better, ``inf`` when A is zero and B is not)."""
    sign = 1.0 if better == "lower" else -1.0
    delta = sign * (b["value"] - a["value"])
    if a["value"]:
        worsening = delta / abs(a["value"])
    else:
        worsening = 0.0 if not delta else float("inf") * (1 if delta > 0 else -1)
    spread = max(_spread(a["reps"]), _spread(b["reps"]))
    if spread > bound:
        losses = [sign * (y - x) for x in a["reps"] for y in b["reps"]]
        if all(loss < 0 for loss in losses):
            return "better", worsening
        if all(loss > 0 for loss in losses) and worsening > bound:
            return "worse", worsening
        return "unresolved", worsening
    if worsening > bound:
        return "worse", worsening
    if worsening < -spread and worsening < 0:
        return "better", worsening
    return "within", worsening


def compare(ledger_a: dict, ledger_b: dict) -> list[tuple]:
    limits = bounds()
    rows = []
    for workload, entry_a in ledger_a["workloads"].items():
        entry_b = ledger_b["workloads"].get(workload)
        if entry_b is None:
            continue
        for metric in END_TO_END:
            a = entry_a["end_to_end"][metric.name]
            b = entry_b["end_to_end"][metric.name]
            bound = limits[metric.name]
            if metric.slack and a["value"]:
                bound = max(bound, metric.slack / abs(a["value"]))
            verdict_, _worsening = verdict(a, b, metric.better, bound)
            ratio = f"{b['value'] / a['value']:.3f}x of {a['value']:.5g}" if a["value"] else "n/a (base 0)"
            rows.append(
                (workload, metric.name, a["value"], b["value"], metric.unit, ratio, bound, verdict_)
            )
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    ledger_a, ledger_b = (json.loads(Path(p).read_text()) for p in argv)
    for key in ("seed", "scale"):
        if ledger_a[key] != ledger_b[key]:
            print(f"warning: {key} differs ({ledger_a[key]} vs {ledger_b[key]})")
    rows = compare(ledger_a, ledger_b)
    print(f"{'workload':16s} {'metric':24s} {'A':>12s} {'B':>12s} {'unit':6s} "
          f"{'B/A (base A)':26s} {'bound':>6s}  verdict")
    for workload, name, a, b, unit, ratio, bound, verdict_ in rows:
        print(f"{workload:16s} {name:24s} {a:12.5g} {b:12.5g} {unit:6s} {ratio:26s} "
              f"{bound:6.0%}  {verdict_}")
    counts = {v: sum(1 for r in rows if r[-1] == v) for v in ("better", "within", "unresolved", "worse")}
    print(" ".join(f"{k}={v}" for k, v in counts.items()))
    return 1 if counts["worse"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
