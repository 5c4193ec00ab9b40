#!/usr/bin/env python3
"""The benchmark regression gate CLI.

Diffs a fresh ``benchmarks/results/BENCH_summary.json`` against the
committed baseline ``benchmarks/results/BASELINE.json`` using
:mod:`repro.obs.regress`.  Simulated metrics are deterministic, so they
are compared exactly; wall-clock metrics ("wall" columns) are
ignored.  Exit codes: 0 = pass, 1 = regression (or a baseline metric went
missing), 2 = IO/usage error.

Usage::

    PYTHONPATH=src python scripts/braid_regress.py
    PYTHONPATH=src python scripts/braid_regress.py --summary S.json --baseline B.json
    PYTHONPATH=src python scripts/braid_regress.py --json
    PYTHONPATH=src python scripts/braid_regress.py --write-baseline

``--write-baseline`` freezes the current summary into the baseline file
(run the benchmark suite first); commit the result to move the gate.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parent.parent / "src")
)

from repro.obs.regress import (  # noqa: E402
    compare,
    dump_baseline,
    make_baseline,
)

REPO = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_SUMMARY = REPO / "benchmarks" / "results" / "BENCH_summary.json"
DEFAULT_BASELINE = REPO / "benchmarks" / "results" / "BASELINE.json"


def _load(path: pathlib.Path, what: str) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except OSError as error:
        print(f"cannot read {what} {path}: {error}", file=sys.stderr)
        raise SystemExit(2)
    except json.JSONDecodeError as error:
        print(f"{what} {path} is not valid JSON: {error}", file=sys.stderr)
        raise SystemExit(2)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Diff a fresh benchmark summary against the committed baseline."
    )
    parser.add_argument(
        "--summary",
        type=pathlib.Path,
        default=DEFAULT_SUMMARY,
        help=f"fresh BENCH_summary.json (default {DEFAULT_SUMMARY})",
    )
    parser.add_argument(
        "--baseline",
        type=pathlib.Path,
        default=DEFAULT_BASELINE,
        help=f"committed baseline (default {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--default-tolerance",
        type=float,
        default=0.0,
        metavar="FRAC",
        help="relative tolerance applied to metrics without an override "
        "(default 0: simulated numbers must match exactly)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the verdict as JSON instead of text",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="freeze the current summary into the baseline file and exit",
    )
    options = parser.parse_args(argv)

    summary = _load(options.summary, "summary")

    if options.write_baseline:
        baseline = make_baseline(
            summary, default_tolerance=options.default_tolerance
        )
        options.baseline.parent.mkdir(parents=True, exist_ok=True)
        options.baseline.write_text(dump_baseline(baseline), encoding="utf-8")
        print(
            f"baseline written: {options.baseline} "
            f"({len(baseline['experiments'])} experiments)"
        )
        return 0

    baseline = _load(options.baseline, "baseline")
    report = compare(
        baseline, summary, default_tolerance=options.default_tolerance
    )
    if options.json:
        print(json.dumps(report.to_dict(), sort_keys=True, indent=2))
    else:
        print(report.render())
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
