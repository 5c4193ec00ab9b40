#!/usr/bin/env python3
"""Drive the repro.qa differential fuzzer from the command line.

Generates N seeded cases, runs each through the full oracle hierarchy
(full CMS / features-off CMS / direct evaluation / the three baselines),
audits invariants after every query, shrinks any failure to a minimal
replayable repro file, and prints a one-line verdict plus fingerprints.

Usage::

    PYTHONPATH=src python scripts/braid_fuzz.py --seed 0 --cases 500
    PYTHONPATH=src python scripts/braid_fuzz.py --profile faulty --cases 200
    PYTHONPATH=src python scripts/braid_fuzz.py --check-determinism --cases 100
    PYTHONPATH=src python scripts/braid_fuzz.py --replay repro-c17.json

Exit status is 0 only when every case is clean (no divergences, no
invariant violations) — and, with ``--check-determinism``, when a second
run of the same corpus produces a byte-identical report fingerprint.
Failing cases are shrunk and written to ``--save-failures DIR`` (default
``.qa-repros``) as ``repro-c<index>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.qa import (
    FEDERATED_VARIANT,
    VARIANTS,
    CaseConfig,
    CaseGenerator,
    case_failure,
    replay,
    run_corpus,
    shrink,
    write_repro,
)

PROFILES = {
    "healthy": CaseConfig,
    "faulty": CaseConfig.faulty,
    "federated": CaseConfig.federated,
    "churny": CaseConfig.churny,
    "variants": CaseConfig.variants,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0, help="corpus seed (default 0)")
    parser.add_argument(
        "--cases", type=int, default=500, help="number of cases (default 500)"
    )
    parser.add_argument(
        "--start", type=int, default=0, help="first case index (default 0)"
    )
    parser.add_argument(
        "--profile",
        choices=sorted(PROFILES),
        default="healthy",
        help="case profile: healthy link, PR-1 fault schedules, "
        "multi-backend federation (tables spread over 2-3 backends), "
        "eviction churn (small caches, many queries, intermediates), or "
        "equivalent-query variants (mutated spellings that must hit the "
        "canonical cache tier with identical answers)",
    )
    parser.add_argument(
        "--check-determinism",
        action="store_true",
        help="run the corpus twice and require identical report fingerprints",
    )
    parser.add_argument(
        "--save-failures",
        default=".qa-repros",
        metavar="DIR",
        help="directory for shrunk repro files (default .qa-repros)",
    )
    parser.add_argument(
        "--no-shrink",
        action="store_true",
        help="save failing cases unshrunk (faster triage of large corpora)",
    )
    parser.add_argument(
        "--out",
        metavar="FILE",
        help="also write the full report as canonical JSON",
    )
    parser.add_argument(
        "--replay",
        metavar="REPRO",
        help="re-run one repro file instead of generating a corpus",
    )
    return parser


def replay_one(path: str) -> int:
    report = replay(path)
    print(f"replay {path}: case fingerprint {report.case_fingerprint[:16]}")
    for divergence in report.divergences:
        print(
            f"  divergence q{divergence.query_index}/{divergence.variant}: "
            f"{divergence.kind} {divergence.detail}"
        )
    for violation in report.violations:
        print(f"  invariant: {violation}")
    if report.failed:
        print("replay: still failing")
        return 1
    print("replay: clean")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.replay:
        return replay_one(args.replay)

    config = PROFILES[args.profile]()
    variants = VARIANTS
    if args.profile == "federated":
        # The federation axis: the full CMS again, over the case's tables
        # scattered across 2-3 backends, cross-checked like the rest.
        variants = variants + (FEDERATED_VARIANT,)
    generator = CaseGenerator(args.seed, config)
    started = time.time()
    cases = generator.corpus(args.cases, start=args.start)
    report = run_corpus(cases, seed=args.seed, variants=variants, keep_reports=False)
    elapsed = time.time() - started

    print(
        f"fuzz[{args.profile}] seed={args.seed} cases={report.cases} "
        f"divergences={report.divergences} violations={report.violations} "
        f"degraded={report.degraded_answers} ({elapsed:.1f}s)"
    )
    print(f"corpus fingerprint: {report.corpus_fingerprint}")
    print(f"report fingerprint: {report.fingerprint()}")

    status = 0
    if args.check_determinism:
        second = run_corpus(
            generator.corpus(args.cases, start=args.start),
            seed=args.seed,
            variants=variants,
            keep_reports=False,
        )
        if second.fingerprint() != report.fingerprint():
            print("DETERMINISM FAILURE: same seed produced a different report")
            status = 1
        else:
            print("determinism: second run byte-identical")

    if report.failed_cases:
        status = 1
        os.makedirs(args.save_failures, exist_ok=True)
        failing = {case.index: case for case in cases}
        is_failing = lambda c: case_failure(c, variants)
        for index in report.failed_cases:
            case = failing[index]
            reason = is_failing(case) or "failed in corpus run"
            if not args.no_shrink:
                result = shrink(case, is_failing)
                case, reason = result.case, result.reason
                print(
                    f"  case {index}: {reason} "
                    f"(shrunk {result.original_queries} -> {result.queries} queries)"
                )
            else:
                print(f"  case {index}: {reason}")
            path = os.path.join(args.save_failures, f"repro-c{index}.json")
            write_repro(path, case, reason)
            print(f"    repro written: {path}")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, sort_keys=True, indent=2)
            handle.write("\n")
        print(f"report written: {args.out}")

    return status


if __name__ == "__main__":
    sys.exit(main())
