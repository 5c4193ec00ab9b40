"""``python -m repro``: read what a run recorded, or fuzz the bridge.

Usage::

    PYTHONPATH=src python -m repro trace benchmarks/results/E16.trace.jsonl
    PYTHONPATH=src python -m repro trace --demo --events
    PYTHONPATH=src python -m repro lineage benchmarks/results/E21.json
    PYTHONPATH=src python -m repro profile --top 5 benchmarks/results/E19.trace.jsonl
    PYTHONPATH=src python -m repro fuzz --profile federated --cases 75 --check-determinism
    PYTHONPATH=src python -m repro fuzz --replay .qa-repros/repro-c17.json

Argument parsing and dispatch only: each artifact format is read and
rendered by the module that writes it (:mod:`repro.obs.export` for traces,
:mod:`repro.core.cache_model` for cache reports, :mod:`repro.qa` for fuzz
reports and repro files).

Exit status: 0 on success; 1 when ``fuzz`` finds a failing case; 2 on a
usage error or an input file that cannot be read or parsed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.core.cache_model import render_lineage
from repro.obs.export import render_trace
from repro.obs.profile import profile_trace
from repro.qa import (
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


class _Unreadable(Exception):
    """An input file that cannot be read or parsed (exit status 2)."""


def _load(path, parse):
    """``parse`` applied to the text of the file at ``path``."""
    try:
        with open(path, encoding="utf-8") as handle:
            return parse(handle.read())
    except (OSError, ValueError) as error:
        raise _Unreadable(f"cannot read {path}: {error}") from error


def _demo_trace() -> str:
    """A small traced session: two grandparent queries, the second a
    repeat answered from the cache — one remote fetch, one cache hit."""
    from repro.braid import BraidConfig, BraidSystem
    from repro.workloads.genealogy import genealogy

    system = BraidSystem.from_workload(genealogy(seed=23), BraidConfig(tracing=True))
    system.ask_all("grandparent(G, p8)")
    system.ask_all("grandparent(G, p8)")
    return system.trace_jsonl()


# -- subcommands -----------------------------------------------------------------
def _trace(args) -> int:
    if args.demo:
        rendered = render_trace(_demo_trace(), show_events=args.events)
        print("demo trace (two grandparent queries; second is a cache hit)")
    else:
        rendered = _load(args.path, lambda text: render_trace(text, args.events))
        print(f"trace: {args.path}")
    print(rendered)
    return 0


def _lineage(args) -> int:
    rendered = _load(args.path, render_lineage)
    print(f"lineage: {args.path}")
    print(rendered)
    return 0


def _profile(args) -> int:
    if args.demo:
        profile = profile_trace(_demo_trace())
    else:
        profile = _load(args.path, profile_trace)
    if args.json:
        print(profile.to_json())
    else:
        print(profile.render(top=args.top, per_query=not args.no_queries))
    return 0


def _replay(path: str) -> int:
    try:
        report = replay(path)
    except (OSError, ValueError) as error:
        raise _Unreadable(f"cannot read {path}: {error}") from error
    print(f"replay {path}: case fingerprint {report.case_fingerprint[:16]}")
    for divergence in report.divergences:
        print(
            f"  divergence q{divergence.query_index}/{divergence.variant}: "
            f"{divergence.kind} {divergence.detail}"
        )
    for violation in report.violations:
        print(f"  invariant: {violation}")
    print("replay: still failing" if report.failed else "replay: clean")
    return 1 if report.failed else 0


def _fuzz(args) -> int:
    if args.replay:
        return _replay(args.replay)
    generator = CaseGenerator(args.seed, PROFILES[args.profile]())
    started = time.time()
    cases = generator.corpus(args.cases, start=args.start)
    report = run_corpus(cases, seed=args.seed, keep_reports=False)
    print(
        f"fuzz[{args.profile}] seed={args.seed} cases={report.cases} "
        f"divergences={report.divergences} violations={report.violations} "
        f"degraded={report.degraded_answers} ({time.time() - started:.1f}s)"
    )
    print(f"corpus fingerprint: {report.corpus_fingerprint}")
    print(f"report fingerprint: {report.fingerprint()}")

    status = 0
    if args.check_determinism:
        second = run_corpus(
            generator.corpus(args.cases, start=args.start),
            seed=args.seed,
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
        by_index = {case.index: case for case in cases}
        for index in report.failed_cases:
            case = by_index[index]
            reason = case_failure(case) or "failed in corpus run"
            if args.no_shrink:
                print(f"  case {index}: {reason}")
            else:
                result = shrink(case, case_failure)
                case, reason = result.case, result.reason
                print(
                    f"  case {index}: {reason} "
                    f"(shrunk {result.original_queries} -> {result.queries} queries)"
                )
            path = os.path.join(args.save_failures, f"repro-c{index}.json")
            write_repro(path, case, reason)
            print(f"    repro written: {path}")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, sort_keys=True, indent=2)
            handle.write("\n")
        print(f"report written: {args.out}")
    return status


# -- argument parsing ------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Read what a BrAID run recorded, or fuzz the bridge.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    # What ``trace`` and ``profile`` read: a trace file, or the demo session.
    trace_input = argparse.ArgumentParser(add_help=False)
    trace_input.add_argument("path", nargs="?", help="a .trace.jsonl file (omit with --demo)")
    trace_input.add_argument(
        "--demo", action="store_true", help="use an in-process demo trace instead"
    )

    trace = commands.add_parser(
        "trace", parents=[trace_input], help="render a span trace as a tree"
    )
    trace.add_argument(
        "--events", action="store_true", help="also print span events (and orphan events)"
    )
    trace.set_defaults(run=_trace)

    lineage = commands.add_parser(
        "lineage", help="render a cache report as a derivation-lineage forest"
    )
    lineage.add_argument("path", help="a cache report JSON, or a result file embedding one")
    lineage.set_defaults(run=_lineage)

    profile = commands.add_parser(
        "profile", parents=[trace_input], help="attribute a trace's simulated time to phases"
    )
    profile.add_argument(
        "--json", action="store_true", help="emit the profile as canonical JSON instead of text"
    )
    profile.add_argument(
        "--top", type=int, default=10, metavar="N",
        help="how many hot views/tables/elements to list (default 10)",
    )
    profile.add_argument(
        "--no-queries", action="store_true", help="omit the per-query phase breakdowns"
    )
    profile.set_defaults(run=_profile)

    fuzz = commands.add_parser(
        "fuzz", help="differential fuzzing against the oracle hierarchy"
    )
    fuzz.add_argument("--seed", type=int, default=0, help="corpus seed (default 0)")
    fuzz.add_argument("--cases", type=int, default=500, help="number of cases (default 500)")
    fuzz.add_argument("--start", type=int, default=0, help="first case index (default 0)")
    fuzz.add_argument(
        "--profile", choices=sorted(PROFILES), default="healthy",
        help="case profile: healthy link, fault schedules, multi-backend "
        "federation (tables spread over 2-3 backends), eviction churn (small "
        "caches, many queries, intermediates), or equivalent-query variants "
        "(mutated spellings that must hit the canonical cache tier with "
        "identical answers)",
    )
    fuzz.add_argument(
        "--check-determinism", action="store_true",
        help="run the corpus twice and require identical report fingerprints",
    )
    fuzz.add_argument(
        "--save-failures", default=".qa-repros", metavar="DIR",
        help="directory for shrunk repro files (default .qa-repros)",
    )
    fuzz.add_argument(
        "--no-shrink", action="store_true",
        help="save failing cases unshrunk (faster triage of large corpora)",
    )
    fuzz.add_argument("--out", metavar="FILE", help="also write the full report as JSON")
    fuzz.add_argument(
        "--replay", metavar="REPRO", help="re-run one repro file instead of generating a corpus"
    )
    fuzz.set_defaults(run=_fuzz)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "demo", None) is False and args.path is None:
        parser.error(f"{args.command}: a trace path (or --demo) is required")
    try:
        return args.run(args)
    except BrokenPipeError:  # e.g. piped into `head`
        sys.stderr.close()
        return 0
    except _Unreadable as error:
        print(f"python -m repro {args.command}: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
