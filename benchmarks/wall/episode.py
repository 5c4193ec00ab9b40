"""One episode: a fresh process that sets a workload up, times one pass over
its op stream, checks the answers and prints one JSON report.

Run by ``run.py`` (never directly by the driver).  A fresh process per
episode keeps process-global state — the canonicalizer's memo, interned
plans, allocator high-water marks — from leaking between repetitions, and
makes ``peak_rss_mb`` the footprint of exactly one set-up plus one pass.

``setup_s`` runs from the top of ``run_episode`` to the start of the timed
region: importing the program, generating and loading tables, building the
server, parsing the streams, warming the cache.  The host calibration loop
is timed before set-up, before the timed region and after it (see
``host.py``); none of the three is inside a measured interval.
"""

import argparse
import gc
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

_ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(_ROOT / "src"), str(_ROOT)]

from benchmarks.wall.host import calibrate  # noqa: E402

#: Recorder capacity per op (it grows if a workload needs more).
SPANS_PER_OP = 32
#: The timed region is cut into this many equal-op blocks.
BLOCKS = 50


def run_episode(args: argparse.Namespace, boundaries=None) -> dict:
    calib_at_start = calibrate()
    started = perf_counter()
    # Imported here, not at the top: importing the program is set-up time.
    from benchmarks.wall import probes, workloads

    workload = workloads.WORKLOADS[args.workload]
    inputs = workloads.make_inputs(workload, args.seed, args.scale)
    if args.mode == "tracer":
        rig = workload.rig(inputs, workload.cache_bytes, tracing=True)
    else:
        rig = workload.rig(inputs, workload.cache_bytes)
    warm = rig.drive(rig.warm)
    if any(rows is None for rows in warm.answers):
        raise RuntimeError(f"{workload.name}: a warm-up op failed")
    ops = inputs.ops[: args.max_ops] if args.max_ops else inputs.ops
    stream = rig.ops[: len(ops)]

    recorder = probe = None
    if args.mode == "probed":
        recorder = probes.Recorder(SPANS_PER_OP * len(ops))
        probe = probes.install(recorder, boundaries or probes.BOUNDARIES)
    setup_s = perf_counter() - started
    calib_before = calibrate()
    gc.collect()
    before = rig.metrics.snapshot()
    sim_before = rig.clock.now

    outcome = rig.drive(stream, recorder)

    calib_after = calibrate()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    counters = rig.metrics.diff(before)
    sim_s = rig.clock.now - sim_before
    if probe is not None:
        probe.uninstall()

    by_answer, bad = workloads.canonical_answers(ops, outcome.answers, rig.answer_key)
    checked = 0
    if args.check:
        oracle = rig.oracle(inputs, set(by_answer))
        checked = len(oracle)
        bad |= workloads.oracle_failures(ops, by_answer, oracle)

    # Completion order is deterministic, so block k covers the same ops in
    # every same-seed episode: run.py takes per-block medians across them.
    order = sorted(outcome.finished)
    blocks = min(BLOCKS, len(order))
    report = {
        "workload": workload.name,
        "facade": workload.rig.facade,
        "seed": args.seed,
        "mode": args.mode,
        "ops": len(ops),
        "stream_digest": inputs.stream_digest,
        "table_digest": inputs.table_digest,
        "answer_digest": workloads.answer_digest(by_answer),
        "calib_ms": [calib_at_start, calib_before, calib_after],
        "setup_s": setup_s,
        "wall_s": outcome.wall_s,
        "op_ms": [latency * 1e3 for latency in outcome.latencies],
        "block_end_s": [order[len(order) * (b + 1) // blocks - 1] for b in range(blocks)],
        "sim_s": sim_s,
        "counters": counters,
        "cache_elements_end": len(rig.cache),
        "cache_used_bytes_end": rig.cache.used_bytes(),
        "failed": len(bad),
        "oracle_checked": checked,
        "peak_rss_mb": peak_rss_mb,
        "trace": None,
    }
    if recorder is not None:
        trace = recorder.summary()
        trace["missing"] = probe.missing
        trace["installed_layers"] = sorted(probe.installed_layers)
        trace["match_counted"] = probe.counting
        report["trace"] = trace
        if args.spans:
            recorder.write_jsonl(args.spans)
    return report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--mode", choices=("plain", "probed", "tracer"), default="plain")
    parser.add_argument("--max-ops", type=int, default=0)
    parser.add_argument("--check", type=int, default=0)
    parser.add_argument("--spans", default="")
    print(json.dumps(run_episode(parser.parse_args())))


if __name__ == "__main__":
    main()
