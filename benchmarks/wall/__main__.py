"""``PYTHONPATH=src python -m benchmarks.wall``: every workload, one ledger.

Runs each workload's end-to-end pass and traced pass (fresh processes,
sequentially, single-threaded), prints every metric as
``workload metric value unit``, and writes ``results/latest.json`` (or
``--out DIR/latest.json`` plus the span trace of each workload).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from benchmarks.wall import gen, host, metrics, run

RESULTS = Path(__file__).resolve().parent / "results"


def ledger_entry(workload: str, seed: int, scale: float,
                 count: int, trace: bool, out: Path) -> dict:
    values, episodes = run.measure_end_to_end(workload, seed, scale, count)
    reps = [metrics.episode_values(e) for e in episodes]
    wall = [metrics.episode_values(e, reference=False) for e in episodes]
    entry = {
        "stream_digest": episodes[0]["stream_digest"],
        "table_digest": episodes[0]["table_digest"],
        "ops": episodes[0]["ops"],
        "episodes": len(episodes),
        "oracle_checked": episodes[0]["oracle_checked"],
        # Per episode: the loop before set-up, before and after the timed pass.
        "calib_ms": [e["calib_ms"] for e in episodes],
        "end_to_end": {
            m.name: {"value": values[m.name], "unit": m.unit, "reps": [r[m.name] for r in reps]}
            for m in metrics.END_TO_END
        },
        # The same episodes as the wall clock read them, unscaled.
        "wall_clock": {name: [w[name] for w in wall] for name in metrics.WALL_CLOCK},
    }
    if trace:
        spans = out / f"{workload}.spans.jsonl"
        layers, traced = run.measure_layers(workload, seed, scale, spans=str(spans))
        entry["per_layer"] = {
            m.name: {"value": layers[m.name], "unit": m.unit} for m in metrics.PER_LAYER
        }
        probed = traced[1]["trace"]
        entry["layer_share"] = {
            layer: ns / probed["root_ns"] for layer, ns in probed["layer_self_ns"].items()
        }
        entry["probe_missing"] = probed["missing"]
    return entry


def print_entry(workload: str, entry: dict) -> None:
    print(f"{workload} stream_digest {entry['stream_digest'][:16]} sha256")
    print(f"{workload} table_digest {entry['table_digest'][:16]} sha256")
    samples = entry["ops"] * entry["episodes"]
    for name, cell in entry["end_to_end"].items():
        note = f" n={samples}" if name.startswith("op_ms") else ""
        print(f"{workload} {name} {cell['value']:.6g} {cell['unit']}{note}")
    for name, cell in entry.get("per_layer", {}).items():
        value = "null" if cell["value"] is None else f"{cell['value']:.6g}"
        print(f"{workload} {name} {value} {cell['unit']}")


def main() -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.wall", description=__doc__)
    parser.add_argument("--workload", nargs="*", choices=run.WORKLOAD_NAMES, default=run.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=gen.DEFAULT_SEED)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--no-trace", action="store_true")
    parser.add_argument("--smoke", action="store_true",
                        help="--scale 0.02, one episode per workload, trace on")
    parser.add_argument("--out", type=Path, default=RESULTS)
    args = parser.parse_args()
    scale, episodes = args.scale, run.EPISODES
    if args.smoke:
        scale, episodes = 0.02, 1
    args.out.mkdir(parents=True, exist_ok=True)

    ledger = {
        "schema": 1,
        "seed": args.seed,
        "scale": scale,
        "host": host.describe(),
        "workloads": {},
    }
    print(f"host calib_ms {ledger['host']['calib_ms']:.6g} ms")
    failed = False
    for workload in args.workload:
        entry = ledger_entry(workload, args.seed, scale, episodes, not args.no_trace, args.out)
        ledger["workloads"][workload] = entry
        print_entry(workload, entry)
        failed |= entry["end_to_end"]["fail_share"]["value"] != 0
    (args.out / "latest.json").write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
