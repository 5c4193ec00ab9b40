"""One workload, one result line: the command ``BENCHMARK.json`` names.

``python3 benchmarks/wall/run.py --workload W --seed N --seconds S --trace 0|1``

``--seconds`` sizes the op stream: five passes over it take about that long
on the reference host (``scale = seconds / RUN_SECONDS``, converted once in
``main``; everything below it takes the scale).  With ``--trace 0`` the
stream is replayed in five fresh processes (*episodes*: set-up, then one
timed pass) so that ``setup_s`` is a median and every timing is de-noised
across them; exact counts must be identical or the run fails.  With ``--trace 1``
one unprobed and one probed episode replay the stream's leading ops and the
per-layer ledger is printed instead.  The last line of standard output is
the JSON result.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(_HERE.parents[1]))

from benchmarks.wall import gen, metrics  # noqa: E402

WORKLOAD_NAMES = (
    "hot_repeat", "variant_respell", "drill_subsume",
    "churn_scan", "federated_join", "ie_session",
)
#: Episodes per run, and the ``--seconds`` that is scale 1: there the five
#: timed passes add up to about ``RUN_SECONDS`` on the reference host (5 s on
#: ``variant_respell``, whose set-up is the longest, to 12 s on
#: ``ie_session``).  The op count follows from the arguments alone, so what
#: a run executes never depends on the clock.
EPISODES = 5
RUN_SECONDS = 8.0
#: The traced pass replays at most this many leading ops (spans stay in memory).
TRACE_OPS = 5000


def episode(workload: str, seed: int, scale: float, **options) -> dict:
    """Run one episode in a fresh interpreter and return its report."""
    command = [
        sys.executable, str(_HERE / "episode.py"),
        "--workload", workload, "--seed", str(seed), "--scale", repr(scale),
    ]
    for name, value in options.items():
        command += [f"--{name.replace('_', '-')}", str(value)]
    done = subprocess.run(command, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"episode failed ({' '.join(command)}):\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def measure_end_to_end(
    workload: str, seed: int, scale: float = 1.0, episodes: int = EPISODES
) -> tuple[dict[str, float], list[dict]]:
    """``episodes`` unprobed episodes; the first one also checks every
    distinct answer against the oracle."""
    reports = [episode(workload, seed, scale, check=1)]
    reports += [episode(workload, seed, scale) for _ in range(episodes - 1)]
    return metrics.end_to_end(reports), reports


def measure_layers(
    workload: str, seed: int, scale: float = 1.0, spans: str = ""
) -> tuple[dict[str, float | None], list[dict]]:
    """The traced pass: an unprobed twin, a probed episode over the same
    leading ops, and on ``hot_repeat`` one with the program's Tracer on."""
    plain = episode(workload, seed, scale, max_ops=TRACE_OPS, check=1)
    probed = episode(workload, seed, scale, max_ops=TRACE_OPS, mode="probed", spans=spans)
    metrics.assert_identical([plain, probed])
    tracer = None
    if workload == "hot_repeat":
        # The Tracer costs tens of times the untraced op, so it replays a
        # tenth of the ops; per_layer compares wall per op.
        tracer = episode(workload, seed, scale, max_ops=TRACE_OPS // 10, mode="tracer")
    episodes = [plain, probed] + ([tracer] if tracer else [])
    return metrics.per_layer(plain, probed, tracer), episodes


def result_line(values: dict, declared: tuple[metrics.Metric, ...], episodes: list[dict]) -> str:
    """The contract's result object (a null per-layer value prints as 0:
    no time or work was attributed to that layer on this workload)."""
    attempted = sum(e["ops"] for e in episodes)
    failed = sum(e["failed"] for e in episodes)
    return json.dumps(
        {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                m.name: {"value": values[m.name] if values[m.name] is not None else 0.0, "unit": m.unit}
                for m in declared
            },
        }
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=gen.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    scale = args.seconds / RUN_SECONDS
    if args.trace:
        values, episodes = measure_layers(args.workload, args.seed, scale)
        declared = metrics.PER_LAYER
    else:
        values, episodes = measure_end_to_end(args.workload, args.seed, scale)
        declared = tuple(m for m in metrics.END_TO_END if m.gated)
    print(result_line(values, declared, episodes))


if __name__ == "__main__":
    main()
