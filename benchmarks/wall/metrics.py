"""Metric declarations and how each is computed from episode reports.

An *episode* is one fresh process: set-up, then one timed pass over the
workload's fixed op stream (``episode.py`` prints its report as JSON).
End-to-end metrics come from unprobed episodes only; per-layer metrics
from one probed episode, its unprobed twin over the same ops, and (on
``hot_repeat``) one episode with the program's own ``Tracer`` on.

``BENCHMARK.json`` lists the subset of ``END_TO_END`` that is never zero
on any workload (``Metric.gated``) and every ``PER_LAYER`` name; the smoke
test keeps the two files in step.

Two readings of every timing exist side by side: the wall clock as read
(``reference=False``) and the same scaled to the reference host speed by
the calibration loops around the interval (see ``host.py``).  The result
line and ``compare.py`` use the scaled reading; the ledger stores both.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import median

from benchmarks.wall.host import REFERENCE_CALIB_MS


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: End-to-end only: the worsening ``BENCHMARK.json`` allows, as a share
    #: of the parent's median.  Its runs differ in ``--seed``, so the bound
    #: has to hold the seed-to-seed spread of the metric three times over.
    bound: float | None = None
    #: End-to-end only: never zero on any workload, so it can carry a
    #: relative bound in ``BENCHMARK.json``.  The others are zero where the
    #: cache absorbs everything.
    gated: bool = True
    #: End-to-end only: a function of the seed alone.  ``compare.py`` sets
    #: two same-seed ledgers side by side and holds these to a bound of zero.
    exact: bool = False
    #: End-to-end only: seconds (in the metric's unit) ``compare.py`` lets
    #: pass whatever the relative bound says.
    slack: float = 0.0
    #: Per-layer only: the end-to-end metric this should move, and where.
    moves: str = ""
    on: str = ""


END_TO_END = (
    Metric("ops_per_s", "1/s", "higher", 0.25),
    Metric("op_ms_p50", "ms", "lower", 0.25),
    Metric("op_ms_p95", "ms", "lower", 0.25),
    Metric("sim_s_per_op", "sim_s", "lower", 0.15, exact=True),
    Metric("shipped_tuples_per_op", "count", "lower", gated=False, exact=True),
    Metric("remote_requests_per_op", "count", "lower", gated=False, exact=True),
    Metric("fail_share", "ratio", "lower", gated=False, exact=True),
    Metric("setup_s", "s", "lower", 0.25, slack=0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.15),
)

#: The end-to-end metrics read off the wall clock.
WALL_CLOCK = ("ops_per_s", "op_ms_p50", "op_ms_p95", "setup_s")

_MS = ("ms", "lower")
_COUNT = ("count", "lower")

PER_LAYER = (
    Metric("server.self_ms_per_op", *_MS, moves="op_ms_p50, ops_per_s", on="hot_repeat"),
    Metric("server.steps_per_op", *_COUNT, moves="op_ms_p50, ops_per_s", on="hot_repeat"),
    Metric("server.shared_subplans", "count", "higher", moves="shipped_tuples_per_op", on="churn_scan"),
    Metric("server.op_ms_p99", *_MS, moves="op_ms_p95", on="hot_repeat"),
    Metric("cms.self_ms_per_op", *_MS, moves="op_ms_p50", on="hot_repeat, ie_session"),
    Metric("cms.queries_per_op", *_COUNT, moves="op_ms_p50", on="ie_session"),
    Metric("caql.self_ms_per_op", *_MS, moves="ops_per_s", on="hot_repeat, variant_respell"),
    Metric("canonical.self_ms_per_op", *_MS, moves="ops_per_s, op_ms_p50", on="variant_respell; flat on churn_scan"),
    Metric("canonical.calls_per_op", *_COUNT, moves="ops_per_s", on="variant_respell"),
    Metric("planner.self_ms_per_op", *_MS, moves="op_ms_p50; op_ms_p95 on federated_join", on="hot_repeat, federated_join"),
    Metric("subsumption.self_ms_per_op", *_MS, moves="ops_per_s, op_ms_p95", on="drill_subsume; flat on hot_repeat"),
    Metric("subsumption.candidates_per_op", *_COUNT, moves="ops_per_s", on="drill_subsume"),
    Metric("subsumption.match_ratio", "ratio", "higher", moves="ops_per_s", on="drill_subsume"),
    Metric("cache.lookup_ms_per_op", *_MS, moves="op_ms_p50", on="hot_repeat"),
    Metric("cache.store_ms_per_op", *_MS, moves="ops_per_s", on="churn_scan"),
    Metric("cache.self_ms_per_op", *_MS, moves="op_ms_p50, ops_per_s", on="hot_repeat, churn_scan"),
    Metric("cache.hit_ratio", "ratio", "higher", moves="shipped_tuples_per_op, sim_s_per_op", on="all; churn_scan most"),
    Metric("cache.exact_hits_per_op", "count", "higher", moves="sim_s_per_op", on="hot_repeat"),
    Metric("cache.canonical_hits_per_op", "count", "higher", moves="sim_s_per_op", on="variant_respell"),
    Metric("cache.subsumed_hits_per_op", "count", "higher", moves="remote_requests_per_op", on="drill_subsume"),
    Metric("cache.misses_per_op", *_COUNT, moves="remote_requests_per_op, sim_s_per_op", on="churn_scan"),
    Metric("cache.stores_per_op", *_COUNT, moves="ops_per_s", on="churn_scan, drill_subsume"),
    Metric("cache.evictions_per_op", *_COUNT, moves="shipped_tuples_per_op", on="churn_scan"),
    Metric("cache.elements_end", *_COUNT, moves="op_ms_p95", on="drill_subsume"),
    Metric("cache.used_bytes_end", "B", "lower", moves="peak_rss_mb", on="drill_subsume"),
    Metric("executor.self_ms_per_op", *_MS, moves="op_ms_p50", on="drill_subsume, ie_session"),
    Metric("executor.drain_ms_per_op", *_MS, moves="op_ms_p50", on="ie_session"),
    Metric("engine.self_ms_per_op", *_MS, moves="ops_per_s", on="drill_subsume; small on hot_repeat"),
    Metric("engine.tuples_processed_per_op", *_COUNT, moves="ops_per_s", on="drill_subsume"),
    Metric("engine.us_per_tuple", "us", "lower", moves="ops_per_s", on="drill_subsume"),
    Metric("rdi.self_ms_per_op", *_MS, moves="op_ms_p95, setup_s", on="churn_scan"),
    Metric("rdi.fetches_per_op", *_COUNT, moves="remote_requests_per_op", on="churn_scan"),
    Metric("rdi.retries_per_op", *_COUNT, moves="op_ms_p95", on="churn_scan"),
    Metric("remote.self_ms_per_op", *_MS, moves="ops_per_s, op_ms_p95; setup_s on hot_repeat", on="churn_scan, federated_join"),
    Metric("remote.us_per_tuple_shipped", "us", "lower", moves="ops_per_s", on="churn_scan"),
    Metric("federation.self_ms_per_op", *_MS, moves="ops_per_s", on="federated_join only"),
    Metric("federation.backend_requests_per_op", *_COUNT, moves="shipped_tuples_per_op", on="federated_join only"),
    Metric("ie.self_ms_per_op", *_MS, moves="ops_per_s", on="ie_session only"),
    Metric("ie.caql_queries_per_op", *_COUNT, moves="ops_per_s", on="ie_session only"),
    Metric("obs.tracer_overhead_ratio", "ratio", "lower", moves="guards op_ms_p50", on="hot_repeat"),
    Metric("probe.overhead_ratio", "ratio", "lower", moves="none: health of the measurement", on="all"),
    Metric("probe.unattributed_share", "ratio", "lower", moves="none: health of the measurement", on="all"),
    Metric("probe.missing", *_COUNT, moves="none: health of the measurement", on="all"),
    Metric("host.calib_ms", *_MS, moves="none: speed of the host", on="all"),
)

#: Layers named after the façade they sit behind; null on the other façades.
FACADE_LAYERS = {"server", "federation", "ie"}


def percentile(ordered: list[float], p: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


class NondeterminismError(RuntimeError):
    """Two same-seed episodes disagreed on an exact count."""


#: Fields of an episode report that depend only on the seed.
EXACT_FIELDS = (
    "ops", "stream_digest", "table_digest", "answer_digest", "sim_s", "counters",
    "cache_elements_end", "cache_used_bytes_end",
)


def assert_identical(episodes: list[dict]) -> None:
    """Same seed, same counts — or the run fails."""
    first = episodes[0]
    for other in episodes[1:]:
        for field in EXACT_FIELDS:
            if other[field] != first[field]:
                raise NondeterminismError(
                    f"{first['workload']}: {field} differs between same-seed episodes: "
                    f"{first[field]!r} vs {other[field]!r}"
                )


def _to_reference(*calib_ms: float) -> float:
    """Factor that takes a duration to the reference host speed, given the
    calibration loop's times around it (see ``host.py``)."""
    return REFERENCE_CALIB_MS * len(calib_ms) / sum(calib_ms)


def time_scale(episode: dict) -> float:
    """The factor for the episode's timed region."""
    return _to_reference(*episode["calib_ms"][1:])


def episode_values(episode: dict, reference: bool = True) -> dict[str, float]:
    """The nine end-to-end metrics of one episode on its own; timings at
    the reference host speed, or with ``reference=False`` as read."""
    ops = episode["ops"]
    counters = episode["counters"]
    scale = time_scale(episode) if reference else 1.0
    setup_scale = _to_reference(*episode["calib_ms"][:2]) if reference else 1.0
    ordered = sorted(episode["op_ms"])
    return {
        "ops_per_s": ops / (episode["wall_s"] * scale),
        "op_ms_p50": percentile(ordered, 50) * scale,
        "op_ms_p95": percentile(ordered, 95) * scale,
        "sim_s_per_op": episode["sim_s"] / ops,
        "shipped_tuples_per_op": counters.get("remote.tuples_shipped", 0) / ops,
        "remote_requests_per_op": counters.get("remote.requests", 0) / ops,
        "fail_share": episode["failed"] / ops,
        "setup_s": episode["setup_s"] * setup_scale,
        "peak_rss_mb": episode["peak_rss_mb"],
    }


def _undisturbed(readings) -> float:
    """The second-fastest of one timing's readings across the episodes.

    Interference from the host only ever slows an episode down, so the
    fast readings are the clean ones; a median still moves when three of
    five episodes meet a slow stretch at the same op.  The very fastest is
    left out because one calibration loop that met a burst makes its whole
    episode read too fast once scaled.  (Both applied to the same kept
    episodes of the reference sandbox, eleven sets of eight to ten runs:
    the run-to-run quartile distance of the three timings averages 8.7 %
    with the median and 6.6 % with the second-fastest; README,
    "Steadiness".)
    """
    ordered = sorted(readings)
    return ordered[min(1, len(ordered) - 1)]


def end_to_end(episodes: list[dict]) -> dict[str, float]:
    """The nine end-to-end metrics of one run.

    Every same-seed episode replays the same ops in the same order, so the
    timings are de-noised *per op* before they are summarised: an op's
    latency is its second-fastest scaled reading across the episodes, and
    the timed region's wall time is the sum over equal-op blocks of each
    block's second-fastest duration (see ``_undisturbed``).  Exact counts
    are asserted identical.
    """
    assert_identical(episodes)
    reps = [episode_values(e) for e in episodes]
    scales = [time_scale(e) for e in episodes]
    latency = sorted(
        _undisturbed(ms * scale for ms, scale in zip(column, scales))
        for column in zip(*(e["op_ms"] for e in episodes))
    )
    durations = [
        [(end - start) * scale for start, end in zip([0.0] + e["block_end_s"], e["block_end_s"])]
        for e, scale in zip(episodes, scales)
    ]
    wall_s = sum(_undisturbed(column) for column in zip(*durations))
    return {
        **reps[0],
        "ops_per_s": episodes[0]["ops"] / wall_s,
        "op_ms_p50": percentile(latency, 50),
        "op_ms_p95": percentile(latency, 95),
        "fail_share": max(r["fail_share"] for r in reps),
        "setup_s": median(r["setup_s"] for r in reps),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in reps),
    }


def _ratio(numerator: float | None, denominator: float) -> float | None:
    return numerator / denominator if denominator and numerator is not None else None


def per_layer(plain: dict, probed: dict, tracer: dict | None) -> dict[str, float | None]:
    """Every ``PER_LAYER`` metric; ``None`` where it does not apply
    (another façade's layer) or could not be measured (missing probe)."""
    trace = probed["trace"]
    ops = probed["ops"]
    #: ns in the probed episode -> ms at the reference host speed.
    to_ms = time_scale(probed) / 1e6

    def wall_per_op(episode: dict) -> float:
        return episode["wall_s"] * time_scale(episode) / episode["ops"]

    counters = probed["counters"]
    facade = probed["facade"]
    installed = set(trace["installed_layers"])

    def count(name: str) -> float:
        return counters.get(name, 0) / ops

    def self_ms(layer: str) -> float | None:
        if layer not in installed:
            return None
        return trace["layer_self_ns"][layer] * to_ms / ops

    def name_ms(*names: str) -> float | None:
        found = [trace["name_self_ns"][n] for n in names if n in trace["name_self_ns"]]
        return sum(found) * to_ms / ops if found else None

    def calls(layer: str) -> float | None:
        return trace["layer_calls"][layer] / ops if layer in installed else None

    hits = counters.get("cache.hits.exact", 0) + counters.get("cache.hits.subsumed", 0)
    engine_us = trace["layer_self_ns"].get("engine", 0) * to_ms * 1e3
    remote_us = trace["layer_self_ns"].get("remote", 0) * to_ms * 1e3
    counted = trace["match_counted"]
    values: dict[str, float | None] = {
        "server.self_ms_per_op": self_ms("server"),
        "server.steps_per_op": count("server.scheduler_steps"),
        "server.shared_subplans": counters.get("server.shared_subplans", 0),
        "server.op_ms_p99": percentile(sorted(plain["op_ms"]), 99) * time_scale(plain),
        "cms.self_ms_per_op": self_ms("cms"),
        "cms.queries_per_op": calls("cms"),
        "caql.self_ms_per_op": self_ms("caql"),
        "canonical.self_ms_per_op": self_ms("canonical"),
        "canonical.calls_per_op": calls("canonical"),
        "planner.self_ms_per_op": self_ms("planner"),
        "subsumption.self_ms_per_op": self_ms("subsumption"),
        "subsumption.candidates_per_op": trace["match_calls"] / ops if counted else None,
        "subsumption.match_ratio": _ratio(trace["match_hits"], trace["match_calls"]) if counted else None,
        "cache.lookup_ms_per_op": name_ms("cache.Cache.lookup_exact", "cache.Cache.elements_for_predicate"),
        "cache.store_ms_per_op": name_ms("cache.Cache.store"),
        "cache.self_ms_per_op": self_ms("cache"),
        "cache.hit_ratio": _ratio(hits, hits + counters.get("cache.misses", 0)),
        "cache.exact_hits_per_op": count("cache.hits.exact"),
        "cache.canonical_hits_per_op": count("cache.canonical_hits"),
        "cache.subsumed_hits_per_op": count("cache.hits.subsumed"),
        "cache.misses_per_op": count("cache.misses"),
        "cache.stores_per_op": _ratio(trace["name_calls"].get("cache.Cache.store"), ops),
        "cache.evictions_per_op": count("cache.evictions"),
        "cache.elements_end": probed["cache_elements_end"],
        "cache.used_bytes_end": probed["cache_used_bytes_end"],
        "executor.self_ms_per_op": self_ms("executor"),
        "executor.drain_ms_per_op": name_ms(
            "executor.ResultStream.fetch_all", "executor.ResultStream.next"
        ),
        "engine.self_ms_per_op": self_ms("engine"),
        "engine.tuples_processed_per_op": count("cache.tuples_processed"),
        "engine.us_per_tuple": _ratio(engine_us, counters.get("cache.tuples_processed", 0))
        if "engine" in installed else None,
        "rdi.self_ms_per_op": self_ms("rdi"),
        "rdi.fetches_per_op": calls("rdi"),
        "rdi.retries_per_op": count("remote.retries"),
        "remote.self_ms_per_op": self_ms("remote"),
        "remote.us_per_tuple_shipped": _ratio(remote_us, counters.get("remote.tuples_shipped", 0))
        if "remote" in installed else None,
        "federation.self_ms_per_op": self_ms("federation"),
        "federation.backend_requests_per_op": count("remote.requests"),
        "ie.self_ms_per_op": self_ms("ie"),
        "ie.caql_queries_per_op": count("ie.caql_queries"),
        "obs.tracer_overhead_ratio": wall_per_op(tracer) / wall_per_op(plain) if tracer else None,
        "probe.overhead_ratio": wall_per_op(probed) / wall_per_op(plain),
        "probe.unattributed_share": 1.0 - trace["root_ns"] / 1e9 / probed["wall_s"],
        "probe.missing": len(trace["missing"]),
        "host.calib_ms": sum(probed["calib_ms"][1:]) / 2,
    }
    for name in values:
        layer = name.partition(".")[0]
        if layer in FACADE_LAYERS and layer != facade:
            values[name] = None
    assert set(values) == {m.name for m in PER_LAYER}
    return values
