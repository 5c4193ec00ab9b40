"""Smoke tests for the wall-clock benchmark.

Run as ``python -m pytest benchmarks/wall/tests -q`` from the repository
root; tier-1 (``testpaths = tests``) does not collect this file.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[3]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from benchmarks.wall import compare, episode, gen, metrics, probes, run, workloads  # noqa: E402


@pytest.fixture(scope="module")
def smoke_ledger(tmp_path_factory) -> tuple[dict, Path, str]:
    """One ``--smoke`` run of every workload: (ledger, out dir, stdout)."""
    out = tmp_path_factory.mktemp("wall")
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.wall", "--smoke", "--out", str(out)],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    return json.loads((out / "latest.json").read_text()), out, done.stdout


def test_benchmark_json_matches_the_declarations():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert declared["paths"] == ["benchmarks/wall"]
    assert declared["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in metrics.END_TO_END if m.gated
    ]
    assert declared["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in metrics.PER_LAYER
    ]
    assert all(m.moves and m.on for m in metrics.PER_LAYER)


def test_smoke_run_reports_every_metric(smoke_ledger):
    ledger, out, stdout = smoke_ledger
    assert set(ledger["workloads"]) == set(run.WORKLOAD_NAMES)
    assert {"calib_ms", "nproc", "python", "platform"} <= set(ledger["host"])
    for name, entry in ledger["workloads"].items():
        assert set(entry["end_to_end"]) == {m.name for m in metrics.END_TO_END}
        assert set(entry["per_layer"]) == {m.name for m in metrics.PER_LAYER}
        for cell in list(entry["end_to_end"].values()) + list(entry["per_layer"].values()):
            assert cell["unit"]
        assert entry["end_to_end"]["fail_share"]["value"] == 0
        assert entry["oracle_checked"] > 0
        for metric in metrics.END_TO_END:
            assert f"{name} {metric.name} " in stdout
        # Layer self times telescope to the root spans.
        assert sum(entry["layer_share"].values()) == pytest.approx(1.0, abs=0.01)
        assert entry["per_layer"]["probe.missing"]["value"] == 0
        assert set(entry["wall_clock"]) == set(metrics.WALL_CLOCK)
        assert (out / f"{name}.spans.jsonl").stat().st_size > 0
        for layer, only_on in (("federation", "federated_join"), ("ie", "ie_session")):
            value = entry["per_layer"][f"{layer}.self_ms_per_op"]["value"]
            assert (value is not None) == (name == only_on)


def test_match_ratio_counts_elements_that_yield_a_match(smoke_ledger):
    ledger, _out, _stdout = smoke_ledger
    # Most elements examined derive nothing; before the fix every one "matched".
    for name in ("churn_scan", "ie_session", "drill_subsume"):
        layers = ledger["workloads"][name]["per_layer"]
        assert layers["subsumption.candidates_per_op"]["value"] > 1
        assert layers["subsumption.match_ratio"]["value"] < 1
    # Every drill is answered from a cached view, so some element must match.
    assert ledger["workloads"]["drill_subsume"]["per_layer"]["subsumption.match_ratio"]["value"] > 0
    assert ledger["workloads"]["hot_repeat"]["per_layer"]["subsumption.match_ratio"]["value"] is None


def test_spans_carry_the_documented_fields(smoke_ledger):
    _ledger, out, _stdout = smoke_ledger
    with open(out / "drill_subsume.spans.jsonl") as spans:
        first = json.loads(spans.readline())
    assert set(first) == {"name", "layer", "start_ns", "end_ns", "parent", "op_id"}


def test_same_seed_same_stream_other_seed_other_stream():
    for workload in workloads.WORKLOADS.values():
        one = workloads.make_inputs(workload, gen.DEFAULT_SEED, 0.02)
        same = workloads.make_inputs(workload, gen.DEFAULT_SEED, 0.02)
        other = workloads.make_inputs(workload, gen.HOLDOUT_SEED, 0.02)
        assert (same.stream_digest, same.table_digest) == (one.stream_digest, one.table_digest)
        # The seed changes the questions as well as the database they are asked of.
        assert other.stream_digest != one.stream_digest
        assert other.table_digest != one.table_digest
        assert {op.text for op in other.ops} != {op.text for op in one.ops}


def test_respelling_preserves_the_oracle_answer():
    base = gen.hot_repeat(5, 12, 8)
    variants = gen.variant_respell(5, 12, 60)
    assert len({op.text for op in variants.ops}) == len(variants.ops)
    expected = workloads.cms_oracle(base, set(range(12)))
    for index, op in enumerate(variants.ops):
        spelled = gen.Inputs(variants.tables, (), (), (op.text,))
        assert workloads.cms_oracle(spelled, {0})[0] == expected[op.answer], op.text


def test_a_wrong_oracle_row_is_counted_as_a_failure():
    ops = (gen.Op("a", 0), gen.Op("b", 1), gen.Op("a", 0))
    by_answer, bad = workloads.canonical_answers(ops, [[(1,)], [(2,)], [(1,)]])
    assert not bad
    assert workloads.oracle_failures(ops, by_answer, {0: [(1,)], 1: [(2,)]}) == set()
    assert workloads.oracle_failures(ops, by_answer, {0: [(9,)], 1: [(2,)]}) == {0, 2}
    # An op that raised, and one that disagrees with its twin, fail too.
    _by_answer, bad = workloads.canonical_answers(ops, [[(1,)], None, [(7,)]])
    assert bad == {1, 2}


def _episode_args(**overrides) -> argparse.Namespace:
    defaults = dict(workload="hot_repeat", seed=3, scale=0.02, mode="probed",
                    max_ops=0, check=0, spans="")
    return argparse.Namespace(**{**defaults, **overrides})


def test_a_missing_probe_target_is_null_not_an_exception():
    boundaries = tuple(b for b in probes.BOUNDARIES if b[0] != "planner") + (
        ("planner", "repro.core.planner:QueryPlanner", "renamed_by_a_refactor"),
    )
    probed = episode.run_episode(_episode_args(), boundaries)
    plain = episode.run_episode(_episode_args(mode="plain"))
    assert probed["failed"] == 0
    layers = metrics.per_layer(plain, probed, None)
    assert layers["probe.missing"] == 1
    assert layers["planner.self_ms_per_op"] is None
    assert layers["cms.self_ms_per_op"] > 0
    # The probe is gone again: nothing stays wrapped after an episode.
    from repro.core.cms import CacheManagementSystem
    assert not hasattr(CacheManagementSystem.query, "__wrapped__")


def test_result_line_prints_numbers_for_nulls():
    probed = episode.run_episode(_episode_args(workload="ie_session"))
    plain = episode.run_episode(_episode_args(workload="ie_session", mode="plain"))
    layers = metrics.per_layer(plain, probed, None)
    assert layers["server.self_ms_per_op"] is None
    line = json.loads(run.result_line(layers, metrics.PER_LAYER, [plain, probed]))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["metrics"]["server.self_ms_per_op"] == {"value": 0.0, "unit": "ms"}
    assert line["metrics"]["ie.self_ms_per_op"]["value"] > 0


def test_same_seed_episodes_must_agree():
    report = episode.run_episode(_episode_args(mode="plain"))
    metrics.assert_identical([report, dict(report)])
    with pytest.raises(metrics.NondeterminismError):
        metrics.assert_identical([report, {**report, "sim_s": report["sim_s"] + 1e-9}])


def _cell(value, reps=None):
    return {"value": value, "unit": "x", "reps": reps or [value] * 3}


def test_compare_verdicts():
    steady, slower = _cell(10.0, [9.9, 10.0, 10.1]), _cell(12.0, [11.9, 12.0, 12.1])
    assert compare.verdict(steady, slower, "lower", 0.10)[0] == "worse"
    assert compare.verdict(slower, steady, "lower", 0.10)[0] == "better"
    assert compare.verdict(steady, _cell(10.3, [10.2, 10.3, 10.4]), "lower", 0.10)[0] == "within"
    noisy = _cell(10.0, [8.0, 10.0, 12.5])
    assert compare.verdict(noisy, _cell(10.5, [9.0, 10.5, 12.0]), "lower", 0.10)[0] == "unresolved"
    assert compare.verdict(noisy, _cell(5.0, [4.0, 5.0, 6.0]), "lower", 0.10)[0] == "better"
    assert compare.verdict(_cell(100.0), _cell(80.0), "higher", 0.10)[0] == "worse"
    # Exact metrics: any worsening is worse, a zero base included.
    assert compare.verdict(_cell(0.0), _cell(0.0), "lower", 0.0)[0] == "within"
    assert compare.verdict(_cell(0.0), _cell(0.5), "lower", 0.0)[0] == "worse"
    assert compare.verdict(_cell(2.0), _cell(1.5), "lower", 0.0)[0] == "better"


def test_compare_holds_exact_metrics_to_zero_and_gives_setup_its_slack():
    def ledger(**changed):
        cells = {m.name: _cell(changed.get(m.name, 1.0)) for m in metrics.END_TO_END}
        return {"workloads": {"w": {"end_to_end": cells}}}

    def verdicts(**changed):
        rows = compare.compare(ledger(), ledger(**changed))
        return {row[1]: row[-1] for row in rows}

    assert set(verdicts().values()) == {"within"}
    assert verdicts(sim_s_per_op=1.001)["sim_s_per_op"] == "worse"
    assert verdicts(remote_requests_per_op=1.001)["remote_requests_per_op"] == "worse"
    # setup_s may lose metric.slack seconds whatever its share says.
    assert verdicts(setup_s=1.2)["setup_s"] == "within"
    assert verdicts(setup_s=1.3)["setup_s"] == "worse"


def test_timings_are_scaled_to_the_reference_host_speed():
    report = episode.run_episode(_episode_args(mode="plain"))
    twice_as_slow = {**report, "calib_ms": [2 * c for c in report["calib_ms"]]}
    fast, slow = metrics.episode_values(report), metrics.episode_values(twice_as_slow)
    assert slow["op_ms_p50"] == pytest.approx(fast["op_ms_p50"] / 2)
    assert slow["ops_per_s"] == pytest.approx(fast["ops_per_s"] * 2)
    assert slow["setup_s"] == pytest.approx(fast["setup_s"] / 2)
    assert slow["sim_s_per_op"] == fast["sim_s_per_op"]
    # The ledger keeps the wall clock as read beside the scaled timings.
    as_read = metrics.episode_values(twice_as_slow, reference=False)
    assert as_read["setup_s"] == report["setup_s"]
    assert as_read["ops_per_s"] == report["ops"] / report["wall_s"]
