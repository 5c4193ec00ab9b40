"""The regression gate: flattening, tolerance bands, baseline policy,
and the CLI's exit codes (driven as a subprocess, the way CI runs it)."""

import json
import os
import pathlib
import subprocess
import sys

from repro.obs.regress import (
    compare,
    dump_baseline,
    flatten,
    make_baseline,
)

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"


def summary(**overrides) -> dict:
    document = {
        "schema_version": 2,
        "experiments": {
            "E1": {
                "experiment": "E1",
                "title": "ablation",
                "results": {
                    "headers": ["mode", "requests", "sim time (s)"],
                    "rows": [["full", 10, 1.5], ["no-cache", 40, 6.0]],
                },
            },
            "E16": {
                "experiment": "E16",
                "title": "observability",
                "results": {"runs": [{"wall_ms": 29.9}]},
            },
        },
    }
    document.update(overrides)
    return document


class TestFlatten:
    def test_tables_flatten_to_row_and_column_names(self):
        flat = flatten(summary())
        assert flat["E1.full.requests"] == 10
        assert flat["E1.no-cache.sim time (s)"] == 6.0
        assert flat["E16.runs[0].wall_ms"] == 29.9

    def test_duplicate_row_keys_are_disambiguated(self):
        document = summary()
        document["experiments"]["E1"]["results"]["rows"].append(["full", 11, 1.6])
        flat = flatten(document)
        assert flat["E1.full.requests"] == 10
        assert flat["E1.full#2.requests"] == 11

    def test_booleans_are_not_metrics(self):
        document = summary()
        document["experiments"]["E1"]["results"]["degraded"] = True
        assert "E1.degraded" not in flatten(document)


class TestCompare:
    def test_identical_summaries_pass(self):
        baseline = make_baseline(summary())
        report = compare(baseline, summary())
        assert report.ok
        assert report.compared > 0
        assert not report.regressions and not report.missing

    def test_changed_simulated_metric_fails_both_directions(self):
        baseline = make_baseline(summary())
        worse = summary()
        worse["experiments"]["E1"]["results"]["rows"][0][1] = 11
        better = summary()
        better["experiments"]["E1"]["results"]["rows"][0][1] = 9
        assert not compare(baseline, worse).ok
        assert not compare(baseline, better).ok  # determinism break

    def test_wall_clock_paths_are_ignored(self):
        baseline = make_baseline(summary())
        fresh = summary()
        fresh["experiments"]["E16"]["results"]["runs"][0]["wall_ms"] = 99.0
        report = compare(baseline, fresh)
        assert report.ok
        assert report.ignored > 0

    def test_missing_metric_fails(self):
        baseline = make_baseline(summary())
        fresh = summary()
        del fresh["experiments"]["E1"]
        report = compare(baseline, fresh)
        assert not report.ok
        assert report.missing
        assert "FAIL" in report.render()

    def test_new_metric_is_informational(self):
        baseline = make_baseline(summary())
        fresh = summary()
        fresh["experiments"]["E99"] = {
            "experiment": "E99",
            "title": "new",
            "results": {"value": 1.0},
        }
        report = compare(baseline, fresh)
        assert report.ok
        assert [f.path for f in report.new] == ["E99.value"]

    def test_tolerance_band_admits_drift(self):
        baseline = make_baseline(summary(), tolerances={"E1.full.requests": 0.5})
        fresh = summary()
        fresh["experiments"]["E1"]["results"]["rows"][0][1] = 14  # +40% < 50%
        assert compare(baseline, fresh).ok

    def test_baseline_policy_fields_apply(self):
        baseline = make_baseline(summary(), default_tolerance=0.5)
        fresh = summary()
        fresh["experiments"]["E1"]["results"]["rows"][0][2] = 2.0  # +33%
        assert compare(baseline, fresh).ok

    def test_render_and_dict_agree_on_the_verdict(self):
        baseline = make_baseline(summary())
        fresh = summary()
        fresh["experiments"]["E1"]["results"]["rows"][0][1] = 11
        report = compare(baseline, fresh)
        assert "REGRESS" in report.render()
        assert report.to_dict()["ok"] is False


class TestBaselineIO:
    def test_dump_is_canonical_and_versioned(self):
        baseline = make_baseline(summary(), default_tolerance=0.1)
        text = dump_baseline(baseline)
        parsed = json.loads(text)
        assert parsed["baseline_schema_version"] == 1
        assert parsed["summary_schema_version"] == 2
        assert parsed["default_tolerance"] == 0.1
        assert dump_baseline(parsed) == text


class TestCLI:
    def run_cli(self, *args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "repro", "regress", *args],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )

    def test_exit_codes(self, tmp_path):
        summary_path = tmp_path / "summary.json"
        baseline_path = tmp_path / "baseline.json"
        summary_path.write_text(json.dumps(summary()))

        frozen = self.run_cli(
            "--summary", str(summary_path),
            "--baseline", str(baseline_path),
            "--write-baseline",
        )
        assert frozen.returncode == 0, frozen.stderr

        clean = self.run_cli(
            "--summary", str(summary_path), "--baseline", str(baseline_path)
        )
        assert clean.returncode == 0, clean.stderr
        assert "PASS" in clean.stdout

        perturbed = summary()
        perturbed["experiments"]["E1"]["results"]["rows"][0][1] = 11
        summary_path.write_text(json.dumps(perturbed))
        failed = self.run_cli(
            "--summary", str(summary_path), "--baseline", str(baseline_path)
        )
        assert failed.returncode == 1
        assert "REGRESS" in failed.stdout
        assert "FAIL" in failed.stdout

        missing = self.run_cli(
            "--summary", str(tmp_path / "nope.json"),
            "--baseline", str(baseline_path),
        )
        assert missing.returncode == 2

    def test_json_output(self, tmp_path):
        summary_path = tmp_path / "summary.json"
        baseline_path = tmp_path / "baseline.json"
        summary_path.write_text(json.dumps(summary()))
        self.run_cli(
            "--summary", str(summary_path),
            "--baseline", str(baseline_path),
            "--write-baseline",
        )
        result = self.run_cli(
            "--summary", str(summary_path),
            "--baseline", str(baseline_path),
            "--json",
        )
        assert result.returncode == 0
        verdict = json.loads(result.stdout)
        assert verdict["ok"] is True
        assert verdict["compared"] > 0
