"""``python -m repro``, driven in process through ``main(argv)``.

Output parity: each digest below is the SHA-256 of what the command prints
for a committed artifact, recorded when these renderers were four separate
scripts; the one CLI must print the same bytes.  E14's and E21's were
refrozen once, when the artifacts themselves moved (replacement became
GreedyDual) and the renderers did not; E21's went with the ``lineage``
command, which rendered it.  Every trace digest and E19's
profiles were refrozen again when the traces moved: an exact hit lost
its planner and executor spans, and an eager answer its drain step.  The
E15 and E17 traces were refrozen once more when an
eager derived answer stopped being stored (the new code prints the old
digests for the old artifacts).  The E14, E15, E16 and E19 trace
digests were refrozen when the subsumption walk became one walk (a
``subsume.reject`` event carries the reason of the tier that turned the
candidate away, and a candidate the pin index skipped has none), E15's
also when ``server.step`` lost its ``phase``.  E15's profiles pin the profiler on a
multi-session server trace.  Paths are relative to the checkout root
because the trace headers echo them.
"""

import hashlib
import json
import pathlib

import pytest

from repro.__main__ import main
from repro.qa import CaseGenerator, write_repro

ROOT = pathlib.Path(__file__).resolve().parents[2]
RESULTS = "benchmarks/results"

PARITY = {
    ("trace", f"{RESULTS}/E14.trace.jsonl"): "b07787b0e9c911d9908acb8ccb3f46cb7203d211b6f814136ac4327b0455526a",
    # Refrozen when a whole-query fetch became one store: one answer's two
    # eviction events now sit on its ``cms.query`` span, where the CMS
    # stores it after the combine, not on ``executor.execute``; same victims.
    ("trace", "--events", f"{RESULTS}/E14.trace.jsonl"): "6e171f0963f4e2ae302560f04fdc785bfe695176122f6c8d688f19061be382e5",
    ("trace", f"{RESULTS}/E15.trace.jsonl"): "bbd5ba0ebea26ccf733cb6f202b03cfeb2f73ab9d36b5416015b090e83568d72",
    ("trace", "--events", f"{RESULTS}/E15.trace.jsonl"): "1153f370554694e7b16cb9c3a54cb4526be6493ded286226ccfd14b2c87deb77",
    ("trace", f"{RESULTS}/E16.trace.jsonl"): "2d26d18b5d76c5b88e8d2fecaa3695272a67234d0a3c56d3fa2a0a5cd761c324",
    ("trace", "--events", f"{RESULTS}/E16.trace.jsonl"): "7d24a9669d7bb7213500294dc3b439a55ef6ea9408bbd7fddd3c6147f199a92e",
    ("trace", f"{RESULTS}/E17.trace.jsonl"): "fffa846bd30e7dfd93c2a69336e21e213c258729c3d1d857ede3c990f986b284",
    ("trace", "--events", f"{RESULTS}/E17.trace.jsonl"): "544e074b3601baca91463753475d7c3a5103bac0011ba2b35ecbe35b014bd9e2",
    ("trace", f"{RESULTS}/E19.trace.jsonl"): "76c4982fc87c5e5d5a633acd0a2c18adc529e3815321aa1a42d81e4cf78d8c58",
    ("trace", "--events", f"{RESULTS}/E19.trace.jsonl"): "3db0a9752d2152398e7652d4085538e2a62233ae45c1bdae05779b49344b27cb",
    ("profile", f"{RESULTS}/E19.trace.jsonl"): "df617e466c696f1f85e274f263f577625b36d8881d37a90d669b54b0e1bb9553",
    ("profile", "--json", f"{RESULTS}/E19.trace.jsonl"): "e5259930f3b6525d6571a9e89643fc91c103ee0c47814ad87c4acdafd0cbc9f6",
    ("profile", f"{RESULTS}/E15.trace.jsonl"): "fff7fd88f4a5ec5348b670b94050651b35a85562d6d44272f51e6b85d519b258",
    ("profile", "--json", f"{RESULTS}/E15.trace.jsonl"): "5118d1c81e788619d4f176c7c7cd7714ae54696895e190a32adb45db6af8cf98",
}


def run(capsys, *argv: str) -> tuple[int, str]:
    status = main(list(argv))
    return status, capsys.readouterr().out


@pytest.mark.parametrize("argv", sorted(PARITY), ids=" ".join)
def test_output_matches_the_recorded_digest(argv, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    status, out = run(capsys, *argv)
    assert status == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PARITY[argv]


class TestExitCodes:
    @pytest.mark.parametrize("command", ["trace", "profile"])
    def test_a_missing_file_exits_2(self, command, capsys):
        assert main([command, "/nonexistent/artifact.jsonl"]) == 2
        assert "artifact.jsonl" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["trace", "profile"])
    def test_a_malformed_line_exits_2(self, command, capsys, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"span": 1, "name": "cms.query"}\n{not json\n')
        assert main([command, str(path)]) == 2
        assert capsys.readouterr().out == ""

    def test_a_malformed_repro_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["fuzz", "--replay", str(path)]) == 2
        assert main(["fuzz", "--replay", str(tmp_path / "missing.json")]) == 2

    def test_a_trace_command_needs_a_path_or_demo(self):
        with pytest.raises(SystemExit) as exit:
            main(["profile"])
        assert exit.value.code == 2


class TestInProcessRuns:
    def test_trace_demo_with_events(self, capsys):
        status, out = run(capsys, "trace", "--demo", "--events")
        assert status == 0
        assert out.startswith("demo trace (two grandparent queries; second is a cache hit)")
        assert "cms.query" in out and "* " in out

    def test_profile_demo(self, capsys):
        status, out = run(capsys, "profile", "--demo")
        assert status == 0
        assert out.startswith("profile: 2 queries")

    def test_fuzz_checks_determinism_and_replays(self, capsys, tmp_path):
        report = tmp_path / "report.json"
        status, out = run(
            capsys, "fuzz", "--cases", "3", "--check-determinism", "--out", str(report)
        )
        assert status == 0, out
        assert "determinism: second run byte-identical" in out
        assert json.loads(report.read_text())["cases"] == 3

        repro = tmp_path / "repro.json"
        write_repro(str(repro), CaseGenerator(0).generate(1))
        status, out = run(capsys, "fuzz", "--replay", str(repro))
        assert status == 0
        assert out.rstrip().endswith("replay: clean")
