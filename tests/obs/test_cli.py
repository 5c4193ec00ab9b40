"""``python -m repro``, driven in process through ``main(argv)``.

Output parity: each digest below is the SHA-256 of what the command prints
for a committed artifact, recorded when these renderers were four separate
scripts; the one CLI must print the same bytes.  E14's and E21's were
refrozen once, when the artifacts themselves moved (replacement became
GreedyDual) and the renderers did not.  Every trace digest, E20's
metrics and both profiles were refrozen again when the traces moved: an
exact hit lost its planner and executor spans (the profile's phase totals
are unchanged; its subsumption match counts lost the rationale-only
probes), and an eager answer its drain step.  Paths are relative to the checkout
root because the trace, metrics and lineage headers echo them.
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
    ("trace", f"{RESULTS}/E14.trace.jsonl"): "310dde5564144d8692ea9a989107469cadca67a26645c418102dabf8a6847540",
    ("trace", "--events", f"{RESULTS}/E14.trace.jsonl"): "21049f38b6d18f3814ed0d6c15ebf420422bee63274dfa7243016f8341568885",
    ("trace", f"{RESULTS}/E15.trace.jsonl"): "188bc757608aac570e330fbad17fa528567c8bcdb998be2fdb38d8b0aca32de7",
    ("trace", "--events", f"{RESULTS}/E15.trace.jsonl"): "80e5cd614ee4cd4ef51bb6532a4577ee0aaba904d780cfa392f53b035745abd8",
    ("trace", f"{RESULTS}/E16.trace.jsonl"): "1817a6112ada558caebc7a91b63070b583411173921e9bf67632960024042fc3",
    ("trace", "--events", f"{RESULTS}/E16.trace.jsonl"): "d938ffd954b1abca7e30033f1f8b2a2c6868a113b7c743e1cbdb12905c9418e8",
    ("trace", f"{RESULTS}/E17.trace.jsonl"): "9fd548464ba52019f91cadda042f58b5b12a41df856faa705ef30bb98c422bb9",
    ("trace", "--events", f"{RESULTS}/E17.trace.jsonl"): "dbcdd7f7dd8c16d4a78e9c205a9621cd390bd553c874c49e6b735531cd834ff7",
    ("trace", f"{RESULTS}/E19.trace.jsonl"): "76c4982fc87c5e5d5a633acd0a2c18adc529e3815321aa1a42d81e4cf78d8c58",
    ("trace", "--events", f"{RESULTS}/E19.trace.jsonl"): "8b02d7361842dcbc97bcb4eaeb351e5bf04e6d4096d30b69dc9aa5b7baa6e6c8",
    ("trace", f"{RESULTS}/E20.trace.jsonl"): "fd7679f17e027af5bd4cf3aa2e36bf2d2e3d410e9e16716c1a58d6175a44013e",
    ("trace", "--events", f"{RESULTS}/E20.trace.jsonl"): "c5463bc971828b15a17e28f27f4d50fedf8e903e635e3960d887e196e0db2eb1",
    ("metrics", f"{RESULTS}/E20.telemetry.jsonl"): "779511a7bf19b710b15d360dca321bcfff38feba9526db59b7019a3054e2cd78",
    ("lineage", f"{RESULTS}/E21.json"): "f6826fc8f5379993bd0ce417e630af27eefc96f730ee303303cacedf923dc6e9",
    ("profile", f"{RESULTS}/E19.trace.jsonl"): "df617e466c696f1f85e274f263f577625b36d8881d37a90d669b54b0e1bb9553",
    ("profile", "--json", f"{RESULTS}/E19.trace.jsonl"): "e5259930f3b6525d6571a9e89643fc91c103ee0c47814ad87c4acdafd0cbc9f6",
    ("profile", f"{RESULTS}/E20.trace.jsonl"): "4c11ce22aaa8673e599a30d01cd8129a9d4a0f8ee10701b2e74ad93463672d45",
    ("profile", "--json", f"{RESULTS}/E20.trace.jsonl"): "8f2a99f4d5e36709e2bbbee0ac39e6bbe7dd2f44e95af7d82dd84f140518d5e3",
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
    @pytest.mark.parametrize("command", ["trace", "metrics", "lineage", "profile"])
    def test_a_missing_file_exits_2(self, command, capsys):
        assert main([command, "/nonexistent/artifact.jsonl"]) == 2
        assert "artifact.jsonl" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["trace", "metrics", "lineage", "profile"])
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
