"""``python -m repro``, driven in process through ``main(argv)``.

Output parity: each digest below is the SHA-256 of what the command prints
for a committed artifact, recorded when these renderers were four separate
scripts; the one CLI must print the same bytes.  E14's and E21's were
refrozen once, when the artifacts themselves moved (replacement became
GreedyDual) and the renderers did not.  Paths are relative to the checkout
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
    ("trace", f"{RESULTS}/E14.trace.jsonl"): "7095725e67bf8168dee2b836784d4bda1ed43ef52a582fe91383d281c8ca61d3",
    ("trace", "--events", f"{RESULTS}/E14.trace.jsonl"): "869e2c0e640602455fd2719140d1c9b7a97fd827a9b325f282e4be255d4e8e65",
    ("trace", f"{RESULTS}/E15.trace.jsonl"): "58e01f4092321c12232946a5d057f6ff601d5fc80731d4554f52abe086d926c4",
    ("trace", "--events", f"{RESULTS}/E15.trace.jsonl"): "3b357a0f23377cec7905e208db9f5801e47417e6405dabbaddb1daffc94d03ed",
    ("trace", f"{RESULTS}/E16.trace.jsonl"): "e411c2c345b29aeb2d387aa22738e9ba8064a8614fe1a9623b52ead103f0afe6",
    ("trace", "--events", f"{RESULTS}/E16.trace.jsonl"): "1024fa9a6f2ee341e5b0eaa222ab192c462b1b3781834adcda4a4e170bdbc263",
    ("trace", f"{RESULTS}/E17.trace.jsonl"): "9fd548464ba52019f91cadda042f58b5b12a41df856faa705ef30bb98c422bb9",
    ("trace", "--events", f"{RESULTS}/E17.trace.jsonl"): "dbcdd7f7dd8c16d4a78e9c205a9621cd390bd553c874c49e6b735531cd834ff7",
    ("trace", f"{RESULTS}/E19.trace.jsonl"): "f8a085775f1bc55fbf88f10e3a9ec7ff8f5a3576a260eb763b2d93665eed3da6",
    ("trace", "--events", f"{RESULTS}/E19.trace.jsonl"): "eb5118793e163e9066e5d95a696fdab8de87facb4e3c205e8b773fe3b890d34c",
    ("trace", f"{RESULTS}/E20.trace.jsonl"): "bb83a4e1b0620b0f76ca9278b4abf2ddd3f185fa1e00abc59f39894ed662fac8",
    ("trace", "--events", f"{RESULTS}/E20.trace.jsonl"): "f83d8fa0fe56cfc14fbac8ff6e8e051dd0db5117cd459b774ccfc3c0309558ea",
    ("metrics", f"{RESULTS}/E20.telemetry.jsonl"): "0f2aaa0cbfde888a5a45977375f4e1e5bcc410f8086eb635e4654303d893fec9",
    ("lineage", f"{RESULTS}/E21.json"): "f6826fc8f5379993bd0ce417e630af27eefc96f730ee303303cacedf923dc6e9",
    ("profile", f"{RESULTS}/E19.trace.jsonl"): "128c0e4a825c5beeaffa73fdd97b54c9f29aa177499d7b88952308f16a87ca35",
    ("profile", "--json", f"{RESULTS}/E19.trace.jsonl"): "78116f1e26aa2ddea9d76de3d54734d0a253c0ecb71f85045cc8b5a18224b98c",
    ("profile", f"{RESULTS}/E20.trace.jsonl"): "6d738a7d77d975eac7785d229544aad71d35f7576c4d6f1b18fcb884a2f68c38",
    ("profile", "--json", f"{RESULTS}/E20.trace.jsonl"): "9dfbd15cd0ab337ced2c511d584a41efe4c4375b6826266086cb5ccd0e7221cb",
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
