"""The reachability gate: no function in ``src/repro`` that no traffic runs.

Runs the repository's non-test traffic with :mod:`sitecustomize` (this
directory) recording every ``src/repro`` function each process enters,
walks every ``def`` under ``src/repro`` with :mod:`ast`, and fails when a
function no process entered is not named in ``allowlist.json`` beside
this file, each name there with the reason it stays.

The traffic, each command a fresh process from the repository root:

* every fuzz profile at the seed and size ``FINGERPRINTS.json`` pins,
  with ``--check-determinism`` and ``--out``;
* every wall episode ``FINGERPRINTS.json`` pins (scale 0.25, oracle on);
* the E-series (``pytest benchmarks --ignore=benchmarks/wall``), which
  rewrites ``benchmarks/results`` byte for byte when nothing moved;
* every script in ``examples/``;
* the ``trace`` and ``profile`` subcommands of ``python -m repro``, on
  the demo session and on committed artifacts.

Usage, from the repository root (about two minutes)::

    python tools/reachability/gate.py

Exit status 0 when every unreached function is allow-listed, 1 when one
is not or a traffic command failed.  Allow-listed functions that traffic
now reaches, or that no longer exist, are listed but do not fail the gate.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
PACKAGE = ROOT / "src" / "repro"
ALLOWLIST = HERE / "allowlist.json"


def traffic(scratch: Path) -> list[list[str]]:
    """Every command the gate runs, in order."""
    python = sys.executable
    pins = json.loads((ROOT / "FINGERPRINTS.json").read_text())
    commands = [
        [python, "-m", "repro", "fuzz", "--profile", profile, "--seed", str(pin["seed"]),
         "--cases", str(pin["cases"]), "--check-determinism",
         "--out", str(scratch / f"fuzz-{profile}.json")]
        for profile, pin in pins["fuzz"].items()
    ]
    commands += [
        [python, "benchmarks/wall/episode.py", "--workload", workload, "--seed", seed,
         "--scale", "0.25", "--check", "1"]
        for workload, seeds in pins["wall"].items()
        for seed in seeds
    ]
    commands.append(
        [python, "-m", "pytest", "-q", "-p", "no:cacheprovider", "benchmarks",
         "--ignore=benchmarks/wall"]
    )
    commands += [
        [python, path.relative_to(ROOT).as_posix()]
        for path in sorted((ROOT / "examples").glob("*.py"))
    ]
    results = "benchmarks/results"
    commands += [
        [python, "-m", "repro", "trace", "--demo", "--events"],
        [python, "-m", "repro", "trace", "--events", f"{results}/E16.trace.jsonl"],
        [python, "-m", "repro", "profile", "--demo", "--json"],
        [python, "-m", "repro", "profile", f"{results}/E19.trace.jsonl"],
    ]
    return commands


def run_traffic(records: Path, scratch: Path) -> bool:
    """Run every traffic command with the collector on; False if one failed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(HERE), str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    env["REACH_OUT"] = str(records)
    healthy = True
    for command in traffic(scratch):
        started = time.perf_counter()
        done = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True,
        )
        shown = " ".join(Path(part).name if part == sys.executable else part for part in command)
        print(f"{time.perf_counter() - started:6.1f}s  exit {done.returncode}  {shown}")
        if done.returncode:
            sys.stdout.write(done.stderr[-4000:])
            healthy = False
    return healthy


def definitions() -> dict[tuple[str, int], tuple[str, int]]:
    """``(file, first line)`` -> ``(file::qualified name, lines)`` for every
    ``def`` under ``src/repro``; the first line is the first decorator's,
    as a code object's ``co_firstlineno`` is."""
    found: dict[tuple[str, int], tuple[str, int]] = {}

    def walk(node: ast.AST, relative: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = f"{prefix}{child.name}"
                found[relative, first] = (f"{relative}::{name}", child.end_lineno - first + 1)
                walk(child, relative, f"{name}.")
            elif isinstance(child, ast.ClassDef):
                walk(child, relative, f"{prefix}{child.name}.")
            else:
                walk(child, relative, prefix)

    for path in sorted(PACKAGE.rglob("*.py")):
        relative = path.relative_to(PACKAGE).as_posix()
        walk(ast.parse(path.read_text(encoding="utf-8"), str(path)), relative, "")
    return found


def entered(records: Path) -> set[tuple[str, int]]:
    """Every ``(file, first line)`` some process recorded entering."""
    seen: set[tuple[str, int]] = set()
    for path in records.glob("*.txt"):
        for line in path.read_text(encoding="utf-8").splitlines():
            relative, first, _name = line.split("\t")
            seen.add((relative, int(first)))
    return seen


def check(records: Path) -> bool:
    """Compare what was entered with every definition; True when every
    unreached function is allow-listed."""
    defs = definitions()
    reached = entered(records)
    unreached = {defs[key] for key in defs.keys() - reached}
    names = {name for name, _lines in unreached}
    allowlist = json.loads(ALLOWLIST.read_text())
    allowed = allowlist["unreached"]
    unexplained = sorted(n for n, reason in allowed.items() if reason not in allowlist["reasons"])
    new = sorted(names - allowed.keys())
    stale = sorted(allowed.keys() - names)
    print(
        f"{len(unreached)} of {len(defs)} functions in src/repro never entered "
        f"({sum(lines for _name, lines in unreached)} lines); "
        f"{len(names & allowed.keys())} allow-listed"
    )
    for name in stale:
        print(f"allow-listed but entered or gone (drop the row): {name}")
    for name in unexplained:
        print(f"ALLOW-LISTED WITHOUT A KNOWN REASON: {name} ({allowed[name]})")
    for name in new:
        print(f"UNREACHED, not allow-listed: {name}")
    return not new and not unexplained


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        records = Path(scratch) / "records"
        records.mkdir()
        healthy = run_traffic(records, Path(scratch))
        passed = check(records)
    return 0 if healthy and passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
