"""The wall benchmark's probe table names bindings that exist.

``benchmarks/wall/probes.py`` patches the program from outside, by name; a
refactor that renames or drops a binding does not fail there — the probe
reports it ``missing`` and the layer's time silently falls to its parent —
and the benchmark's own smoke suite is outside tier-1.  This is the tier-1
check that every ``(owner, attribute)`` the table names still resolves.
"""

import importlib.util
import pathlib

PROBES = (
    pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "wall" / "probes.py"
)
spec = importlib.util.spec_from_file_location("wall_probes", PROBES)
probes = importlib.util.module_from_spec(spec)
spec.loader.exec_module(probes)


def test_every_boundary_and_counter_resolves():
    targets = [(owner, attribute) for _layer, owner, attribute in probes.BOUNDARIES]
    targets.append(probes.COUNTED)
    missing = []
    for owner, attribute in targets:
        try:
            getattr(probes._resolve(owner), attribute)
        except (ImportError, AttributeError):
            missing.append(f"{owner}.{attribute}")
    assert missing == []
