"""The benchmark-side trace: layer boundaries and the span recorder.

The program is not instrumented.  ``BOUNDARIES`` names the calls *into*
each layer (layer = module name); :func:`install` wraps each with a span
recorder for the one traced pass, after the unprobed reps that produce the
end-to-end numbers.  Boundaries are coarse on purpose (about 25 spans per
op at most): a layer's self time is its spans' duration minus the part
its child spans cover, so per workload the layer self times sum to the
root spans exactly.

A boundary that no longer resolves (a later refactor renamed it) is
reported in ``Probe.missing`` and its layer's time falls to the enclosing
layer; it never raises.

Lazy results are a known blind spot: a generator's tuples are produced
while some *other* span (``ResultStream.fetch_all``/``next``, or the IE's
own iteration) is open, so deferred derivation work is billed to
``executor``/``ie``, not ``engine``.
"""

from __future__ import annotations

import importlib
import json
from time import perf_counter_ns

#: ``(layer, owner, attribute)``; owner is ``module`` or ``module:Class``.
#: Import-site names (``repro.core.cms.core_plan``) are patched where they
#: are *called from*, because that is the binding the caller resolves.
BOUNDARIES: tuple[tuple[str, str, str], ...] = (
    ("server", "repro.server.braid_server:BraidServer", "step"),
    ("server", "repro.server.braid_server:BraidServer", "submit"),
    ("cms", "repro.core.cms:CacheManagementSystem", "query"),
    ("cms", "repro.core.cms:CacheManagementSystem", "query_pattern"),
    ("caql", "repro.core.cms", "core_plan"),
    ("caql", "repro.core.cms", "psj_from_literals"),
    ("caql", "repro.core.rdi", "sql_from_psj"),
    ("canonical", "repro.core.planner", "canonicalize"),
    ("canonical", "repro.core.cache", "canonical_key"),
    ("planner", "repro.core.planner:QueryPlanner", "plan"),
    ("subsumption", "repro.core.planner", "find_relevant"),
    ("cache", "repro.core.cache:Cache", "lookup_exact"),
    ("cache", "repro.core.cache:Cache", "elements_for_predicate"),
    ("cache", "repro.core.cache:Cache", "store"),
    ("executor", "repro.core.executor:ExecutionMonitor", "execute"),
    ("executor", "repro.core.executor:ResultStream", "fetch_all"),
    ("executor", "repro.core.executor:ResultStream", "next"),
    ("engine", "repro.core.engine:TupleEngine", "select"),
    ("engine", "repro.core.engine:TupleEngine", "join"),
    ("engine", "repro.core.engine:TupleEngine", "project_entries"),
    ("engine", "repro.core.engine:TupleEngine", "derive_full"),
    ("engine", "repro.core.engine:ColumnarEngine", "select"),
    ("engine", "repro.core.engine:ColumnarEngine", "join"),
    ("engine", "repro.core.engine:ColumnarEngine", "project_entries"),
    ("engine", "repro.core.engine:ColumnarEngine", "derive_full"),
    ("engine", "repro.core.executor", "select"),
    ("engine", "repro.core.executor", "join"),
    ("engine", "repro.core.executor", "derive_full"),
    ("engine", "repro.core.executor", "derive_part"),
    ("engine", "repro.core.executor", "derive_full_lazy"),
    ("rdi", "repro.core.rdi:RemoteInterface", "fetch"),
    ("rdi", "repro.core.rdi:RemoteInterface", "fetch_many"),
    ("rdi", "repro.core.rdi:RemoteInterface", "fetch_base_relation"),
    ("rdi", "repro.core.rdi:RemoteInterface", "fetch_partial"),
    ("remote", "repro.remote.server:RemoteDBMS", "execute"),
    ("remote", "repro.remote.server:RemoteDBMS", "execute_stream"),
    ("remote", "repro.remote.server:RemoteDBMS", "execute_batch"),
    ("federation", "repro.federation.interface:FederatedInterface", "fetch"),
    ("federation", "repro.federation.interface:FederatedInterface", "fetch_many"),
    ("federation", "repro.federation.interface:FederatedInterface", "fetch_base_relation"),
    ("federation", "repro.federation.interface:FederatedInterface", "fetch_partial"),
    ("ie", "repro.ie.engine:InferenceEngine", "ask_all"),
)

#: Runs hundreds of times per op: counted (calls, calls that yield a match),
#: never given spans.
COUNTED = ("repro.core.subsumption", "match_element")

class Recorder:
    """Spans in preallocated parallel lists; filled by the wrappers."""

    def __init__(self, capacity: int):
        self.n = 0
        #: Index of the open span (-1 at top level).
        self.current = -1
        #: The op the load generator is about to issue; stamped on roots.
        self.op = -1
        self.names: list[str] = []
        self.layers: list[str] = []
        self.name_ids = [0] * capacity
        self.starts = [0] * capacity
        self.ends = [0] * capacity
        self.parents = [-1] * capacity
        self.ops = [-1] * capacity
        self.match_calls = 0
        self.match_hits = 0

    def _grow(self) -> None:
        extra = len(self.starts)
        for column, fill in (
            (self.name_ids, 0), (self.starts, 0), (self.ends, 0),
            (self.parents, -1), (self.ops, -1),
        ):
            column.extend([fill] * extra)  # in place: wrappers hold the lists

    def wrap(self, function, name: str, layer: str):
        """``function`` with a span around every call."""
        name_id = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        name_ids, starts, ends = self.name_ids, self.starts, self.ends
        parents, ops = self.parents, self.ops

        def probe(*args, **kwargs):
            index = self.n
            if index >= len(starts):
                self._grow()
            self.n = index + 1
            parent = self.current
            parents[index] = parent
            if parent < 0:
                ops[index] = self.op
            name_ids[index] = name_id
            self.current = index
            starts[index] = perf_counter_ns()
            try:
                return function(*args, **kwargs)
            finally:
                ends[index] = perf_counter_ns()
                self.current = parent

        probe.__wrapped__ = function
        return probe

    def count(self, function):
        """``function`` (a generator function) with call and at-least-one-
        match counters only: a hit is counted when the first match is
        yielded, so an examined element that matches nothing is a miss."""

        def counted(*args, **kwargs):
            self.match_calls += 1
            return first_counted(function(*args, **kwargs))

        def first_counted(matches):
            matched = False
            for match in matches:
                if not matched:
                    matched = True
                    self.match_hits += 1
                yield match

        counted.__wrapped__ = function
        return counted

    # -- reading the trace --------------------------------------------------------
    def summary(self) -> dict:
        """Per-layer self time and span counts, plus the root total (ns).

        ``sum(self_ns.values()) == root_ns`` by construction; the smoke
        test asserts it so a recorder bug cannot hide.
        """
        n = self.n
        starts, ends, parents = self.starts, self.ends, self.parents
        self_ns = [ends[i] - starts[i] for i in range(n)]
        root_ns = 0
        for i in range(n):
            duration = ends[i] - starts[i]
            if parents[i] >= 0:
                self_ns[parents[i]] -= duration
            else:
                root_ns += duration
        by_name_ns = [0] * len(self.names)
        by_name_calls = [0] * len(self.names)
        for i in range(n):
            by_name_ns[self.name_ids[i]] += self_ns[i]
            by_name_calls[self.name_ids[i]] += 1
        layer_ns: dict[str, int] = {}
        layer_calls: dict[str, int] = {}
        for name_id, layer in enumerate(self.layers):
            layer_ns[layer] = layer_ns.get(layer, 0) + by_name_ns[name_id]
            layer_calls[layer] = layer_calls.get(layer, 0) + by_name_calls[name_id]
        return {
            "spans": n,
            "root_ns": root_ns,
            "layer_self_ns": layer_ns,
            "layer_calls": layer_calls,
            "name_self_ns": dict(zip(self.names, by_name_ns)),
            "name_calls": dict(zip(self.names, by_name_calls)),
            "match_calls": self.match_calls,
            "match_hits": self.match_hits,
        }

    def write_jsonl(self, path) -> None:
        """One span per line; children inherit their root's ``op_id``."""
        ops = list(self.ops[: self.n])
        with open(path, "w") as out:
            for i in range(self.n):
                parent = self.parents[i]
                if parent >= 0:
                    ops[i] = ops[parent]  # parents precede children
                out.write(
                    json.dumps(
                        {
                            "name": self.names[self.name_ids[i]],
                            "layer": self.layers[self.name_ids[i]],
                            "start_ns": self.starts[i],
                            "end_ns": self.ends[i],
                            "parent": parent,
                            "op_id": ops[i],
                        }
                    )
                    + "\n"
                )


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    target = importlib.import_module(module_name)
    return getattr(target, class_name) if class_name else target


class Probe:
    """The installed wrappers; ``uninstall`` restores the originals."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        #: ``owner.attribute`` of every boundary that did not resolve.
        self.missing: list[str] = []
        #: Layers with at least one boundary wrapped.
        self.installed_layers: set[str] = set()
        #: True when the ``COUNTED`` function was found and wrapped.
        self.counting = False
        self._patched: list[tuple[object, str, object]] = []

    def _patch(self, owner: str, attribute: str, wrap) -> bool:
        try:
            target = _resolve(owner)
            original = getattr(target, attribute)
        except (ImportError, AttributeError):
            self.missing.append(f"{owner}.{attribute}")
            return False
        setattr(target, attribute, wrap(original))
        self._patched.append((target, attribute, original))
        return True

    def uninstall(self) -> None:
        for target, attribute, original in reversed(self._patched):
            setattr(target, attribute, original)
        self._patched.clear()


def install(recorder: Recorder, boundaries=BOUNDARIES, counted=COUNTED) -> Probe:
    """Wrap every boundary that resolves; report the rest as missing."""
    probe = Probe(recorder)
    for layer, owner, attribute in boundaries:
        name = f"{owner.rpartition('.')[2].replace(':', '.')}.{attribute}"
        if probe._patch(
            owner, attribute, lambda fn, name=name, layer=layer: recorder.wrap(fn, name, layer)
        ):
            probe.installed_layers.add(layer)
    probe.counting = probe._patch(*counted, recorder.count)
    return probe
