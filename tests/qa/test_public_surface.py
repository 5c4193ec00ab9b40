"""Static check: ``src/repro`` keeps no public name that nothing runs.

Every public function, class and method defined under ``src/repro`` must be
referenced from ``src/``, ``benchmarks/`` or ``examples/`` —
outside its own ``def``/``class`` line, import statements, ``__all__`` lists
and docstrings — or be named in :data:`ALLOWED` with the reason it stays.
Tests are deliberately not a reference: a helper only its own unit tests
call is exactly what this test exists to keep out.

The check is by *name* (AST identifiers, attribute names, and the dotted
paths of the wall benchmark's probe table), so it cannot tell two methods of
the same name apart; it holds the line, it does not prove reachability (the
reachability audit in EXPERIMENTS.md does that, by tracing real traffic).
"""

import ast
import re
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "repro"
TRAFFIC = ("src", "benchmarks", "examples")

#: Public names nothing outside ``tests/`` references, and why each stays.
ALLOWED = {
    "advance": "SimClock.advance: how tests (and E-series set-ups) move simulated time by hand",
    "case_from_relations": "test seam: lets property suites hand the differential runner a case built from their own relations",
    "close_session": "BraidServer's session teardown (admission slots returned): API no workload exercises yet",
    "generator_from_rows": "test seam: a GeneratorRelation over a fixed row list",
    "parse_query_pattern": "text front end of cms.query_pattern (ROADMAP item 5 builds on it)",
    "predicted_next": "PathTracker's position is otherwise unobservable: tests/advice and tests/ie assert on it",
    "psj_of": "test seam: CAQL text -> PSJ in one call, used by a dozen test modules",
    "reset_predicate_cache": "test seam: planted-bug tests must drop code generated before the mutant",
    "served_from_cache": "PlanExplanation accessor (cms.explain, ROADMAP item 7)",
    "validate": "KnowledgeBase.validate: the undefined-predicate check tests/workloads runs over every shipped knowledge base",
}

_DOTTED = re.compile(r"[A-Za-z_][\w.:]*")


@cache
def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text())


def _public_definitions() -> dict[str, list[str]]:
    found: dict[str, list[str]] = {}

    def walk(node, path, owner):
        for child in node.body:
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if not child.name.startswith("_"):
                where = f"{path.relative_to(ROOT)}:{child.lineno} {owner}{child.name}"
                found.setdefault(child.name, []).append(where)
            if isinstance(child, ast.ClassDef):
                walk(child, path, f"{owner}{child.name}.")

    for path in sorted(PACKAGE.rglob("*.py")):
        walk(_tree(path), path, "")
    return found


def _references() -> set[str]:
    names: set[str] = set()
    for top in TRAFFIC:
        for path in sorted((ROOT / top).rglob("*.py")):
            nodes = list(ast.walk(_tree(path)))
            skipped: set[int] = set()
            aliases: dict[str, str] = {}
            for node in nodes:
                if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
                ):
                    skipped.update(id(n) for n in ast.walk(node))
                elif isinstance(
                    node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    first = node.body[0] if node.body else None
                    if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                        skipped.add(id(first.value))  # a docstring mentions, it does not use
                elif isinstance(node, ast.ImportFrom):
                    aliases.update(
                        {a.asname: a.name for a in node.names if a.asname is not None}
                    )
            for node in nodes:
                if id(node) in skipped:
                    continue
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    # Names handed over as strings: getattr(...), and the probe
                    # table's "package.module:Class" / "attribute" entries.
                    if _DOTTED.fullmatch(node.value):
                        names.update(re.split(r"[.:]", node.value))
            names.update(original for alias, original in aliases.items() if alias in names)
    return names


def test_every_public_name_is_referenced_or_allow_listed():
    definitions = _public_definitions()
    unreferenced = set(definitions) - _references()
    unexplained = sorted(unreferenced - set(ALLOWED))
    assert not unexplained, "public names nothing but tests references:\n" + "\n".join(
        f"  {name}: {', '.join(definitions[name])}" for name in unexplained
    )
    stale = sorted(set(ALLOWED) - unreferenced)
    assert not stale, f"allow-listed but referenced (or gone): {stale}"
    assert len(ALLOWED) <= 20


#: The settable surfaces: every defaulted field of these configuration
#: dataclasses, and every defaulted parameter of these constructors and
#: builders, by module.  ``__init__`` names a class's constructor.
SETTABLE_SURFACES = {
    "braid.py": ("BraidConfig",),
    "server/braid_server.py": (
        "ServerConfig",
        "BraidServer.__init__",
        "BraidServer.open_session",
        "BraidServer.run_until_idle",
    ),
    "server/admission.py": ("AdmissionController.__init__",),
    "core/cms.py": ("CMSFeatures", "CacheManagementSystem.__init__"),
    "remote/faults.py": ("RetryPolicy", "FaultPolicy"),
    "federation/bootstrap.py": (
        "BackendSpec",
        "Federation.cms",
        "Federation.naive",
        "build_federation",
    ),
    "federation/interface.py": ("FederatedInterface.__init__",),
    "baselines/base.py": ("BaselineInterface.__init__",),
    "baselines/exact_cache.py": ("ExactMatchCache.__init__",),
    "baselines/relation_cache.py": ("SingleRelationBuffer.__init__",),
    "ie/engine.py": ("InferenceEngine.__init__",),
    "ie/controller.py": ("DepthFirstController.__init__",),
    "ie/explain.py": ("Explainer.__init__",),
    "qa/generator.py": ("CaseConfig",),
}

#: Settable values no call site outside ``tests/`` passes by name, and why
#: each stays instead of becoming the constant its default already is.
SETTABLE_ALLOWED = {
    "RetryPolicy.timeout_seconds": "the only way a test reaches the RDI's timeout path",
    "FaultPolicy.metadata_faults": "the only way a test reaches the RDI's metadata-fault path",
    "RetryPolicy.breaker_cooldown": "resilience tests isolate the breaker's half-open transition with it",
    "RetryPolicy.breaker_probe_after": "resilience tests isolate the breaker's probe-after transition with it",
    "BackendSpec.retry": "resilience tests fail one backend fast beside healthy ones",
    "BraidConfig.generate_advice": "False is the advice-invariance oracle: the CMS must work without advice (§5)",
    "InferenceEngine.use_statistics": "False is the oracle of the statistics-fallback test",
    "BraidServer.open_session.advice": "per-session advice, the server's reason to keep one advice context per session",
    "BraidServer.open_session.weight": "the weights that define weighted-fair scheduling, which E15 runs",
}


def _defaulted(node: ast.ClassDef | ast.FunctionDef) -> list[str]:
    """The defaulted init fields of a dataclass, or the defaulted
    parameters of a function."""
    if isinstance(node, ast.ClassDef):
        names = []
        for item in node.body:
            if not (isinstance(item, ast.AnnAssign) and item.value is not None):
                continue
            value = item.value
            if isinstance(value, ast.Call) and any(
                k.arg == "init" and isinstance(k.value, ast.Constant) and k.value.value is False
                for k in value.keywords
            ):
                continue
            names.append(item.target.id)
        return names
    args = node.args
    positional = args.posonlyargs + args.args
    names = [a.arg for a in positional[len(positional) - len(args.defaults):]]
    names += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return names


def _fields(node: ast.ClassDef, classes: dict[str, ast.ClassDef]) -> list[str]:
    """A dataclass's defaulted init fields, inherited ones first."""
    inherited = [
        name
        for base in node.bases
        if isinstance(base, ast.Name) and base.id in classes
        for name in _fields(classes[base.id], classes)
    ]
    return inherited + _defaulted(node)


def _settable_values() -> dict[str, tuple[str, str]]:
    """``"Owner.param"`` (``"Class.method.param"`` for a method) → the
    callee name a call site uses and the parameter name."""
    every_class = {
        node.name: node
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in _tree(path).body
        if isinstance(node, ast.ClassDef)
    }
    found: dict[str, tuple[str, str]] = {}
    for module, owners in SETTABLE_SURFACES.items():
        tree = _tree(PACKAGE / module)
        classes = {n.name: n for n in tree.body if isinstance(n, ast.ClassDef)}
        functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
        for owner in owners:
            cls_name, _, method = owner.partition(".")
            if cls_name in functions:
                node, callee, prefix = functions[cls_name], cls_name, cls_name
            elif not method:
                node, callee, prefix = classes[cls_name], cls_name, cls_name
            else:
                node = next(
                    n for n in classes[cls_name].body
                    if isinstance(n, ast.FunctionDef) and n.name == method
                )
                callee = cls_name if method == "__init__" else method
                prefix = cls_name if method == "__init__" else owner
            params = (
                _fields(node, every_class)
                if isinstance(node, ast.ClassDef)
                else _defaulted(node)
            )
            for param in params:
                found[f"{prefix}.{param}"] = (callee, param)
    return found


def _passed_by_name() -> dict[str, set[str]]:
    """Callee name → the keyword names its call sites outside ``tests/``
    pass.  ``cls(...)`` inside a class counts as a call of that class; a
    ``**`` splat counts every string key of a dict literal in its module."""
    passed: dict[str, set[str]] = {}
    for top in TRAFFIC:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = _tree(path)
            dict_keys = {
                key.value
                for node in ast.walk(tree)
                if isinstance(node, ast.Dict)
                for key in node.keys
                if isinstance(key, ast.Constant) and isinstance(key.value, str)
            }
            # Outer classes are walked first, so a nested class's ``cls``
            # maps to the innermost class.
            class_of_cls = {
                id(node): owner.name
                for owner in ast.walk(tree)
                if isinstance(owner, ast.ClassDef)
                for node in ast.walk(owner)
                if isinstance(node, ast.Name) and node.id == "cls"
            }
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if isinstance(func, ast.Name):
                    name = class_of_cls.get(id(func), func.id)
                else:
                    name = getattr(func, "attr", None)
                names = passed.setdefault(name, set())
                for keyword in node.keywords:
                    names.update([keyword.arg] if keyword.arg else dict_keys)
    return passed


def test_every_settable_value_is_passed_by_name_or_allow_listed():
    values = _settable_values()
    passed = _passed_by_name()
    unpassed = {
        key for key, (callee, param) in values.items() if param not in passed.get(callee, ())
    }
    unexplained = sorted(unpassed - set(SETTABLE_ALLOWED))
    assert not unexplained, (
        "settable values no call site outside tests/ passes by name "
        "(make each the constant its default is, or allow-list it):\n  "
        + "\n  ".join(unexplained)
    )
    stale = sorted(set(SETTABLE_ALLOWED) - unpassed)
    assert not stale, f"allow-listed but passed by name (or gone): {stale}"


def test_the_executor_has_one_route_for_a_plans_remote_part():
    source = (PACKAGE / "core" / "executor.py").read_text()
    assert source.count("self.rdi.fetch(") == 1
    assert "fetch_many" not in source


def test_the_executor_reads_and_registers_through_one_route_each():
    source = (PACKAGE / "core" / "executor.py").read_text()
    # Cache-full derivation, and every cache part (healthy or degraded):
    # each read is one ``Cache.read``.  An exact hit is the CMS's one
    # read, with no executor pass.
    assert source.count("self.cache.read(") == 2
    assert "self.cache.touch(" not in source
    cms = (PACKAGE / "core" / "cms.py").read_text()
    assert cms.count("self.cache.read(") == 1
    assert "self.cache.touch(" not in cms
    # Fetched parts, through the one offer and its one store.  A cache
    # part is a selection over a resident element and is never offered.
    assert source.count("self._offer(") == 1
    assert source.count("self.cache.store(") == 1
    assert "isinstance(source" not in source


def test_a_cache_is_built_only_where_a_cms_or_a_server_owns_one():
    # The stale archive is a FIFO beside the cache, not a second ``Cache``.
    builders = [
        str(path.relative_to(PACKAGE))
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "Cache"
    ]
    assert builders == ["core/cms.py", "server/braid_server.py"]


def _constructs_existence(path: Path) -> bool:
    """True when the module builds an existence row — a ``(True,)`` tuple —
    or an ``_exists_*`` column name (docstrings mention, they do not build)."""
    tree = _tree(path)
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Tuple) and len(node.elts) == 1:
            (only,) = node.elts
            if isinstance(only, ast.Constant) and only.value is True:
                return True
        if (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and "_exists_" in node.value
            and id(node) not in docstrings
        ):
            return True
    return False


def test_one_module_constructs_existence_rows_and_columns():
    # The oracle keeps its own copy on purpose; the compiled IE strategy's
    # boolean answer is not a relational existence check.
    exempt = {PACKAGE / "caql" / "eval.py", PACKAGE / "ie" / "strategies.py"}
    builders = [
        str(path.relative_to(PACKAGE))
        for path in sorted(PACKAGE.rglob("*.py"))
        if path not in exempt and _constructs_existence(path)
    ]
    assert builders == ["relational/operators.py"]


def test_result_type_is_asked_only_where_laziness_is_the_question():
    askers = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.parent.name == "relational":
            continue
        count = sum(
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and any(
                isinstance(n, ast.Name) and n.id == "GeneratorRelation"
                for n in ast.walk(node.args[1])
            )
            for node in ast.walk(_tree(path))
        )
        if count:
            askers[str(path.relative_to(PACKAGE))] = count
    # ResultStream.lazy and CacheElement.is_generator.
    assert askers == {"core/cache.py": 1, "core/executor.py": 1}
