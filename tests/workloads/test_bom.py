"""Tests for the bill-of-materials workload."""

import pytest

from repro.braid import BraidConfig, BraidSystem
from repro.workloads.bom import bom
from tests.workloads import table


@pytest.fixture(scope="module")
def workload():
    return bom(depth=4, fanout=3, basic_parts=30, seed=19)


class TestGeneration:
    def test_deterministic(self, workload):
        again = bom(depth=4, fanout=3, basic_parts=30, seed=19)
        assert table(workload, "assembly").rows == table(again, "assembly").rows

    def test_components_reference_known_things(self, workload):
        assemblies = table(workload, "assembly").distinct_values("asm")
        parts = table(workload, "basic_part").distinct_values("p_id")
        for _asm, component, _qty in table(workload, "assembly"):
            assert component in assemblies or component in parts

    def test_tree_is_acyclic(self, workload):
        children = {}
        for asm, component, _qty in table(workload, "assembly"):
            children.setdefault(asm, set()).add(component)

        def walk(node, path):
            assert node not in path, "cycle in assembly tree"
            for child in children.get(node, ()):
                walk(child, path | {node})

        walk("asm0", set())

    def test_kb_builds_cleanly(self, workload):
        kb = workload.build_kb()
        assert kb.validate() == []
        assert kb.soas.recursive_for("contains_deep") is not None


class TestQueries:
    def ground_truth_deep(self, workload, root="asm0"):
        children = {}
        for asm, component, _qty in table(workload, "assembly"):
            children.setdefault(asm, set()).add(component)
        seen: set[str] = set()
        frontier = [root]
        while frontier:
            node = frontier.pop()
            for child in children.get(node, ()):
                if child not in seen:
                    seen.add(child)
                    frontier.append(child)
        return seen

    @pytest.mark.parametrize("strategy", ["conjunction", "compiled"])
    def test_part_explosion_matches_ground_truth(self, workload, strategy):
        system = BraidSystem.from_workload(workload, BraidConfig(strategy=strategy))
        solutions = system.ask_all("contains_deep(asm0, P)")
        assert {s["P"] for s in solutions} == self.ground_truth_deep(workload)

    def test_compiled_is_set_at_a_time(self, workload):
        system = BraidSystem.from_workload(workload, BraidConfig(strategy="compiled"))
        solutions = system.ask_all("contains_deep(asm0, P)")
        assert len(solutions) == len({str(s) for s in solutions})

    def test_interpretive_may_repeat_derivations(self, workload):
        system = BraidSystem.from_workload(workload, BraidConfig(strategy="conjunction"))
        solutions = system.ask_all("contains_deep(asm0, P)")
        # At least as many derivations as distinct answers (Prolog
        # semantics); strictly more in this diamond-shaped tree.
        assert len(solutions) >= len({str(s) for s in solutions})

    def test_expensive_components_subset_of_deep(self, workload):
        system = BraidSystem.from_workload(workload)
        deep = {s["P"] for s in system.ask_all("contains_deep(asm0, P)")}
        expensive = {s["P"] for s in system.ask_all("expensive_component(asm0, P)")}
        assert expensive <= deep

    def test_top_assembly_is_the_root(self, workload):
        system = BraidSystem.from_workload(workload)
        tops = system.ask_all("top_assembly(A)")
        assert {s["A"] for s in tops} == {"asm0"}

    def test_explanation_of_part_containment(self, workload):
        system = BraidSystem.from_workload(workload)
        (solution, *_rest) = system.ask_all("uses_basic(asm0, P)")
        proof = system.explain("uses_basic(asm0, P)", solution)
        assert proof is not None
        assert any(str(f).startswith("assembly(") for f in proof.facts_used())
