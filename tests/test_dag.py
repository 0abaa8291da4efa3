"""Unit tests for :mod:`repro.core.dag`."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import CycleError, Task, Workflow, WorkflowStructure
from repro.workflows import generators

try:
    import networkx as nx
except ImportError:  # networkx is an optional extra
    nx = None


def build(weights, edges, **kwargs):
    tasks = [Task(index=i, weight=float(w)) for i, w in enumerate(weights)]
    return Workflow(tasks, edges, **kwargs)


class TestConstruction:
    def test_basic_counts(self):
        wf = build([1, 2, 3], [(0, 1), (1, 2)])
        assert wf.n_tasks == 3
        assert wf.n_edges == 2
        assert len(wf) == 3

    def test_duplicate_edges_collapsed(self):
        wf = build([1, 2], [(0, 1), (0, 1)])
        assert wf.n_edges == 1

    def test_task_order_must_match_indices(self):
        tasks = [Task(index=1, weight=1.0), Task(index=0, weight=1.0)]
        with pytest.raises(ValueError):
            Workflow(tasks, [])

    def test_edge_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            build([1, 2], [(0, 5)])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            build([1, 2], [(1, 1)])

    def test_cycle_rejected(self):
        with pytest.raises(CycleError):
            build([1, 2, 3], [(0, 1), (1, 2), (2, 0)])

    def test_non_task_rejected(self):
        with pytest.raises(TypeError):
            Workflow(["not a task"], [])  # type: ignore[list-item]

    def test_empty_workflow_allowed(self):
        wf = Workflow([], [])
        assert wf.n_tasks == 0
        assert wf.structure() is WorkflowStructure.EMPTY


class TestAdjacency:
    @pytest.fixture
    def wf(self):
        #      0
        #     / \
        #    1   2
        #     \ / \
        #      3   4
        return build([5, 1, 2, 3, 4], [(0, 1), (0, 2), (1, 3), (2, 3), (2, 4)])

    def test_successors(self, wf):
        assert wf.successors(0) == (1, 2)
        assert wf.successors(2) == (3, 4)
        assert wf.successors(4) == ()

    def test_predecessors(self, wf):
        assert wf.predecessors(3) == (1, 2)
        assert wf.predecessors(0) == ()

    def test_sources_and_sinks(self, wf):
        assert wf.sources == (0,)
        assert wf.sinks == (3, 4)

    def test_degrees(self, wf):
        assert wf.in_degree(3) == 2
        assert wf.out_degree(2) == 2

    def test_has_edge(self, wf):
        assert wf.has_edge(0, 1)
        assert not wf.has_edge(1, 0)
        assert not wf.has_edge(0, 3)

    def test_ancestors(self, wf):
        assert wf.ancestors(3) == frozenset({0, 1, 2})
        assert wf.ancestors(0) == frozenset()

    def test_descendants(self, wf):
        assert wf.descendants(0) == frozenset({1, 2, 3, 4})
        assert wf.descendants(4) == frozenset()

    def test_index_errors(self, wf):
        with pytest.raises(IndexError):
            wf.successors(99)
        with pytest.raises(TypeError):
            wf.predecessors("0")  # type: ignore[arg-type]


class TestTopology:
    def test_topological_order_is_valid(self):
        wf = generators.layered_workflow(4, 3, seed=7)
        order = wf.topological_order()
        assert wf.is_linearization(order)

    def test_is_linearization_rejects_bad_orders(self):
        wf = build([1, 2, 3], [(0, 1), (1, 2)])
        assert wf.is_linearization((0, 1, 2))
        assert not wf.is_linearization((1, 0, 2))
        assert not wf.is_linearization((0, 1))
        assert not wf.is_linearization((0, 1, 1))

    def test_critical_path_chain(self):
        wf = build([1, 2, 3], [(0, 1), (1, 2)])
        assert wf.critical_path_length() == pytest.approx(6.0)

    def test_critical_path_parallel(self):
        wf = build([1, 10, 2, 1], [(0, 1), (0, 2), (1, 3), (2, 3)])
        assert wf.critical_path_length() == pytest.approx(12.0)


class TestWeights:
    def test_total_weight(self):
        wf = build([1.5, 2.5, 6.0], [(0, 1)])
        assert wf.total_weight == pytest.approx(10.0)

    def test_outweight_sums_direct_successors(self):
        wf = build([1, 2, 3, 4], [(0, 1), (0, 2), (1, 3)])
        assert wf.outweight(0) == pytest.approx(2 + 3)
        assert wf.outweight(1) == pytest.approx(4)
        assert wf.outweight(3) == pytest.approx(0)
        assert wf.outweights() == (2 + 3, 4, 0, 0)

    def test_descendant_weight(self):
        wf = build([1, 2, 3, 4], [(0, 1), (1, 2), (1, 3)])
        assert wf.descendant_weight(0) == pytest.approx(2 + 3 + 4)
        assert wf.descendant_weight(2) == pytest.approx(0)


class TestStructureClassification:
    def test_single(self):
        assert generators.single_task_workflow().structure() is WorkflowStructure.SINGLE

    def test_chain(self):
        wf = generators.chain_workflow(5, seed=0)
        assert wf.is_chain()
        assert wf.structure() is WorkflowStructure.CHAIN

    def test_fork(self):
        wf = generators.fork_workflow(4, seed=0)
        assert wf.is_fork()
        assert not wf.is_join()
        assert wf.structure() is WorkflowStructure.FORK

    def test_join(self):
        wf = generators.join_workflow(4, seed=0)
        assert wf.is_join()
        assert not wf.is_fork()
        assert wf.structure() is WorkflowStructure.JOIN

    def test_general(self):
        wf = generators.diamond_workflow(seed=0)
        assert wf.structure() is WorkflowStructure.GENERAL

    def test_two_task_chain_is_chain(self):
        wf = build([1, 2], [(0, 1)])
        assert wf.structure() is WorkflowStructure.CHAIN


class TestDerivation:
    def test_with_checkpoint_costs_proportional(self):
        wf = build([10, 20], [(0, 1)]).with_checkpoint_costs(mode="proportional", factor=0.1)
        assert wf.task(0).checkpoint_cost == pytest.approx(1.0)
        assert wf.task(1).checkpoint_cost == pytest.approx(2.0)
        assert wf.task(1).recovery_cost == pytest.approx(2.0)

    def test_with_checkpoint_costs_constant(self):
        wf = build([10, 20], [(0, 1)]).with_checkpoint_costs(mode="constant", value=5.0)
        assert wf.task(0).checkpoint_cost == pytest.approx(5.0)
        assert wf.task(1).checkpoint_cost == pytest.approx(5.0)

    def test_with_checkpoint_costs_zero_recovery(self):
        wf = build([10], []).with_checkpoint_costs(mode="constant", value=5.0, recovery="zero")
        assert wf.task(0).recovery_cost == 0.0

    def test_with_checkpoint_costs_rejects_unknown_mode(self):
        wf = build([10], [])
        with pytest.raises(ValueError):
            wf.with_checkpoint_costs(mode="weird")
        with pytest.raises(ValueError):
            wf.with_checkpoint_costs(recovery="sometimes")

    def test_original_workflow_untouched(self):
        wf = build([10], [])
        wf.with_checkpoint_costs(mode="constant", value=3.0)
        assert wf.task(0).checkpoint_cost == 0.0

    def test_replace_tasks_length_checked(self):
        wf = build([10, 20], [(0, 1)])
        with pytest.raises(ValueError):
            wf.replace_tasks([Task(index=0, weight=1.0)])

    def test_map_tasks_must_preserve_indices(self):
        wf = build([10, 20], [(0, 1)])
        with pytest.raises(ValueError):
            wf.map_tasks(lambda t: t.with_index(t.index + 1))


@pytest.mark.skipif(nx is None, reason="networkx (the 'networkx' extra) is not installed")
class TestNetworkxInterop:
    def test_round_trip(self):
        wf = generators.layered_workflow(3, 3, seed=11).with_checkpoint_costs(
            mode="proportional", factor=0.1
        )
        graph = wf.to_networkx()
        back = Workflow.from_networkx(graph)
        assert back.n_tasks == wf.n_tasks
        assert back.n_edges == wf.n_edges
        assert back.total_weight == pytest.approx(wf.total_weight)

    def test_from_networkx_rejects_cycles(self):
        graph = nx.DiGraph([(0, 1), (1, 0)])
        with pytest.raises(CycleError):
            Workflow.from_networkx(graph)

    def test_from_networkx_rejects_wrong_type(self):
        with pytest.raises(TypeError):
            Workflow.from_networkx(nx.Graph())

    def test_from_networkx_uses_attributes(self):
        graph = nx.DiGraph()
        graph.add_node("a", weight=4.0, checkpoint_cost=0.4)
        graph.add_node("b", weight=6.0)
        graph.add_edge("a", "b")
        wf = Workflow.from_networkx(graph)
        assert wf.total_weight == pytest.approx(10.0)
        assert wf.n_edges == 1


def test_cli_import_does_not_load_networkx():
    """networkx is an optional extra: only the interop helpers import it."""
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, repro.cli; print('networkx' in sys.modules)",
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        check=True,
    )
    assert proc.stdout.strip() == "False"


class TestEquality:
    def test_equal_workflows(self):
        a = build([1, 2], [(0, 1)])
        b = build([1, 2], [(0, 1)])
        assert a == b
        assert hash(a) == hash(b)

    def test_different_edges_not_equal(self):
        a = build([1, 2], [(0, 1)])
        b = build([1, 2], [])
        assert a != b

    def test_not_equal_to_other_types(self):
        assert build([1], []) != "workflow"
