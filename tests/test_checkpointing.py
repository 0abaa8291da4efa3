"""Tests for the checkpoint-selection strategies."""

from __future__ import annotations

import pytest

from repro.heuristics import (
    CHECKPOINT_STRATEGIES,
    checkpoint_always,
    checkpoint_by_cost,
    checkpoint_by_descendant_weight,
    checkpoint_by_weight,
    checkpoint_never,
    checkpoint_periodic,
    get_selector,
    linearize,
)
from repro.workflows import generators


@pytest.fixture
def wf():
    # Weights 10, 20, 30, 40, 50 on a chain; proportional checkpoint costs.
    return generators.chain_workflow(5, weights=[10, 20, 30, 40, 50]).with_checkpoint_costs(
        mode="proportional", factor=0.1
    )


@pytest.fixture
def order(wf):
    return linearize(wf, "DF")


class TestBaselines:
    def test_never(self, wf, order):
        assert checkpoint_never(wf, order, 3) == frozenset()

    def test_always(self, wf, order):
        assert checkpoint_always(wf, order, 0) == frozenset(range(5))


class TestRankedSelectors:
    def test_by_weight_picks_heaviest(self, wf, order):
        assert checkpoint_by_weight(wf, order, 2) == frozenset({3, 4})
        assert checkpoint_by_weight(wf, order, 5) == frozenset(range(5))

    def test_by_cost_picks_cheapest(self, wf, order):
        # Checkpoint costs are proportional to weights, so cheapest = lightest.
        assert checkpoint_by_cost(wf, order, 2) == frozenset({0, 1})

    def test_by_descendant_weight(self, order):
        wf = generators.fork_workflow(3, source_weight=1.0, sink_weights=[10, 20, 30]).with_checkpoint_costs(
            mode="constant", value=1.0
        )
        sel = checkpoint_by_descendant_weight(wf, wf.topological_order(), 1)
        assert sel == frozenset({0})  # the source has the heaviest successors

    def test_count_larger_than_n_is_clamped(self, wf, order):
        assert checkpoint_by_weight(wf, order, 99) == frozenset(range(5))

    def test_zero_count_empty(self, wf, order):
        for selector in (checkpoint_by_weight, checkpoint_by_cost, checkpoint_by_descendant_weight):
            assert selector(wf, order, 0) == frozenset()

    def test_negative_count_rejected(self, wf, order):
        with pytest.raises(ValueError):
            checkpoint_by_weight(wf, order, -1)

    def test_non_int_count_rejected(self, wf, order):
        with pytest.raises(TypeError):
            checkpoint_by_weight(wf, order, 2.5)  # type: ignore[arg-type]

    def test_ties_broken_deterministically(self):
        wf = generators.chain_workflow(4, weights=[10, 10, 10, 10]).with_checkpoint_costs(
            mode="constant", value=1.0
        )
        assert checkpoint_by_weight(wf, range(4), 2) == frozenset({0, 1})


class TestPeriodic:
    def test_boundaries_follow_the_linearization(self, wf, order):
        # Total weight 150; with count=3 the boundaries are at 50 and 100.
        # Completion times along the chain: 10, 30, 60, 100, 150.
        selected = checkpoint_periodic(wf, order, 3)
        assert selected == frozenset({2, 3})

    def test_produces_at_most_count_minus_one(self, wf, order):
        for count in range(2, 6):
            assert len(checkpoint_periodic(wf, order, count)) <= count - 1

    def test_count_one_or_zero_gives_nothing(self, wf, order):
        assert checkpoint_periodic(wf, order, 0) == frozenset()
        assert checkpoint_periodic(wf, order, 1) == frozenset()

    def test_single_long_task_absorbs_several_boundaries(self):
        wf = generators.chain_workflow(3, weights=[1.0, 100.0, 1.0]).with_checkpoint_costs(
            mode="constant", value=1.0
        )
        selected = checkpoint_periodic(wf, range(3), 6)
        # Every interior boundary falls inside task 1; it is selected only once.
        assert selected == frozenset({1})

    def test_depends_on_the_linearization(self):
        wf = generators.diamond_workflow(weights=[10, 20, 30, 40]).with_checkpoint_costs(
            mode="constant", value=1.0
        )
        # Total work 100, one boundary at 50.  Executing T1 before T2 puts the
        # boundary inside T2; executing T2 first puts it inside T1.
        assert checkpoint_periodic(wf, (0, 1, 2, 3), 2) == frozenset({2})
        assert checkpoint_periodic(wf, (0, 2, 1, 3), 2) == frozenset({1})

    def test_invalid_order_rejected(self, wf):
        with pytest.raises(ValueError):
            checkpoint_periodic(wf, (0, 1, 2), 2)

    def test_ignores_dag_structure_by_design(self):
        """The paper's criticism: CkptPer may checkpoint a source instead of the
        heavy task that precedes it in the linearization."""
        wf = generators.paper_example_workflow().with_checkpoint_costs(
            mode="proportional", factor=0.1
        )
        order = (0, 3, 1, 2, 4, 5, 6, 7)
        selected = checkpoint_periodic(wf, order, 4)
        assert selected  # it checkpoints *something* purely based on elapsed work


class TestRegistry:
    @pytest.mark.parametrize("name", CHECKPOINT_STRATEGIES)
    def test_get_selector_known(self, name, wf, order):
        selector = get_selector(name)
        result = selector(wf, order, 2)
        assert isinstance(result, frozenset)
        assert all(0 <= i < wf.n_tasks for i in result)

    def test_get_selector_unknown(self):
        with pytest.raises(ValueError):
            get_selector("CkptMagic")


# ----------------------------------------------------------------------
# The ranked selectors against a frozen copy of their first implementation
# ----------------------------------------------------------------------
def _frozen_by_weight(workflow, order, count):
    ranked = sorted(range(workflow.n_tasks), key=lambda i: (-workflow.task(i).weight, i))
    return frozenset(ranked[:count])


def _frozen_by_cost(workflow, order, count):
    ranked = sorted(
        range(workflow.n_tasks), key=lambda i: (workflow.task(i).checkpoint_cost, i)
    )
    return frozenset(ranked[:count])


def _frozen_by_descendant_weight(workflow, order, count):
    # The outweight as Workflow.outweight first summed it, per task and call.
    def outweight(i):
        return sum(workflow.task(s).weight for s in workflow.successors(i))

    ranked = sorted(range(workflow.n_tasks), key=lambda i: (-outweight(i), i))
    return frozenset(ranked[:count])


def _frozen_periodic(workflow, order, count):
    order = tuple(order)
    if count <= 1 or workflow.n_tasks == 0:
        return frozenset()
    total = workflow.total_weight
    if total == 0.0:
        return frozenset()
    period = total / count
    completion = []
    clock = 0.0
    for task_index in order:
        clock += workflow.task(task_index).weight
        completion.append(clock)
    selected: set[int] = set()
    boundary_index = 1
    for position, finish in enumerate(completion):
        if boundary_index >= count:
            break
        if finish >= boundary_index * period - 1e-12:
            selected.add(order[position])
            while boundary_index < count and finish >= boundary_index * period - 1e-12:
                boundary_index += 1
    return frozenset(selected)


#: (selector, frozen reference, whether the selection reads the order).
_FROZEN_PAIRS = [
    (checkpoint_by_weight, _frozen_by_weight, False),
    (checkpoint_by_cost, _frozen_by_cost, False),
    (checkpoint_by_descendant_weight, _frozen_by_descendant_weight, False),
    (checkpoint_periodic, _frozen_periodic, True),
]


def _tied_workflow():
    """Weights, checkpoint costs and outweights with many exact ties."""
    from repro import Task, Workflow

    weights = [2.0, 4.0, 2.0, 4.0, 0.0, 2.0, 4.0, 2.0, 4.0, 2.0, 4.0, 2.0]
    tasks = [Task(index=i, weight=w) for i, w in enumerate(weights)]
    # Tasks 0-3 each feed two successors of total weight 6; 4-7 feed one of
    # weight 4 or two of weight 2; 8-11 are sinks (outweight 0).
    edges = [
        (0, 4), (0, 5), (1, 4), (1, 5), (2, 5), (2, 6), (3, 4), (3, 6),
        (4, 8), (5, 9), (5, 11), (6, 10), (7, 9), (7, 11),
    ]
    return Workflow(tasks, edges).with_checkpoint_costs(mode="constant", value=1.0)


def _assert_selectors_match(workflow, linearizations):
    n = workflow.n_tasks
    for selector, frozen, reads_order in _FROZEN_PAIRS:
        for order in linearizations if reads_order else linearizations[:1]:
            for count in range(n + 1):
                assert selector(workflow, order, count) == frozen(workflow, order, count), (
                    selector.__name__,
                    count,
                )


class TestSelectorsMatchFrozenReference:
    """Every N of every ranked selector returns the set the first
    implementation (bounds-checked accessors, tuple keys) returned."""

    @pytest.mark.parametrize("family", ["montage", "cybershake", "ligo", "genome"])
    @pytest.mark.parametrize("n_tasks", [10, 60, 300])
    def test_pegasus_families(self, family, n_tasks):
        from repro.workflows import pegasus

        workflow = pegasus.generate(family, n_tasks, seed=n_tasks).with_checkpoint_costs(
            mode="proportional", factor=0.1
        )
        linearizations = [
            linearize(workflow, "DF"),
            linearize(workflow, "BF"),
            linearize(workflow, "RF", rng=n_tasks),
        ]
        _assert_selectors_match(workflow, linearizations)

    def test_tied_weights_costs_and_outweights(self):
        workflow = _tied_workflow()
        linearizations = [
            linearize(workflow, "DF"),
            linearize(workflow, "BF"),
            linearize(workflow, "RF", rng=3),
        ]
        _assert_selectors_match(workflow, linearizations)
        # The ties are real: equal keys, so only the index order decides.
        assert len({workflow.outweight(i) for i in range(12)}) < 12
        assert checkpoint_by_cost(workflow, linearizations[0], 3) == frozenset({0, 1, 2})
