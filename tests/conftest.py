"""Shared fixtures for the repro test-suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Platform, Schedule, Task, Workflow
from repro.core.evaluator_native import native_available
from repro.workflows import generators


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic random generator for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def failure_free_platform() -> Platform:
    """A platform that never fails."""
    return Platform.failure_free()


@pytest.fixture
def platform() -> Platform:
    """The paper's default platform: lambda = 1e-3, zero downtime."""
    return Platform.from_platform_rate(1e-3)


@pytest.fixture
def harsh_platform() -> Platform:
    """A platform with frequent failures and a downtime, to stress recovery paths."""
    return Platform.from_platform_rate(5e-2, downtime=2.0)


@pytest.fixture
def diamond() -> Workflow:
    """The 4-task diamond with proportional checkpoint costs."""
    return generators.diamond_workflow(weights=[10.0, 20.0, 5.0, 8.0]).with_checkpoint_costs(
        mode="proportional", factor=0.1
    )


@pytest.fixture
def small_chain() -> Workflow:
    """A 5-task chain with explicit weights and proportional checkpoints."""
    return generators.chain_workflow(5, weights=[4.0, 10.0, 2.0, 7.0, 5.0]).with_checkpoint_costs(
        mode="proportional", factor=0.1
    )


@pytest.fixture
def paper_example() -> Workflow:
    """The Figure-1 example workflow with proportional checkpoint costs."""
    return generators.paper_example_workflow().with_checkpoint_costs(
        mode="proportional", factor=0.1
    )


@pytest.fixture
def paper_example_schedule(paper_example: Workflow) -> Schedule:
    """The Figure-1 schedule: linearization T0 T3 T1 T2 T4 T5 T6 T7, checkpoints {T3, T4}."""
    return Schedule(paper_example, (0, 3, 1, 2, 4, 5, 6, 7), {3, 4})


def make_workflow(weights, edges, *, ckpt_factor: float = 0.1) -> Workflow:
    """Helper used by several test modules to build ad-hoc workflows."""
    tasks = [Task(index=i, weight=float(w)) for i, w in enumerate(weights)]
    wf = Workflow(tasks, edges, name="adhoc")
    return wf.with_checkpoint_costs(mode="proportional", factor=ckpt_factor)


@pytest.fixture
def make_adhoc_workflow():
    """Factory fixture exposing :func:`make_workflow`."""
    return make_workflow


@pytest.fixture(
    params=[
        "python",
        "numpy",
        pytest.param(
            "native",
            marks=pytest.mark.skipif(
                not native_available(), reason="no C toolchain: native backend unavailable"
            ),
        ),
    ]
)
def available_backend(request) -> str:
    """Each evaluation backend in turn (native is skipped without a C toolchain)."""
    return request.param
