"""Experimental scenarios of Section 6 of the paper.

A :class:`Scenario` bundles everything needed to reproduce one point of one
figure: the workflow family and size, the platform (failure rate, downtime,
processor count), how checkpoint / recovery costs are assigned, which
heuristics compete, and the random seed.

The paper's settings (Section 6.1):

* four workflow families — Montage, Ligo, CyberShake, Genome;
* 50 to 700 tasks;
* ``c_i = r_i`` always, downtime ``D = 0``;
* main experiments: ``c_i = 0.1 w_i`` with platform MTBF :math:`10^3` s
  (:math:`\\lambda = 10^{-3}`), except Genome which uses MTBF :math:`10^4` s
  (:math:`\\lambda = 10^{-4}`) because its tasks are an order of magnitude
  longer;
* additional experiments: ``c_i = 0.01 w_i``, constant ``c_i = 5`` s or 10 s,
  and a sweep over :math:`\\lambda` at fixed size (200 tasks).

Beyond the paper's ``D = 0``, single-processor setting, the platform is a
first-class grid dimension here: every scenario carries a
:class:`~repro.core.platform.PlatformSpec` (downtime and processor count are
grid axes alongside family and size — see :func:`scenario_grid`), and
:func:`lambda_downtime_grid` provides the :math:`\\lambda \\times D` sweep
preset.  Large platform grids can be partitioned deterministically across
machines with :func:`shard_scenarios` and re-assembled with
``repro campaign merge``.

Two preset grids are exposed per figure: ``paper`` (the full sizes of the
paper) and ``smoke`` (small sizes that run in seconds, used by the test-suite
and the default benchmark configuration).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from ..core.dag import Workflow
from ..core.platform import Platform, PlatformSpec
from ..heuristics.registry import HEURISTIC_NAMES
from ..workflows import pegasus

__all__ = [
    "Scenario",
    "PAPER_TASK_COUNTS",
    "SMOKE_TASK_COUNTS",
    "DEFAULT_FAILURE_RATES",
    "LAMBDA_DOWNTIME_RATES",
    "LAMBDA_DOWNTIME_DOWNTIMES",
    "build_workflow",
    "scenario_grid",
    "lambda_downtime_grid",
    "parse_shard",
    "shard_scenarios",
]

#: Task counts used by the paper's figures (x-axis of Figures 2-6).
PAPER_TASK_COUNTS: tuple[int, ...] = (50, 100, 200, 300, 400, 500, 600, 700)

#: Reduced task counts for fast smoke runs / CI.
SMOKE_TASK_COUNTS: tuple[int, ...] = (30, 60)

#: Failure rate per family for the main experiments (Section 6.1).
DEFAULT_FAILURE_RATES: dict[str, float] = {
    "montage": 1e-3,
    "cybershake": 1e-3,
    "ligo": 1e-3,
    "genome": 1e-4,
}

#: Failure rates of the :math:`\lambda \times D` sweep preset.
LAMBDA_DOWNTIME_RATES: tuple[float, ...] = (1e-4, 5e-4, 1e-3)

#: Downtimes of the :math:`\lambda \times D` sweep preset (seconds).  The
#: largest value is a third of the paper's main MTBF, so the downtime term
#: of Equation (1) is clearly visible in the resulting ratios.
LAMBDA_DOWNTIME_DOWNTIMES: tuple[float, ...] = (0.0, 60.0, 300.0)


@dataclass(frozen=True)
class Scenario:
    """One experimental configuration (one workflow instance, one platform).

    Attributes
    ----------
    family:
        Workflow family name (``montage`` / ``cybershake`` / ``ligo`` /
        ``genome``).
    n_tasks:
        Requested number of tasks.
    failure_rate:
        Per-processor failure rate :math:`\\lambda_{proc}`.  With the default
        single processor this is exactly the platform rate :math:`\\lambda`
        the paper is parameterised by; with ``processors = p`` the effective
        platform rate is :math:`\\lambda = p \\cdot \\lambda_{proc}`.
    downtime:
        Constant downtime ``D`` (seconds) after each failure (the paper uses
        0; any non-negative value is supported end to end).
    processors:
        Number of processors ``p`` enrolled by the application.
    checkpoint_mode:
        ``"proportional"`` or ``"constant"`` (see
        :meth:`Workflow.with_checkpoint_costs`).
    checkpoint_factor:
        Factor for the proportional mode (0.1 or 0.01 in the paper).
    checkpoint_value:
        Constant checkpoint cost in seconds (5 or 10 in the paper).
    heuristics:
        Names of the heuristics to compare.
    seed:
        Seed for both the workflow generator and the RF linearization.
    label:
        Free-form tag used in reports (e.g. ``"fig3"``).
    """

    family: str
    n_tasks: int
    failure_rate: float
    downtime: float = 0.0
    processors: int = 1
    checkpoint_mode: str = "proportional"
    checkpoint_factor: float = 0.1
    checkpoint_value: float = 0.0
    heuristics: tuple[str, ...] = HEURISTIC_NAMES
    seed: int = 0
    label: str = ""

    def with_updates(self, **kwargs) -> "Scenario":
        """Return a copy with some fields replaced."""
        return replace(self, **kwargs)

    @property
    def platform_spec(self) -> PlatformSpec:
        """Declarative platform description of the scenario."""
        return PlatformSpec(
            failure_rate=self.failure_rate,
            downtime=self.downtime,
            processors=self.processors,
        )

    @property
    def platform(self) -> Platform:
        """Platform of the scenario (rate, downtime and processor count)."""
        return self.platform_spec.build()

    @property
    def checkpoint_parameter(self) -> float:
        """The parameter reported for the active checkpoint mode."""
        if self.checkpoint_mode == "proportional":
            return self.checkpoint_factor
        return self.checkpoint_value

    def describe(self) -> str:
        """One-line description used in reports.

        Downtime and processor count appear as soon as they leave the
        paper's defaults (``D = 0``, ``p = 1``), so distinct grid points of
        a platform sweep never render identical labels.
        """
        if self.checkpoint_mode == "proportional":
            ckpt = f"c={self.checkpoint_factor:g}*w"
        else:
            ckpt = f"c={self.checkpoint_value:g}s"
        platform = f"lambda={self.failure_rate:g}"
        if self.downtime != 0.0:
            platform += f" D={self.downtime:g}"
        if self.processors != 1:
            platform += f" p={self.processors}"
        return f"{self.family} n={self.n_tasks} {platform} {ckpt} seed={self.seed}"


def build_workflow(scenario: Scenario) -> Workflow:
    """Instantiate the workflow of a scenario (with checkpoint costs assigned)."""
    workflow = pegasus.generate(scenario.family, scenario.n_tasks, seed=scenario.seed)
    return workflow.with_checkpoint_costs(
        mode=scenario.checkpoint_mode,
        factor=scenario.checkpoint_factor,
        value=scenario.checkpoint_value,
        recovery="equal",
    )


def scenario_grid(
    families: Iterable[str],
    task_counts: Sequence[int],
    *,
    failure_rates: dict[str, float] | None = None,
    downtimes: Sequence[float] = (0.0,),
    processors: Sequence[int] = (1,),
    checkpoint_mode: str = "proportional",
    checkpoint_factor: float = 0.1,
    checkpoint_value: float = 0.0,
    heuristics: Sequence[str] = HEURISTIC_NAMES,
    seed: int = 0,
    label: str = "",
) -> list[Scenario]:
    """Cartesian product of families, task counts and platform axes.

    The grid is ordered ``family -> n_tasks -> downtime -> processors`` and
    that order is deterministic: it is the contract that makes sharding
    (see :func:`shard_scenarios`) reproducible across machines — every
    shard of the same grid parameters partitions the same list in the same
    order.
    """
    rates = dict(DEFAULT_FAILURE_RATES)
    if failure_rates:
        rates.update(failure_rates)
    points = []
    for family in families:
        family_key = family.strip().lower()
        if family_key not in rates:
            raise ValueError(f"no default failure rate known for family {family!r}")
        for n in task_counts:
            points.append((family_key, int(n), rates[family_key]))
    return _expand_platform_axes(
        points,
        downtimes=downtimes,
        processors=processors,
        checkpoint_mode=checkpoint_mode,
        checkpoint_factor=checkpoint_factor,
        checkpoint_value=checkpoint_value,
        heuristics=heuristics,
        seed=seed,
        label=label,
    )


def lambda_downtime_grid(
    families: Iterable[str] = ("montage",),
    *,
    n_tasks: int = 200,
    rates: Sequence[float] = LAMBDA_DOWNTIME_RATES,
    downtimes: Sequence[float] = LAMBDA_DOWNTIME_DOWNTIMES,
    processors: Sequence[int] = (1,),
    checkpoint_mode: str = "proportional",
    checkpoint_factor: float = 0.1,
    checkpoint_value: float = 0.0,
    heuristics: Sequence[str] = HEURISTIC_NAMES,
    seed: int = 0,
    label: str = "lambda-x-downtime",
) -> list[Scenario]:
    """The :math:`\\lambda \\times D` sweep preset at a fixed workflow size.

    One scenario per (family, failure rate, downtime, processor count) —
    the platform analogue of Figure 7's :math:`\\lambda` sweep, extended
    with the downtime axis the paper holds at zero.  Deterministic order:
    ``family -> rate -> downtime -> processors`` (shardable like
    :func:`scenario_grid`).
    """
    rates = tuple(float(r) for r in rates)
    if not rates:
        raise ValueError("at least one failure rate is required")
    points = []
    for family in families:
        family_key = family.strip().lower()
        if family_key not in DEFAULT_FAILURE_RATES:
            raise ValueError(f"unknown workflow family {family!r}")
        for rate in rates:
            points.append((family_key, int(n_tasks), rate))
    return _expand_platform_axes(
        points,
        downtimes=downtimes,
        processors=processors,
        checkpoint_mode=checkpoint_mode,
        checkpoint_factor=checkpoint_factor,
        checkpoint_value=checkpoint_value,
        heuristics=heuristics,
        seed=seed,
        label=label,
    )


def _expand_platform_axes(
    points: Sequence[tuple[str, int, float]],
    *,
    downtimes: Sequence[float],
    processors: Sequence[int],
    checkpoint_mode: str,
    checkpoint_factor: float,
    checkpoint_value: float,
    heuristics: Sequence[str],
    seed: int,
    label: str,
) -> list[Scenario]:
    """Cross ``(family, n_tasks, rate)`` points with the platform axes.

    The single grid expansion behind :func:`scenario_grid` and
    :func:`lambda_downtime_grid`: one deterministic nesting order
    (``point -> downtime -> processors``), so the sharding contract can
    never diverge between the two builders.
    """
    downtimes = tuple(float(d) for d in downtimes)
    processors = tuple(int(p) for p in processors)
    if not downtimes:
        raise ValueError("at least one downtime is required")
    if not processors:
        raise ValueError("at least one processor count is required")
    return [
        Scenario(
            family=family,
            n_tasks=n_tasks,
            failure_rate=rate,
            downtime=downtime,
            processors=procs,
            checkpoint_mode=checkpoint_mode,
            checkpoint_factor=checkpoint_factor,
            checkpoint_value=checkpoint_value,
            heuristics=tuple(heuristics),
            seed=seed,
            label=label,
        )
        for family, n_tasks, rate in points
        for downtime in downtimes
        for procs in processors
    ]


def parse_shard(text: str) -> tuple[int, int]:
    """Parse a ``"k/N"`` shard designator (1-based, e.g. ``"1/2"``)."""
    parts = text.strip().split("/")
    if len(parts) != 2:
        raise ValueError(f"shard must look like 'k/N' (e.g. '1/2'), got {text!r}")
    try:
        index, count = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(
            f"shard must look like 'k/N' (e.g. '1/2'), got {text!r}"
        ) from None
    _check_shard(index, count)
    return index, count


def _check_shard(index: int, count: int) -> None:
    if count < 1:
        raise ValueError(f"shard count must be >= 1, got {count}")
    if not 1 <= index <= count:
        raise ValueError(f"shard index must be in 1..{count}, got {index}")


def shard_scenarios(
    scenarios: Sequence[Scenario], index: int, count: int
) -> list[Scenario]:
    """Deterministic shard ``index`` (1-based) of ``count`` of a scenario list.

    Round-robin over the grid's deterministic order, so the shards are
    balanced (sizes differ by at most one scenario), disjoint, and their
    union — in any order — is exactly the original grid.  Seeds are expanded
    *inside* each scenario by the campaign runner, so every (scenario x
    seed x heuristic) group of the unsharded run lives in exactly one shard
    with its member order intact; merged aggregates are therefore
    bit-for-bit those of the unsharded run.
    """
    _check_shard(index, count)
    return list(scenarios[index - 1 :: count])
