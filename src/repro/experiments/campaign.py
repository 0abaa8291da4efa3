"""Multi-seed experiment campaigns with aggregation.

The paper evaluates one generated instance per (family, size) point.  When the
generator is randomized — as this reproduction's structural generators are — a
single instance can be noisy, so the harness also supports *campaigns*: the
same scenario repeated over several seeds, with the `T / T_inf` ratios
aggregated (mean, standard deviation, min, max) per heuristic.  Campaigns are
what `EXPERIMENTS.md` calls "paper-scale sweeps with error bars" and what a
downstream user should run before trusting a ranking on their own workloads.

A :class:`CampaignSpec` is the one description of a campaign grid: ``repro
campaign`` (whole or one ``--shard k/N``) and the distributed fabric build
their scenarios from it, so every way of running a campaign enumerates the
same scenarios in the same order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Any, Iterable, Sequence

from ..core.hashing import digest
from ..heuristics.registry import HEURISTIC_NAMES, parse_heuristic_name
from ..heuristics.search import candidate_counts
from ..workflows.pegasus import check_task_count
from .harness import ResultRow
from .scenarios import Scenario, lambda_downtime_grid, scenario_grid, shard_scenarios

__all__ = [
    "AggregatedResult",
    "CampaignResult",
    "CampaignSpec",
    "run_campaign",
    "aggregate_rows",
]


@dataclass(frozen=True)
class AggregatedResult:
    """Statistics of one heuristic on one scenario point, across seeds."""

    family: str
    n_tasks: int
    failure_rate: float
    heuristic: str
    n_seeds: int
    mean_ratio: float
    std_ratio: float
    min_ratio: float
    max_ratio: float
    mean_makespan: float
    mean_checkpoints: float
    downtime: float = 0.0
    processors: int = 1

    @property
    def sem_ratio(self) -> float:
        """Standard error of the mean overhead ratio."""
        if self.n_seeds <= 1:
            return 0.0
        return self.std_ratio / math.sqrt(self.n_seeds)


def _rank_key(entry: AggregatedResult) -> tuple[float, str]:
    """Ranking order: the mean ratio as the report prints it, then the name.

    Ranking on the raw mean would let the last ulp — which can differ
    between evaluation backends — order lines whose printed means tie, so
    a report would depend on more than what it prints.
    """
    return float(f"{entry.mean_ratio:.3f}"), entry.heuristic


@dataclass(frozen=True)
class CampaignResult:
    """All rows of a campaign plus their per-heuristic aggregation.

    ``failures`` lists quarantined work — units (as
    :class:`~repro.runtime.runner.UnitFailure`) when the campaign ran with
    quarantining enabled, shards (as :class:`~repro.runtime.leases.ShardLease`)
    of a fabric run; it stays out of :meth:`render` so the report of a
    clean run — including a crash-then-resume run — is byte-identical
    regardless of supervision settings.
    """

    rows: tuple[ResultRow, ...]
    aggregated: tuple[AggregatedResult, ...]
    failures: tuple[Any, ...] = ()

    @classmethod
    def from_rows(
        cls, rows: Sequence[ResultRow], failures: Sequence[Any] = ()
    ) -> "CampaignResult":
        """Re-aggregate loose rows (e.g. loaded from sharded CSV outputs).

        This is what ``repro campaign merge`` runs on the concatenated
        shard rows: aggregation groups each (grid point, heuristic) across
        seeds, and because a shard always carries *whole* scenarios (every
        seed of a grid point), the per-group member order — hence the
        floating-point sums — matches the unsharded run exactly.
        """
        rows = tuple(rows)
        return cls(rows=rows, aggregated=aggregate_rows(rows), failures=tuple(failures))

    def ranking(
        self,
        family: str,
        n_tasks: int,
        *,
        downtime: float | None = None,
        processors: int | None = None,
    ) -> tuple[AggregatedResult, ...]:
        """Heuristics of one point ordered by mean overhead ratio (best first).

        Means that print the same (3 decimals) are ordered by heuristic name.

        ``downtime`` / ``processors`` restrict the ranking to one platform
        point; ``None`` keeps every platform of the (family, size) pair —
        fine for paper-style grids where those axes do not vary.
        """
        entries = [
            a
            for a in self.aggregated
            if a.family == family
            and a.n_tasks == n_tasks
            and (downtime is None or a.downtime == downtime)
            and (processors is None or a.processors == processors)
        ]
        return tuple(sorted(entries, key=_rank_key))

    def best_heuristic(self, family: str, n_tasks: int) -> str:
        """Name of the heuristic with the lowest mean ratio at one point."""
        ranking = self.ranking(family, n_tasks)
        if not ranking:
            raise KeyError(f"no results for family={family!r}, n_tasks={n_tasks}")
        return ranking[0].heuristic

    def render(self) -> str:
        """Compact text table: one line per (grid point, heuristic).

        The downtime / processor columns appear as soon as any point leaves
        the paper's defaults (D = 0, p = 1), so platform-sweep points are
        always distinguishable.  The decision depends only on the aggregated
        data, which keeps the rendering byte-identical between an unsharded
        run and a merged sharded one.
        """
        platform_axes = any(
            a.downtime != 0.0 or a.processors != 1 for a in self.aggregated
        )
        # A per-family rate is the paper's setting and stays implicit; a
        # rate *sweep* (lambda x D grids) must label every point with it.
        rate_varies = len({(a.family, a.failure_rate) for a in self.aggregated}) > len(
            {a.family for a in self.aggregated}
        )
        platform_header = (f" {'lambda':>9}" if rate_varies else "") + (
            f" {'D':>7} {'p':>4}" if platform_axes else ""
        )
        lines = [
            f"{'family':<12} {'n':>5}{platform_header} {'heuristic':<12} "
            f"{'mean':>8} {'std':>7} {'min':>7} {'max':>7} {'seeds':>6}"
        ]
        for entry in sorted(
            self.aggregated,
            key=lambda a: (
                a.family,
                a.n_tasks,
                a.failure_rate,
                a.downtime,
                a.processors,
                *_rank_key(a),
            ),
        ):
            platform_cells = (f" {entry.failure_rate:>9g}" if rate_varies else "") + (
                f" {entry.downtime:>7g} {entry.processors:>4}" if platform_axes else ""
            )
            lines.append(
                f"{entry.family:<12} {entry.n_tasks:>5}{platform_cells} "
                f"{entry.heuristic:<12} "
                f"{entry.mean_ratio:>8.3f} {entry.std_ratio:>7.3f} "
                f"{entry.min_ratio:>7.3f} {entry.max_ratio:>7.3f} {entry.n_seeds:>6}"
            )
        return "\n".join(lines)


def aggregate_rows(rows: Sequence[ResultRow]) -> tuple[AggregatedResult, ...]:
    """Aggregate harness rows per heuristic and grid point.

    The grouping key is the full grid point — family, size, failure rate,
    downtime and processor count — so distinct platform points of a
    downtime or processor sweep are never averaged together.
    """
    groups: dict[tuple[str, int, float, float, int, str], list[ResultRow]] = {}
    for row in rows:
        key = (
            row.family,
            row.n_tasks,
            row.failure_rate,
            row.downtime,
            row.processors,
            row.heuristic,
        )
        groups.setdefault(key, []).append(row)

    aggregated: list[AggregatedResult] = []
    for (family, n_tasks, rate, downtime, processors, heuristic), members in sorted(
        groups.items()
    ):
        ratios = [m.overhead_ratio for m in members]
        count = len(ratios)
        mean = sum(ratios) / count
        variance = (
            sum((value - mean) ** 2 for value in ratios) / (count - 1) if count > 1 else 0.0
        )
        aggregated.append(
            AggregatedResult(
                family=family,
                n_tasks=n_tasks,
                failure_rate=rate,
                heuristic=heuristic,
                n_seeds=count,
                mean_ratio=mean,
                std_ratio=math.sqrt(variance),
                min_ratio=min(ratios),
                max_ratio=max(ratios),
                mean_makespan=sum(m.expected_makespan for m in members) / count,
                mean_checkpoints=sum(m.n_checkpointed for m in members) / count,
                downtime=downtime,
                processors=processors,
            )
        )
    return tuple(aggregated)


@dataclass(frozen=True)
class CampaignSpec:
    """Content of one campaign: the grid, the seeds, the budget, the shards.

    The constructor is the only validator of a campaign grid: it refuses an
    unknown preset, family or heuristic, an empty axis, a value repeated
    on an axis, a size below the family's minimum, a geometric budget below
    2 and fewer than one shard, and builds the scenario grid once — so a
    bad grid is refused before any cache file, journal or socket exists.
    :meth:`to_payload` is the wire form the fabric coordinator ships to its
    workers, and :meth:`content_digest` enters every fabric shard's journal
    key.

    The evaluation backend stays *out* of the spec (and its digest) and
    rides the runner or worker config instead.  Backends agree within 1e-9
    relative, not bit for bit, so two runs of one spec render byte-identical
    reports only when they resolve to the same backend.
    """

    families: tuple[str, ...] = ("montage",)
    sizes: tuple[int, ...] = (30, 60)
    #: ``None`` keeps the preset's own axis (``grid``: D = 0 and p = 1).
    downtimes: tuple[float, ...] | None = None
    processors: tuple[int, ...] | None = None
    #: ``"grid"`` (families x sizes x downtimes x processors) or
    #: ``"lambda-downtime"`` (the lambda x D sweep at the first size).
    preset: str = "grid"
    seeds: tuple[int, ...] = (0, 1, 2)
    #: Empty means all 14 heuristics.
    heuristics: tuple[str, ...] = ()
    checkpoint_mode: str = "proportional"
    checkpoint_factor: float = 0.1
    checkpoint_value: float = 0.0
    search_mode: str = "geometric"
    max_candidates: int = 30
    n_shards: int = 1

    def __post_init__(self) -> None:
        if self.preset not in ("grid", "lambda-downtime"):
            raise ValueError(f"unknown preset {self.preset!r}")
        if self.n_shards < 1:
            raise ValueError(f"shard count must be >= 1, got {self.n_shards}")
        if not self.heuristics:
            object.__setattr__(self, "heuristics", HEURISTIC_NAMES)
        for heuristic in self.heuristics:
            parse_heuristic_name(heuristic)
        if self.search_mode == "geometric":
            # Probe call: raises the search's own error for a budget below 2.
            candidate_counts(3, mode="geometric", max_candidates=self.max_candidates)
        for axis, noun in (
            (self.families, "family"),
            (self.sizes, "size"),
            (self.seeds, "seed"),
            (self.heuristics, "heuristic"),
            (self.downtimes, "downtime"),
            (self.processors, "processor count"),
        ):
            if axis is None:
                continue
            if not axis:
                raise ValueError(f"at least one {noun} is required")
            # A repeat would count one instance twice in the aggregates.
            for position, value in enumerate(axis):
                if value in axis[:position]:
                    raise ValueError(f"{noun} {value!r} is given more than once")
        # The grid is built here, once: an unknown family fails its builder,
        # and a size its generator would refuse fails before any unit runs.
        for scenario in self._grid:
            check_task_count(scenario.family, scenario.n_tasks)

    @cached_property
    def _grid(self) -> tuple[Scenario, ...]:
        axes = {"downtimes": self.downtimes, "processors": self.processors}
        options: dict[str, Any] = {
            "checkpoint_mode": self.checkpoint_mode,
            "checkpoint_factor": self.checkpoint_factor,
            "checkpoint_value": self.checkpoint_value,
            "heuristics": self.heuristics,
            **{name: axis for name, axis in axes.items() if axis is not None},
        }
        if self.preset == "lambda-downtime":
            return tuple(lambda_downtime_grid(self.families, n_tasks=self.sizes[0], **options))
        return tuple(scenario_grid(self.families, self.sizes, label="campaign", **options))

    def scenarios(self) -> list[Scenario]:
        """The full (unsharded) scenario list, in deterministic grid order."""
        return list(self._grid)

    def shard(self, k: int) -> list[Scenario]:
        """Deterministic shard ``k`` (1-based) of :attr:`n_shards`."""
        return shard_scenarios(self._grid, k, self.n_shards)

    def to_payload(self) -> dict[str, Any]:
        """JSON-serializable wire form (lossless round-trip)."""
        payload: dict[str, Any] = {}
        for spec_field in fields(self):
            value = getattr(self, spec_field.name)
            payload[spec_field.name] = list(value) if isinstance(value, tuple) else value
        return payload

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "CampaignSpec":
        """Rebuild (and so re-validate) a spec from :meth:`to_payload` output."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(f"unknown campaign spec field(s) {unknown}")
        kwargs = {
            name: tuple(value) if isinstance(value, list) else value
            for name, value in payload.items()
        }
        return cls(**kwargs)

    def content_digest(self) -> str:
        """Content digest of the spec (enters every fabric shard's journal key).

        The ``fabric-spec`` tag keeps the digests — and so the journals —
        written before the spec was shared with ``repro campaign``.
        """
        return digest({"fabric-spec": self.to_payload()})


def run_campaign(
    scenarios: Iterable[Scenario],
    *,
    seeds: Sequence[int] = (0, 1, 2),
    search_mode: str = "geometric",
    max_candidates: int = 30,
    jobs: int | None = 1,
    cache: Any = None,
    progress: Any = None,
    backend: str | None = None,
    journal: Any = None,
    max_retries: int = 2,
    retry_backoff: float = 0.5,
    unit_timeout: float | None = None,
    quarantine: bool = False,
) -> CampaignResult:
    """Run every scenario once per seed and aggregate the results.

    Each seed controls both the workflow-instance generation and the RF
    linearization, so the aggregation captures the full instance-to-instance
    variability of the reported ratios.

    ``jobs``, ``cache``, ``progress`` and ``backend`` are forwarded to the campaign
    runtime (:mod:`repro.runtime`): ``jobs=4`` fans the
    (scenario × seed × heuristic) work units over four worker processes,
    and a :class:`~repro.runtime.cache.ResultCache` makes repeated points
    free.  Because every work unit draws from its own seed-derived random
    stream, the aggregates of a parallel run are identical to the serial
    ones.

    The crash-safety knobs are forwarded likewise: ``journal`` (a
    :class:`~repro.runtime.journal.CampaignJournal` or a path) makes every
    completed unit durable and replays it on the next run; ``max_retries``,
    ``retry_backoff`` and ``unit_timeout`` configure worker supervision; and
    ``quarantine=True`` lets a poison unit be reported in
    :attr:`CampaignResult.failures` instead of aborting the rest.
    """
    seeds = tuple(int(s) for s in seeds)
    if not seeds:
        raise ValueError("at least one seed is required")

    from ..runtime.runner import CampaignRunner

    with CampaignRunner(
        jobs=jobs,
        cache=cache,
        search_mode=search_mode,
        max_candidates=max_candidates,
        progress=progress,
        backend=backend,
        journal=journal,
        max_retries=max_retries,
        retry_backoff=retry_backoff,
        unit_timeout=unit_timeout,
        quarantine=quarantine,
    ) as runner:
        rows = runner.run_rows(scenarios, seeds=seeds)
        failures = tuple(runner.failures)
    return CampaignResult(
        rows=tuple(rows), aggregated=aggregate_rows(rows), failures=failures
    )
