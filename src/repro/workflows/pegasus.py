"""Synthetic generators for the four Pegasus workflow families of the paper.

The paper's evaluation (Section 6) uses DAGs produced by the Pegasus Workflow
Generator for four scientific applications — Montage, CyberShake, LIGO's
Inspiral analysis and the USC Epigenomics (Genome) pipeline — with 50 to 700
tasks and average task weights of roughly 10 s, 25 s, 220 s and more than
1000 s respectively.

The original generator is a Java tool backed by execution traces that are not
redistributable; this module is the documented substitution (see DESIGN.md):
structural generators that follow the published characterizations of these
workflows (Bharathi et al., "Characterization of scientific workflows", WORKS
2008; Juve et al., "Characterizing and profiling scientific workflows", FGCS
2013).  Each generator reproduces

* the level structure and fan-in/fan-out pattern of the real workflow,
* per-level task runtime distributions whose overall mean matches the average
  task weight quoted in the paper,

which are the only DAG properties the scheduling study depends on.

All generators accept the *total* number of tasks ``n`` and a ``seed``; they
return workflows whose checkpoint / recovery costs are still zero (assign them
with :meth:`~repro.core.dag.Workflow.with_checkpoint_costs`, e.g.
``c_i = 0.1 w_i`` as in the paper's main experiments).
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from ..core.dag import Workflow
from ..core.task import Task

__all__ = [
    "WORKFLOW_FAMILIES",
    "AVERAGE_TASK_WEIGHTS",
    "check_task_count",
    "montage",
    "cybershake",
    "ligo",
    "epigenomics",
    "genome",
    "generate",
]

#: Family names accepted by :func:`generate`.
WORKFLOW_FAMILIES = ("montage", "cybershake", "ligo", "genome")

#: Average task weight (seconds) per family, as quoted in Section 6.1.
AVERAGE_TASK_WEIGHTS: dict[str, float] = {
    "montage": 10.0,
    "cybershake": 25.0,
    "ligo": 220.0,
    "genome": 1200.0,
}

#: Smallest task count each family's generator accepts.
_MIN_TASKS: dict[str, int] = {
    "montage": 10,
    "cybershake": 8,
    "ligo": 9,
    "genome": 10,
}


class _Builder:
    """Incremental workflow builder used by the family generators."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self.tasks: list[Task] = []
        self.edges: list[tuple[int, int]] = []

    def add(self, category: str, weight: float, predecessors: "list[int] | tuple[int, ...]" = ()) -> int:
        weight = float(weight)
        # A non-positive or non-finite runtime is a generator bug; masking
        # it (the old behavior clamped to 1e-6) would silently skew the
        # family's weight distribution and every downstream result.
        if not math.isfinite(weight) or weight <= 0.0:
            raise ValueError(
                f"workflow generator produced an invalid weight {weight!r} for "
                f"category {category!r}; task runtimes must be finite and positive"
            )
        index = len(self.tasks)
        self.tasks.append(
            Task(index=index, weight=weight, name=f"{category}_{index}", category=category)
        )
        self.edges.extend((int(p), index) for p in predecessors)
        return index

    def draw(self, mean: float, cv: float = 0.4) -> float:
        """Draw a runtime from a gamma distribution with the given mean and CV."""
        if mean <= 0:
            return 1e-6
        cv = min(max(cv, 0.01), 2.0)
        shape = 1.0 / (cv * cv)
        scale = mean / shape
        return float(self.rng.gamma(shape, scale))

    def build(self, name: str, target_mean: float) -> Workflow:
        """Finalize: rescale weights so the mean task weight hits ``target_mean``."""
        current_mean = sum(t.weight for t in self.tasks) / max(1, len(self.tasks))
        factor = target_mean / current_mean if current_mean > 0 else 1.0
        tasks = [t.with_costs(weight=t.weight * factor) for t in self.tasks]
        return Workflow(tasks, self.edges, name=name)


def check_task_count(family: str, n_tasks: int) -> int:
    """Return ``n_tasks`` if ``family``'s generator accepts it, else raise."""
    if not isinstance(n_tasks, int) or isinstance(n_tasks, bool):
        raise TypeError("n_tasks must be an int")
    minimum = _MIN_TASKS[family]
    if n_tasks < minimum:
        raise ValueError(f"this family needs at least {minimum} tasks, got {n_tasks}")
    return n_tasks


# ----------------------------------------------------------------------
# Montage
# ----------------------------------------------------------------------
def montage(n_tasks: int, *, seed: int | None = None) -> Workflow:
    """NASA/IPAC Montage: builds sky mosaics from input images.

    Structure (Bharathi et al. 2008): a wide ``mProjectPP`` level, an even wider
    ``mDiffFit`` level whose tasks each consume two overlapping projections, a
    sequential ``mConcatFit``/``mBgModel`` bottleneck, a wide ``mBackground``
    level (one task per projection, all reading the background model), then the
    sequential tail ``mImgtbl`` → ``mAdd`` → ``mShrink`` → ``mJPEG``.
    Average task weight ≈ 10 s.
    """
    n_tasks = check_task_count("montage", n_tasks)
    rng = np.random.default_rng(seed)
    b = _Builder(rng)

    tail = 6  # mConcatFit, mBgModel, mImgtbl, mAdd, mShrink, mJPEG
    remaining = n_tasks - tail
    # Split the remaining tasks between projections (x), diffs (~1.5x) and
    # backgrounds (x): 3.5x ≈ remaining.
    n_project = max(2, int(round(remaining / 3.5)))
    n_background = n_project
    n_diff = remaining - n_project - n_background
    if n_diff < 1:
        n_diff = 1
        n_project = max(2, (remaining - n_diff) // 2)
        n_background = remaining - n_diff - n_project

    projections = [b.add("mProjectPP", b.draw(13.0)) for _ in range(n_project)]
    diffs = []
    for d in range(n_diff):
        first = projections[d % n_project]
        second = projections[(d + 1) % n_project]
        preds = [first] if first == second else [first, second]
        diffs.append(b.add("mDiffFit", b.draw(10.0), preds))
    concat = b.add("mConcatFit", b.draw(45.0), diffs)
    bg_model = b.add("mBgModel", b.draw(60.0), [concat])
    backgrounds = [
        b.add("mBackground", b.draw(10.0), [bg_model, projections[i % n_project]])
        for i in range(n_background)
    ]
    imgtbl = b.add("mImgtbl", b.draw(25.0), backgrounds)
    madd = b.add("mAdd", b.draw(80.0), [imgtbl])
    shrink = b.add("mShrink", b.draw(15.0), [madd])
    b.add("mJPEG", b.draw(5.0), [shrink])

    return b.build(f"montage-{n_tasks}", AVERAGE_TASK_WEIGHTS["montage"])


# ----------------------------------------------------------------------
# CyberShake
# ----------------------------------------------------------------------
def cybershake(n_tasks: int, *, seed: int | None = None) -> Workflow:
    """SCEC CyberShake: probabilistic seismic hazard curves for a site.

    Structure: two ``ExtractSGT`` tasks (strain Green tensor extraction), a wide
    ``SeismogramSynthesis`` level (each synthesis reads one SGT), one
    ``ZipSeismograms`` collector, a ``PeakValCalcOkaya`` task per seismogram and
    a final ``ZipPSA`` collector.  Average task weight ≈ 25 s.
    """
    n_tasks = check_task_count("cybershake", n_tasks)
    rng = np.random.default_rng(seed)
    b = _Builder(rng)

    n_extract = 2
    fixed = n_extract + 2  # the two zip collectors
    n_pairs = max(1, (n_tasks - fixed) // 2)
    n_synthesis = n_pairs
    n_peak = n_tasks - fixed - n_synthesis

    extracts = [b.add("ExtractSGT", b.draw(110.0)) for _ in range(n_extract)]
    syntheses = [
        b.add("SeismogramSynthesis", b.draw(24.0), [extracts[i % n_extract]])
        for i in range(n_synthesis)
    ]
    zip_seis = b.add("ZipSeismograms", b.draw(40.0), syntheses)
    peaks = [
        b.add("PeakValCalcOkaya", b.draw(1.0), [syntheses[i % n_synthesis]])
        for i in range(n_peak)
    ]
    b.add("ZipPSA", b.draw(30.0), peaks if peaks else [zip_seis])

    return b.build(f"cybershake-{n_tasks}", AVERAGE_TASK_WEIGHTS["cybershake"])


# ----------------------------------------------------------------------
# LIGO Inspiral
# ----------------------------------------------------------------------
def ligo(n_tasks: int, *, seed: int | None = None) -> Workflow:
    """LIGO Inspiral analysis: gravitational-wave candidate detection.

    Structure: several independent groups; within each group a ``TmpltBank``
    level feeds a first ``Inspiral`` level, coalesced by a ``Thinca`` task, then
    a ``TrigBank`` level feeds a second ``Inspiral`` level coalesced by a final
    ``Thinca``.  Average task weight ≈ 220 s.
    """
    n_tasks = check_task_count("ligo", n_tasks)
    rng = np.random.default_rng(seed)
    b = _Builder(rng)

    # Each group of width m uses 4m + 2 tasks (TmpltBank, Inspiral1, TrigBank,
    # Inspiral2 levels of width m plus two Thinca tasks).
    group_width = 5
    group_size = 4 * group_width + 2
    n_groups = max(1, n_tasks // group_size)
    budget = n_tasks

    for g in range(n_groups):
        remaining_groups = n_groups - g
        group_budget = budget // remaining_groups
        width = max(1, (group_budget - 2) // 4)
        extra = max(0, group_budget - 2 - 4 * width)

        tmplt = [b.add("TmpltBank", b.draw(300.0)) for _ in range(width)]
        inspiral1 = [b.add("Inspiral", b.draw(460.0), [tmplt[i]]) for i in range(width)]
        thinca1 = b.add("Thinca", b.draw(5.0), inspiral1)
        trig = [b.add("TrigBank", b.draw(5.0), [thinca1]) for _ in range(width)]
        # Extra second-stage inspirals (when the budget is not a multiple of the
        # group size) read an arbitrary trigger bank of the group.
        inspiral2 = [
            b.add("Inspiral", b.draw(220.0), [trig[i % width]])
            for i in range(width + extra)
        ]
        b.add("Thinca", b.draw(5.0), inspiral2)
        budget -= 2 + 4 * width + extra

    return b.build(f"ligo-{n_tasks}", AVERAGE_TASK_WEIGHTS["ligo"])


# ----------------------------------------------------------------------
# Epigenomics (Genome)
# ----------------------------------------------------------------------
def epigenomics(n_tasks: int, *, seed: int | None = None) -> Workflow:
    """USC Epigenome Center genome-sequencing pipeline ("Genome" in the paper).

    Structure: several independent lanes, each a ``fastQSplit`` task fanning out
    to parallel per-chunk pipelines ``filterContams`` → ``sol2sanger`` →
    ``fastq2bfq`` → ``map``, merged by a per-lane ``mapMerge``; the lane merges
    feed a global ``mapMerge`` → ``maqIndex`` → ``pileup`` tail.  Average task
    weight > 1000 s (the heaviest family in the paper).
    """
    n_tasks = check_task_count("genome", n_tasks)
    rng = np.random.default_rng(seed)
    b = _Builder(rng)

    tail = 3  # global mapMerge, maqIndex, pileup
    n_lanes = max(1, min(4, (n_tasks - tail) // 12))
    budget = n_tasks - tail
    lane_merges = []
    for lane in range(n_lanes):
        remaining_lanes = n_lanes - lane
        lane_budget = budget // remaining_lanes
        # Each lane: 1 split + 4 * chunks + 1 merge.
        chunks = max(1, (lane_budget - 2) // 4)
        split = b.add("fastQSplit", b.draw(400.0))
        maps = []
        for _ in range(chunks):
            filt = b.add("filterContams", b.draw(300.0), [split])
            sol = b.add("sol2sanger", b.draw(250.0), [filt])
            bfq = b.add("fastq2bfq", b.draw(150.0), [sol])
            maps.append(b.add("map", b.draw(2000.0), [bfq]))
        lane_merges.append(b.add("mapMerge", b.draw(500.0), maps))
        budget -= 2 + 4 * chunks

    global_merge = b.add("mapMergeGlobal", b.draw(800.0), lane_merges)
    index = b.add("maqIndex", b.draw(300.0), [global_merge])
    b.add("pileup", b.draw(400.0), [index])

    return b.build(f"genome-{n_tasks}", AVERAGE_TASK_WEIGHTS["genome"])


#: Alias matching the paper's name for the Epigenomics family.
genome = epigenomics


_GENERATORS: dict[str, Callable[..., Workflow]] = {
    "montage": montage,
    "cybershake": cybershake,
    "ligo": ligo,
    "genome": epigenomics,
    "epigenomics": epigenomics,
}


def generate(family: str, n_tasks: int, *, seed: int | None = None) -> Workflow:
    """Generate a workflow of the given family (case-insensitive name)."""
    key = family.strip().lower()
    if key not in _GENERATORS:
        raise ValueError(
            f"unknown workflow family {family!r}; expected one of {WORKFLOW_FAMILIES}"
        )
    return _GENERATORS[key](n_tasks, seed=seed)
