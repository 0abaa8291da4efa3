"""Command-line interface.

Exposes the library's main workflows as sub-commands so that a scheduling study
can be scripted without writing Python:

* ``repro generate`` — generate a workflow instance (Pegasus-like family or
  generic shape) and write it to JSON;
* ``repro solve`` — run one of the paper's heuristics (optionally followed by
  local-search refinement) and write the schedule to JSON;
* ``repro evaluate`` — expected makespan of a schedule (Theorem 3);
* ``repro analyse`` — expected-time breakdown and checkpoint utilities;
* ``repro simulate`` — Monte-Carlo fault-injection estimate;
* ``repro robustness`` — failure-law robustness campaign: sweep failure law
  x shape parameter x scenario grid, validate the analytical backend
  against simulation confidence intervals, emit a JSON report (and figure);
* ``repro figures`` — regenerate the data behind the paper's figures;
* ``repro campaign`` — multi-seed sweep with aggregation and error bars over
  a family x size x downtime x processors grid (``--downtimes`` /
  ``--processors`` open the platform axes; ``--preset lambda-downtime`` is
  the lambda x D sweep); ``--shard k/N`` runs one deterministic shard of the
  grid and ``repro campaign merge`` re-assembles shard CSVs into the exact
  unsharded report;
* ``repro serve`` — long-running HTTP/JSON service exposing solve / evaluate
  / analyse with cross-request batching and Prometheus-style ``/metrics``
  (see :mod:`repro.service`);
* ``repro cache`` — inspect / clear the persistent result cache.

``repro --json <command> ...`` switches failures to a machine-readable JSON
object on stderr (same shape as the service's error responses); ``repro
--version`` reports the package version from the installed metadata.

The single-platform commands (``solve`` / ``evaluate`` / ``analyse`` /
``simulate``) describe the platform with the same ``--failure-rate`` /
``--downtime`` / ``--processors`` triple scenarios use, so a direct
evaluation and the equivalent campaign scenario price the same platform.

The evaluation-heavy sub-commands accept ``--backend auto|python|numpy`` to
pick the Theorem-3 evaluation backend (default ``auto``: NumPy when it is
importable and the instance is large enough, Python otherwise; the
``REPRO_EVAL_BACKEND`` environment variable overrides the default).

``figures`` and ``campaign`` accept ``--jobs N`` (worker processes) and
``--cache PATH`` (persistent result cache); both route through the campaign
runtime of :mod:`repro.runtime`.  Every sub-command prints a short
human-readable report to stdout; machine consumable artefacts (workflows,
schedules, figure data) are written to files.
"""

from __future__ import annotations

import argparse
import json
import os
import sqlite3
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Sequence

from . import __version__
from .analysis import analyse_schedule, checkpoint_utilities
from .core.backend import BACKEND_REGISTRY
from .core.evaluator import evaluate_schedule
from .core.platform import Platform, PlatformSpec
from .experiments import (
    CampaignResult,
    all_figures,
    lambda_downtime_grid,
    parse_shard,
    plot_robustness,
    read_shard_marker,
    row_identity,
    rows_from_csv,
    run_campaign,
    run_robustness,
    save_robustness_report,
    save_rows_csv,
    scenario_grid,
)
from .heuristics import (
    HEURISTIC_NAMES,
    candidate_counts,
    parse_heuristic_name,
    solve_heuristic,
)
from .runtime import CampaignJournal, DiskCache, ResultCache, read_disk_stats, resolve_jobs
from .heuristics.refinement import local_search_checkpoints
from .simulation import run_monte_carlo
from .workflows import generators, pegasus
from .workflows.serialization import (
    load_schedule,
    load_workflow,
    save_schedule,
    save_workflow,
)

__all__ = ["main", "build_parser"]


# ----------------------------------------------------------------------
# Argument parsing
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Scheduling computational workflows on failure-prone platforms "
        "(reproduction of Aupy, Benoit, Casanova, Robert — IPDPS 2015).",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    parser.add_argument(
        "--json", action="store_true", dest="json_errors",
        help="report failures as a JSON object on stderr (machine-parseable "
             "errors for service clients and benchmarks)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    # generate ----------------------------------------------------------
    gen = subparsers.add_parser("generate", help="generate a workflow instance")
    gen.add_argument("--family", default="montage",
                     help="montage, cybershake, ligo, genome, chain, fork, join, layered")
    gen.add_argument("--tasks", type=int, default=100, help="number of tasks")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--checkpoint-mode", choices=("proportional", "constant"), default="proportional")
    gen.add_argument("--checkpoint-factor", type=float, default=0.1)
    gen.add_argument("--checkpoint-value", type=float, default=0.0)
    gen.add_argument("--output", "-o", required=True, help="output JSON path")

    # solve -------------------------------------------------------------
    solve = subparsers.add_parser("solve", help="run a scheduling heuristic")
    solve.add_argument("--workflow", required=True, help="workflow JSON produced by 'generate'")
    solve.add_argument("--heuristic", default="DF-CkptW",
                       help=f"one of {', '.join(HEURISTIC_NAMES)}")
    _add_platform_arguments(solve)
    solve.add_argument("--seed", type=int, default=0, help="seed for the RF linearization")
    solve.add_argument("--refine", action="store_true",
                       help="apply local-search refinement to the checkpoint set")
    solve.add_argument("--output", "-o", help="write the schedule to this JSON path")
    _add_backend_argument(solve)

    # evaluate ----------------------------------------------------------
    evaluate = subparsers.add_parser("evaluate", help="expected makespan of a schedule")
    evaluate.add_argument("--schedule", required=True, help="schedule JSON produced by 'solve'")
    _add_platform_arguments(evaluate)
    _add_backend_argument(evaluate)

    # analyse -----------------------------------------------------------
    analyse = subparsers.add_parser("analyse", help="expected-time breakdown of a schedule")
    analyse.add_argument("--schedule", required=True)
    _add_platform_arguments(analyse)
    analyse.add_argument("--top", type=int, default=5, help="number of worst tasks to list")
    analyse.add_argument("--utilities", action="store_true",
                         help="also report the exact utility of every checkpoint")
    _add_backend_argument(analyse)

    # simulate ----------------------------------------------------------
    simulate = subparsers.add_parser("simulate", help="Monte-Carlo estimate of a schedule")
    simulate.add_argument("--schedule", required=True)
    _add_platform_arguments(simulate)
    simulate.add_argument("--runs", type=int, default=1000)
    simulate.add_argument("--seed", type=int, default=0)
    _add_backend_argument(simulate)

    # robustness --------------------------------------------------------
    robustness = subparsers.add_parser(
        "robustness",
        help="failure-law robustness campaign (analytical vs Monte-Carlo)",
    )
    robustness.add_argument("--families", default="montage",
                            help="comma-separated workflow families")
    robustness.add_argument("--sizes", default="30,60",
                            help="comma-separated task counts")
    robustness.add_argument("--downtimes", default="0",
                            help="comma-separated downtimes D (seconds) — Theorem 3 "
                                 "stays exact for D > 0, so exponential rows must "
                                 "validate there too")
    robustness.add_argument("--processors", default="1",
                            help="comma-separated processor counts p "
                                 "(platform lambda = p x per-processor lambda)")
    robustness.add_argument("--laws", default="exponential,weibull,lognormal",
                            help="comma-separated failure laws to sweep")
    robustness.add_argument("--shapes", default="0.5,0.7",
                            help="comma-separated Weibull shape parameters")
    robustness.add_argument("--sigmas", default="1.0",
                            help="comma-separated LogNormal sigma parameters")
    robustness.add_argument("--runs", type=int, default=2000,
                            help="Monte-Carlo replicas per row")
    robustness.add_argument("--heuristic", default="DF-CkptW",
                            help=f"one of {', '.join(HEURISTIC_NAMES)}")
    robustness.add_argument("--seed", type=int, default=0,
                            help="workflow-instance / linearization seed")
    robustness.add_argument("--mc-seed", type=int, default=0,
                            help="Monte-Carlo replica-stream seed")
    robustness.add_argument("--search-mode", choices=("exhaustive", "geometric"),
                            default="geometric")
    robustness.add_argument("--max-candidates", type=int, default=30)
    robustness.add_argument("--output", "-o",
                            help="write the machine-readable JSON report here")
    robustness.add_argument("--figure",
                            help="render the campaign figure to this path (needs matplotlib)")
    robustness.add_argument("--check", action="store_true",
                            help="exit with status 1 unless every exponential row's "
                                 "analytical expectation lies in the simulation 95%% CI")
    _add_runtime_arguments(robustness)

    # figures -----------------------------------------------------------
    figures = subparsers.add_parser("figures", help="regenerate the paper's figure data")
    figures.add_argument("--preset", choices=("smoke", "paper"), default="smoke")
    figures.add_argument("--outdir", default="figure_data")
    figures.add_argument("--seed", type=int, default=0)
    _add_runtime_arguments(figures)

    # campaign ----------------------------------------------------------
    campaign = subparsers.add_parser(
        "campaign", help="multi-seed heuristic sweep with aggregation"
    )
    campaign.add_argument("--families", default="montage",
                          help="comma-separated workflow families")
    campaign.add_argument("--sizes", default="30,60",
                          help="comma-separated task counts")
    campaign.add_argument("--downtimes", default=None,
                          help="comma-separated downtimes D (seconds; grid axis, "
                               "default 0)")
    campaign.add_argument("--processors", default=None,
                          help="comma-separated processor counts p (grid axis, "
                               "default 1; platform lambda = p x per-processor "
                               "lambda)")
    campaign.add_argument("--preset", choices=("grid", "lambda-downtime"),
                          default="grid",
                          help="'grid': families x sizes x downtimes x processors; "
                               "'lambda-downtime': the lambda x D sweep preset at "
                               "the first --sizes value")
    campaign.add_argument("--seeds", default="0,1,2",
                          help="comma-separated instance seeds")
    campaign.add_argument("--heuristics", default="",
                          help="comma-separated heuristic names (default: all 14)")
    campaign.add_argument("--checkpoint-mode", choices=("proportional", "constant"),
                          default="proportional")
    campaign.add_argument("--checkpoint-factor", type=float, default=0.1)
    campaign.add_argument("--checkpoint-value", type=float, default=0.0)
    campaign.add_argument("--search-mode", choices=("exhaustive", "geometric"),
                          default="geometric")
    campaign.add_argument("--max-candidates", type=int, default=30)
    campaign.add_argument("--shard", default=None, metavar="K/N",
                          help="run only the k-th of N deterministic grid shards "
                               "(1-based, e.g. 1/2); re-assemble shard CSVs with "
                               "'repro campaign merge'")
    campaign.add_argument("--output", "-o", help="write the raw result rows to this CSV path")
    campaign.add_argument("--report", metavar="PATH",
                          help="write the rendered aggregation table to this path")
    campaign.add_argument("--journal", metavar="PATH",
                          help="append-only journal of completed units (fsync'd "
                               "JSONL); created if missing, replayed if present — "
                               "a crashed or interrupted campaign resumes from it")
    campaign.add_argument("--resume", metavar="PATH",
                          help="resume from (and keep appending to) this journal; "
                               "must exist — alias of --journal with an existence "
                               "check, for explicit resume invocations")
    campaign.add_argument("--max-retries", type=int, default=2,
                          help="pool-level retries per chunk after a worker crash "
                               "or timeout (default 2)")
    campaign.add_argument("--unit-timeout", type=float, default=None, metavar="SECONDS",
                          help="wall-clock budget per parallel item, i.e. per group "
                               "of units that share a sweep; a stuck worker chunk "
                               "is killed and retried (default: none)")
    campaign.add_argument("--retry-backoff", type=float, default=0.5, metavar="SECONDS",
                          help="base of the exponential backoff between worker-pool "
                               "resets (default 0.5)")
    _add_runtime_arguments(campaign)

    # campaign merge ----------------------------------------------------
    campaign_sub = campaign.add_subparsers(dest="campaign_command")
    merge = campaign_sub.add_parser(
        "merge",
        help="merge sharded campaign CSVs and re-aggregate "
             "(byte-identical to the unsharded report)",
    )
    merge.add_argument("csvs", nargs="+",
                       help="row CSVs written by the sharded runs' --output")
    # SUPPRESS defaults: when the option is not given after 'merge', the
    # attribute set while parsing the parent campaign options survives, so
    # `repro campaign -o merged.csv merge a.csv b.csv` works like
    # `repro campaign merge a.csv b.csv -o merged.csv` instead of silently
    # discarding the output path.
    merge.add_argument("--output", "-o", default=argparse.SUPPRESS,
                       help="write the merged rows (canonical order) to this CSV path")
    merge.add_argument("--report", metavar="PATH", default=argparse.SUPPRESS,
                       help="write the rendered aggregation table to this path")

    # fabric ------------------------------------------------------------
    fabric = subparsers.add_parser(
        "fabric",
        help="distributed campaign fabric: lease-based shard coordinator, "
             "workers, and the shared remote result cache",
    )
    fabric_sub = fabric.add_subparsers(dest="fabric_command", required=True)

    coordinate = fabric_sub.add_parser(
        "coordinate",
        help="partition a campaign into TTL-leased shards and serve them to "
             "'repro fabric work' processes (resumable via --journal)",
    )
    coordinate.add_argument("--families", default="montage",
                            help="comma-separated workflow families")
    coordinate.add_argument("--sizes", default="30,60",
                            help="comma-separated task counts")
    coordinate.add_argument("--downtimes", default=None,
                            help="comma-separated downtimes D (grid axis, default 0)")
    coordinate.add_argument("--processors", default=None,
                            help="comma-separated processor counts p (grid axis, "
                                 "default 1)")
    coordinate.add_argument("--preset", choices=("grid", "lambda-downtime"),
                            default="grid")
    coordinate.add_argument("--seeds", default="0,1,2",
                            help="comma-separated instance seeds")
    coordinate.add_argument("--heuristics", default="",
                            help="comma-separated heuristic names (default: all 14)")
    coordinate.add_argument("--checkpoint-mode",
                            choices=("proportional", "constant"),
                            default="proportional")
    coordinate.add_argument("--checkpoint-factor", type=float, default=0.1)
    coordinate.add_argument("--checkpoint-value", type=float, default=0.0)
    coordinate.add_argument("--search-mode", choices=("exhaustive", "geometric"),
                            default="geometric")
    coordinate.add_argument("--max-candidates", type=int, default=30)
    coordinate.add_argument("--shards", type=int, default=2, metavar="N",
                            help="number of deterministic grid shards to lease out "
                                 "(default 2)")
    coordinate.add_argument("--host", default="127.0.0.1",
                            help="control-plane bind address")
    coordinate.add_argument("--port", type=int, default=0,
                            help="control-plane TCP port (0 picks an ephemeral one)")
    coordinate.add_argument("--ttl", type=float, default=15.0, metavar="SECONDS",
                            help="lease TTL; a worker that stops heartbeating for "
                                 "this long loses its shard (default 15)")
    coordinate.add_argument("--max-attempts", type=int, default=3,
                            help="grants per shard before poison-quarantine "
                                 "(default 3)")
    coordinate.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                            help="abort if the campaign has not finished in this "
                                 "long (default: wait forever)")
    coordinate.add_argument("--cache-server", metavar="HOST:PORT",
                            help="endpoint of a 'repro fabric cache-server' the "
                                 "workers should share (they degrade to their "
                                 "local cache when it is unreachable)")
    coordinate.add_argument("--journal", metavar="PATH",
                            help="journal of completed shards; created if missing, "
                                 "replayed if present — a crashed coordinator "
                                 "resumes without re-running finished shards")
    coordinate.add_argument("--resume", metavar="PATH",
                            help="resume from (and keep appending to) this journal; "
                                 "must exist")
    coordinate.add_argument("--output", "-o",
                            help="write the merged result rows (canonical order) "
                                 "to this CSV path")
    coordinate.add_argument("--report", metavar="PATH",
                            help="write the rendered aggregation table to this path")
    coordinate.add_argument("--metrics-output", metavar="PATH",
                            help="write the fabric metrics (Prometheus text "
                                 "exposition) to this path on exit")
    _add_backend_argument(coordinate)

    work = fabric_sub.add_parser(
        "work",
        help="lease shards from a coordinator, run them, report the rows back",
    )
    work.add_argument("--coordinator", required=True, metavar="HOST:PORT",
                      help="control-plane endpoint printed by "
                           "'repro fabric coordinate'")
    work.add_argument("--name", default=None,
                      help="worker identity in lease bookkeeping "
                           "(default: hostname-pid)")
    work.add_argument("--jobs", type=int, default=1,
                      help="worker-local processes per shard (1 = serial, "
                           "0 = all CPUs)")
    work.add_argument("--cache", dest="cache_path", metavar="PATH",
                      help="worker-local persistent cache (also the degradation "
                           "target when the shared cache server is down)")
    work.add_argument("--max-shards", type=int, default=None, metavar="N",
                      help="stop after completing N shards (default: work until "
                           "the campaign finishes)")
    work.add_argument("--poll", type=float, default=0.2, metavar="SECONDS",
                      help="delay between lease polls when nothing is grantable")
    _add_backend_argument(work)

    cache_server = fabric_sub.add_parser(
        "cache-server",
        help="serve a sqlite result cache to fabric workers over TCP",
    )
    cache_server.add_argument("--cache", dest="cache_path", required=True,
                              metavar="PATH",
                              help="sqlite cache file to serve (created on demand)")
    cache_server.add_argument("--host", default="127.0.0.1", help="bind address")
    cache_server.add_argument("--port", type=int, default=0,
                              help="TCP port (0 picks an ephemeral port)")

    # serve -------------------------------------------------------------
    serve = subparsers.add_parser(
        "serve",
        help="run the checkpoint-planning HTTP service (solve/evaluate/analyse "
             "over JSON, with request batching and /metrics)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8765,
                       help="TCP port (0 picks an ephemeral port)")
    serve.add_argument("--jobs", type=int, default=1,
                       help="worker processes for solve batches "
                            "(1 = in-thread, 0 = all CPUs)")
    serve.add_argument("--workers", type=int, default=2,
                       help="concurrent request batches (threads)")
    serve.add_argument("--cache", dest="cache_path", metavar="PATH",
                       help="persistent result cache shared with campaign runs")
    serve.add_argument("--batch-window", type=float, default=0.0,
                       help="seconds to wait for co-batchable requests before "
                            "dispatching (0 = lowest latency)")
    serve.add_argument("--queue-max", type=int, default=256,
                       help="queued solve requests before rejecting with 503")
    serve.add_argument("--request-timeout", type=float, default=None, metavar="SECONDS",
                       help="per-request wall-clock budget; exceeded requests get "
                            "503 + Retry-After (default: none)")
    serve.add_argument("--group-retries", type=int, default=1,
                       help="solve-group retries after a worker-pool crash before "
                            "answering 503 (default 1)")
    _add_backend_argument(serve)

    # backends ----------------------------------------------------------
    backends = subparsers.add_parser(
        "backends",
        help="list evaluation backends, availability and auto resolution",
    )
    backends.add_argument(
        "--tasks", type=int, default=None, metavar="N",
        help="also report what 'auto' resolves to for an N-task instance",
    )
    backends.add_argument(
        "--json", action="store_true", dest="json_output",
        help="emit the registry listing as a JSON object on stdout",
    )

    # lint --------------------------------------------------------------
    lint = subparsers.add_parser(
        "lint",
        help="run reprolint, the determinism / cache-key invariant checker",
    )
    lint.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to lint (default: src/repro under the repo root)",
    )
    lint.add_argument(
        "--repo-root", default=".", metavar="DIR",
        help="repository root for cross-file registries (default: cwd)",
    )
    lint.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (json is the stable CI artifact shape)",
    )
    lint.add_argument(
        "--output", metavar="PATH",
        help="write the report to PATH instead of stdout",
    )
    lint.add_argument(
        "--rules", metavar="IDS",
        help="comma-separated rule ids to run (default: all)",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="list registered rules and their invariants, then exit",
    )
    lint.add_argument(
        "--baseline", metavar="PATH",
        help="baseline file of grandfathered finding fingerprints",
    )
    lint.add_argument(
        "--write-baseline", action="store_true",
        help="grandfather every current finding into --baseline and exit 0",
    )
    lint.add_argument(
        "--key-lock", metavar="PATH",
        help="key-schema lock file (default: <repo-root>/.reprolint-keys.json)",
    )
    lint.add_argument(
        "--write-key-lock", action="store_true",
        help="record the current key payload schema as the accepted one",
    )

    # cache -------------------------------------------------------------
    cache = subparsers.add_parser("cache", help="inspect the persistent result cache")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_stats = cache_sub.add_parser(
        "stats", help="entry count, size and lifetime hit/miss counters"
    )
    cache_stats.add_argument("path", help="cache file created via --cache PATH")
    cache_clear = cache_sub.add_parser("clear", help="delete every cached entry")
    cache_clear.add_argument("path", help="cache file created via --cache PATH")

    return parser


def _add_runtime_arguments(parser: argparse.ArgumentParser) -> None:
    """``--jobs`` / ``--cache`` / ``--progress`` shared by the sweep commands."""
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (1 = serial, 0 = all CPUs)")
    parser.add_argument("--cache", dest="cache_path", metavar="PATH",
                        help="persistent result cache (sqlite file, created on demand)")
    parser.add_argument("--progress", action="store_true",
                        help="report sweep progress and throughput on stderr")
    _add_backend_argument(parser)


def _add_backend_argument(parser: argparse.ArgumentParser) -> None:
    """``--backend`` shared by every evaluation-heavy sub-command."""
    parser.add_argument("--backend", choices=BACKEND_REGISTRY.choices(),
                        default=None,
                        help="Theorem-3 evaluation backend (default: auto, "
                             "or the REPRO_EVAL_BACKEND environment variable; "
                             "see 'repro backends' for availability)")


def _add_platform_arguments(parser: argparse.ArgumentParser) -> None:
    """``--failure-rate`` / ``--downtime`` / ``--processors`` of the
    single-platform commands — the same platform description scenarios use,
    so direct CLI paths and campaign scenarios can never disagree."""
    parser.add_argument("--failure-rate", type=float, default=1e-3,
                        help="per-processor failure rate lambda_proc (per second); "
                             "with the default single processor this is the "
                             "platform lambda")
    parser.add_argument("--downtime", type=float, default=0.0,
                        help="downtime after each failure (s)")
    parser.add_argument("--processors", type=int, default=1,
                        help="number of processors p (platform lambda = "
                             "p x lambda_proc)")



# ----------------------------------------------------------------------
# Sub-command implementations
# ----------------------------------------------------------------------
_GENERIC_FAMILIES = {
    "chain": lambda n, seed: generators.chain_workflow(n, seed=seed),
    "fork": lambda n, seed: generators.fork_workflow(max(1, n - 1), seed=seed),
    "join": lambda n, seed: generators.join_workflow(max(1, n - 1), seed=seed),
    "layered": lambda n, seed: generators.layered_workflow(max(1, n // 5), 5, seed=seed),
    "random": lambda n, seed: generators.random_dag_workflow(n, seed=seed),
}


def _build_workflow(args: argparse.Namespace):
    family = args.family.strip().lower()
    if family in pegasus.WORKFLOW_FAMILIES or family == "epigenomics":
        workflow = pegasus.generate(family, args.tasks, seed=args.seed)
    elif family in _GENERIC_FAMILIES:
        workflow = _GENERIC_FAMILIES[family](args.tasks, args.seed)
    else:
        raise SystemExit(
            f"unknown family {args.family!r}; expected one of "
            f"{', '.join(sorted(set(pegasus.WORKFLOW_FAMILIES) | set(_GENERIC_FAMILIES)))}"
        )
    return workflow.with_checkpoint_costs(
        mode=args.checkpoint_mode,
        factor=args.checkpoint_factor,
        value=args.checkpoint_value,
    )


def _platform(args: argparse.Namespace) -> Platform:
    # Route through PlatformSpec — the exact construction Scenario.platform
    # uses — so `repro evaluate --downtime 2` and the equivalent campaign
    # scenario price the same platform by construction.
    return PlatformSpec(
        failure_rate=args.failure_rate,
        downtime=args.downtime,
        processors=getattr(args, "processors", 1),
    ).build()


def _cmd_generate(args: argparse.Namespace) -> int:
    workflow = _build_workflow(args)
    path = save_workflow(workflow, args.output)
    print(f"wrote {path} ({workflow.n_tasks} tasks, {workflow.n_edges} edges, "
          f"total work {workflow.total_weight:.1f}s)")
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    workflow = load_workflow(args.workflow)
    platform = _platform(args)
    result = solve_heuristic(
        workflow, platform, args.heuristic, rng=args.seed, backend=args.backend
    )
    schedule = result.schedule
    line = (f"{args.heuristic}: E[makespan] = {result.expected_makespan:.2f}s, "
            f"T/T_inf = {result.overhead_ratio:.3f}, "
            f"{result.checkpoint_count}/{workflow.n_tasks} checkpoints")
    if args.refine:
        refined = local_search_checkpoints(schedule, platform, backend=args.backend)
        schedule = refined.schedule
        line += (f"; after refinement: {refined.expected_makespan:.2f}s "
                 f"(-{100 * refined.relative_improvement:.2f}%)")
    print(line)
    if args.output:
        path = save_schedule(schedule, args.output)
        print(f"wrote {path}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    schedule = load_schedule(args.schedule)
    platform = _platform(args)
    evaluation = evaluate_schedule(schedule, platform, backend=args.backend)
    print(json.dumps(
        {
            "expected_makespan": evaluation.expected_makespan,
            "failure_free_makespan": evaluation.failure_free_makespan,
            "failure_free_work": evaluation.failure_free_work,
            "overhead_ratio": evaluation.overhead_ratio,
            "n_checkpointed": schedule.n_checkpointed,
        },
        indent=2,
    ))
    return 0


def _cmd_analyse(args: argparse.Namespace) -> int:
    schedule = load_schedule(args.schedule)
    platform = _platform(args)
    breakdown = analyse_schedule(schedule, platform, backend=args.backend)
    print(breakdown.render(top=args.top))
    if args.utilities:
        print("\ncheckpoint utilities (expected seconds saved by each checkpoint):")
        for utility in sorted(checkpoint_utilities(schedule, platform, backend=args.backend),
                              key=lambda u: -u.utility):
            task = schedule.workflow.task(utility.task_index)
            print(f"  {task.name:<16} {utility.utility:+10.2f}s")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    schedule = load_schedule(args.schedule)
    platform = _platform(args)
    summary = run_monte_carlo(
        schedule, platform, n_runs=args.runs, rng=args.seed, backend=args.backend
    )
    low, high = summary.ci95
    print(f"{args.runs} simulated executions: mean {summary.mean_makespan:.2f}s, "
          f"95% CI [{low:.2f}, {high:.2f}], "
          f"min {summary.min_makespan:.2f}s, max {summary.max_makespan:.2f}s, "
          f"{summary.mean_failures:.2f} failures/run")
    return 0


def _cmd_robustness(args: argparse.Namespace) -> int:
    # Validate everything cheap before opening the cache or sweeping.
    resolve_jobs(args.jobs)
    parse_heuristic_name(args.heuristic)
    families = _split_csv(args.families)
    sizes = [int(s) for s in _split_csv(args.sizes)]
    downtimes = [float(d) for d in _split_csv(args.downtimes)]
    processors = [int(p) for p in _split_csv(args.processors)]
    laws = _split_csv(args.laws)
    shapes = [float(s) for s in _split_csv(args.shapes)]
    sigmas = [float(s) for s in _split_csv(args.sigmas)]
    if not families:
        raise ValueError("at least one family is required")
    if not sizes:
        raise ValueError("at least one size is required")
    if not downtimes:
        raise ValueError("at least one downtime is required")
    if not processors:
        raise ValueError("at least one processor count is required")
    if not laws:
        raise ValueError("at least one failure law is required")
    if args.check and not any(law.strip().lower() == "exponential" for law in laws):
        raise ValueError(
            "--check validates the analytical backend on the exponential rows, "
            "so --laws must include 'exponential'"
        )
    if args.runs <= 1:
        raise ValueError("--runs must be at least 2 (a confidence interval needs variance)")
    for path_arg in (args.output, args.figure):
        if path_arg:
            _check_writable(Path(path_arg).parent)
    with _managed_cache(args) as cache:
        report = run_robustness(
            families,
            sizes=sizes,
            downtimes=downtimes,
            processors=processors,
            laws=laws,
            weibull_shapes=shapes,
            lognormal_sigmas=sigmas,
            n_runs=args.runs,
            heuristic=args.heuristic,
            seed=args.seed,
            mc_seed=args.mc_seed,
            search_mode=args.search_mode,
            max_candidates=args.max_candidates,
            jobs=args.jobs,
            cache=cache,
            progress=args.progress or None,
            backend=args.backend,
        )
    print(report.render())
    _print_cache_summary(cache)
    if args.output:
        path = save_robustness_report(report, args.output)
        print(f"wrote {path} ({len(report.rows)} rows)")
    if args.figure:
        path = plot_robustness(report, args.figure)
        print(f"wrote {path}")
    if args.check and not report.exponential_validated:
        print(
            "error: analytical expectation fell outside the simulation 95% CI "
            "on at least one exponential row",
            file=sys.stderr,
        )
        return 1
    return 0


def _check_writable(directory: Path) -> None:
    """Raise early if ``directory`` (or its closest existing ancestor, when
    it does not exist yet) cannot be written — without creating anything."""
    probe = directory
    while not probe.exists() and probe != probe.parent:
        probe = probe.parent
    if not os.access(probe, os.W_OK | os.X_OK):
        raise ValueError(f"output directory {directory} is not writable")


@contextmanager
def _managed_cache(args: argparse.Namespace):
    """Open the ``--cache`` store for the duration of one sweep command.

    Encodes the whole lifecycle once: open, close on exit, and — when the
    command fails before storing anything — removal of the cache file *and*
    any parent directories this invocation created, so a rejected command
    leaves no trace.  A partially completed sweep keeps what it already
    paid for.
    """
    path = getattr(args, "cache_path", None)
    if path is None:
        yield None
        return
    target = Path(path)
    fresh = not target.exists()
    created_dirs: list[Path] = []
    parent = target.parent
    while not parent.exists() and parent != parent.parent:
        created_dirs.append(parent)
        parent = parent.parent
    cache = ResultCache.open(path)
    try:
        yield cache
    except BaseException:
        if fresh and len(cache) == 0:
            cache.close()
            for suffix in ("", "-wal", "-shm"):
                stray = Path(path + suffix)
                if stray.exists():
                    stray.unlink()
            for directory in created_dirs:  # deepest first
                try:
                    directory.rmdir()
                except OSError:
                    break
        raise
    finally:
        cache.close()


def _print_cache_summary(cache: ResultCache | None) -> None:
    if cache is None:
        return
    stats = cache.stats
    print(
        f"cache: {stats.hits} hits, {stats.misses} misses, "
        f"{stats.puts} new entries (hit rate {stats.hit_rate:.0%})"
    )


def _cmd_figures(args: argparse.Namespace) -> int:
    resolve_jobs(args.jobs)  # reject a bad --jobs before creating any file
    outdir = Path(args.outdir)
    _check_writable(outdir)  # fail fast, before hours of sweep work
    with _managed_cache(args) as cache:
        results = all_figures(
            preset=args.preset,
            seed=args.seed,
            jobs=args.jobs,
            cache=cache,
            progress=args.progress or None,
            backend=args.backend,
        )
    # Create the output tree only once the sweep has succeeded, so a
    # rejected invocation leaves no trace.
    outdir.mkdir(parents=True, exist_ok=True)
    for name, result in results.items():
        path = save_rows_csv(list(result.rows), outdir / f"{name}.csv")
        print(f"wrote {path} ({len(result.rows)} rows) — {result.description}")
    _print_cache_summary(cache)
    return 0


def _split_csv(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _cmd_campaign(args: argparse.Namespace) -> int:
    if getattr(args, "campaign_command", None) == "merge":
        return _cmd_campaign_merge(args)
    # Validate everything cheap *before* opening the cache, so a rejected
    # invocation never leaves a stray cache file behind.
    resolve_jobs(args.jobs)
    heuristics = _split_csv(args.heuristics) or list(HEURISTIC_NAMES)
    for heuristic in heuristics:
        parse_heuristic_name(heuristic)
    if args.search_mode == "geometric":
        # Probe call: raises the library's own ValueError for a bad budget
        # (e.g. --max-candidates 1) before any cache file is created.
        candidate_counts(3, mode="geometric", max_candidates=args.max_candidates)
    families = _split_csv(args.families)
    sizes = [int(s) for s in _split_csv(args.sizes)]
    seeds = [int(s) for s in _split_csv(args.seeds)]
    downtimes = (
        [float(d) for d in _split_csv(args.downtimes)]
        if args.downtimes is not None
        else None
    )
    processors = (
        [int(p) for p in _split_csv(args.processors)]
        if args.processors is not None
        else None
    )
    shard = parse_shard(args.shard) if args.shard else None
    if not families:
        raise ValueError("at least one family is required")
    if not sizes:
        raise ValueError("at least one size is required")
    if not seeds:
        raise ValueError("at least one seed is required")
    if downtimes is not None and not downtimes:
        raise ValueError("at least one downtime is required")
    if processors is not None and not processors:
        raise ValueError("at least one processor count is required")
    for path_arg in (args.output, args.report):
        if path_arg:
            out_parent = Path(path_arg).parent
            if not out_parent.exists():
                raise ValueError(f"output directory {out_parent} does not exist")
            _check_writable(out_parent)
    if args.journal and args.resume and args.journal != args.resume:
        raise ValueError(
            "--journal and --resume point at different files; give only one"
        )
    if args.resume and not Path(args.resume).exists():
        raise ValueError(f"cannot resume: no journal at {args.resume}")
    journal_path = args.resume or args.journal
    if journal_path:
        _check_writable(Path(journal_path).parent)
    if args.preset == "lambda-downtime":
        preset_kwargs = {}
        if downtimes is not None:
            preset_kwargs["downtimes"] = downtimes
        if processors is not None:
            preset_kwargs["processors"] = processors
        scenarios = lambda_downtime_grid(
            families,
            n_tasks=sizes[0],
            checkpoint_mode=args.checkpoint_mode,
            checkpoint_factor=args.checkpoint_factor,
            checkpoint_value=args.checkpoint_value,
            heuristics=heuristics,
            shard=shard,
            **preset_kwargs,
        )
    else:
        scenarios = scenario_grid(
            families,
            sizes,
            downtimes=downtimes if downtimes is not None else (0.0,),
            processors=processors if processors is not None else (1,),
            checkpoint_mode=args.checkpoint_mode,
            checkpoint_factor=args.checkpoint_factor,
            checkpoint_value=args.checkpoint_value,
            heuristics=heuristics,
            label="campaign",
            shard=shard,
        )
    journal = CampaignJournal(journal_path) if journal_path else None
    try:
        with _managed_cache(args) as cache:
            result = run_campaign(
                scenarios,
                seeds=seeds,
                search_mode=args.search_mode,
                max_candidates=args.max_candidates,
                jobs=args.jobs,
                cache=cache,
                progress=args.progress or None,
                backend=args.backend,
                journal=journal,
                max_retries=args.max_retries,
                retry_backoff=args.retry_backoff,
                unit_timeout=args.unit_timeout,
                # A poison unit is reported below instead of sinking the
                # whole campaign.
                quarantine=True,
            )
    except KeyboardInterrupt:
        # Everything completed so far is already fsync'd (journal) and/or
        # committed (cache) — tell the user how to pick it back up.
        print(file=sys.stderr)
        if journal is not None:
            print(
                f"interrupted — {len(journal)} completed unit(s) are safe in "
                f"{journal_path}; resume with: repro campaign ... --resume "
                f"{journal_path}",
                file=sys.stderr,
            )
        else:
            print(
                "interrupted — re-run with --journal PATH to make interrupted "
                "campaigns resumable",
                file=sys.stderr,
            )
        return 130
    finally:
        if journal is not None:
            journal.close()
    print(result.render())
    _print_cache_summary(cache)
    if args.output:
        # A sharded run stamps its output with the shard marker, so 'repro
        # campaign merge' can check that the shard set it is given is
        # complete; full-campaign outputs stay unmarked (bytes unchanged).
        path = save_rows_csv(list(result.rows), args.output, shard=shard)
        print(f"wrote {path} ({len(result.rows)} rows)")
    if args.report:
        path = Path(args.report)
        path.write_text(result.render() + "\n")
        print(f"wrote {path}")
    if result.failures:
        print(
            f"warning: {len(result.failures)} unit(s) quarantined after repeated "
            "failures (their rows are absent above):",
            file=sys.stderr,
        )
        for failure in result.failures:
            print(f"  - {failure.describe()}", file=sys.stderr)
        return 3
    return 0


def _check_shard_completeness(markers: list[tuple[str, tuple[int, int] | None]]) -> None:
    """Refuse a merge whose marked shard inputs do not cover 1..N exactly.

    Engages only when at least one input carries a ``# repro-shard`` marker
    (older CSVs and full-campaign outputs are unmarked and merge as before).
    Errors name the offending shard or the exact gap, so a shell-glob
    mistake is a one-line diagnosis rather than a silently wrong table.
    """
    marked = [(path, marker) for path, marker in markers if marker is not None]
    if not marked:
        return
    counts = {marker[1] for _, marker in marked}
    if len(counts) > 1:
        raise ValueError(
            "shard-marked inputs disagree on the shard count: "
            + ", ".join(f"{path} says {k}/{n}" for path, (k, n) in marked)
        )
    count = counts.pop()
    seen_shards: dict[int, str] = {}
    for path, (index, _) in marked:
        if index in seen_shards:
            raise ValueError(
                f"shard {index}/{count} appears twice in the merge inputs "
                f"({seen_shards[index]} and {path})"
            )
        seen_shards[index] = path
    missing = sorted(set(range(1, count + 1)) - set(seen_shards))
    if missing:
        gaps = ", ".join(f"{k}/{count}" for k in missing)
        raise ValueError(
            f"incomplete shard set: missing shard(s) {gaps} "
            f"(got {len(seen_shards)} of {count} marked inputs)"
        )


def _cmd_campaign_merge(args: argparse.Namespace) -> int:
    # Same upfront guard as the sweep path: a rejected invocation must not
    # print a table or leave a partial output file behind.
    for path_arg in (args.output, args.report):
        if path_arg:
            out_parent = Path(path_arg).parent
            if not out_parent.exists():
                raise ValueError(f"output directory {out_parent} does not exist")
            _check_writable(out_parent)
    rows = []
    markers: list[tuple[str, tuple[int, int] | None]] = []
    for csv_path in args.csvs:
        text = Path(csv_path).read_text()
        markers.append((str(csv_path), read_shard_marker(text)))
        rows.extend(rows_from_csv(text))
    _check_shard_completeness(markers)
    if not rows:
        raise ValueError("the given CSV files contain no result rows")
    # Overlapping inputs (a shard listed twice, a glob that caught a
    # previous merged.csv) would silently double-count every duplicated
    # row in the aggregation; the identity tuple makes them detectable.
    seen: set = set()
    for row in rows:
        identity = row_identity(row)
        if identity in seen:
            raise ValueError(
                "duplicate result row across the given CSV files "
                f"(e.g. {row.family} n={row.n_tasks} seed={row.seed} "
                f"{row.heuristic}); was the same shard passed twice?"
            )
        seen.add(identity)
    # Aggregation runs over the rows in shard-file order: every (grid point,
    # heuristic) group lives entirely inside one shard (shards split whole
    # scenarios), so the group-internal member order — and therefore the
    # floating-point sums — match the unsharded run exactly.
    result = CampaignResult.from_rows(rows)
    print(result.render())
    if args.output:
        merged = sorted(result.rows, key=row_identity)
        path = save_rows_csv(merged, args.output)
        print(f"wrote {path} ({len(merged)} rows)")
    if args.report:
        path = Path(args.report)
        path.write_text(result.render() + "\n")
        print(f"wrote {path}")
    return 0


def _cmd_fabric(args: argparse.Namespace) -> int:
    if args.fabric_command == "coordinate":
        return _cmd_fabric_coordinate(args)
    if args.fabric_command == "work":
        return _cmd_fabric_work(args)
    return _cmd_fabric_cache_server(args)


def _cmd_fabric_coordinate(args: argparse.Namespace) -> int:
    # Lazy import: the fabric layer pulls in the service metrics registry,
    # which no other sub-command needs.
    from .experiments.fabric import FabricCoordinator, FabricSpec

    # The same cheap upfront validation as 'repro campaign': a rejected
    # invocation must not bind a port or create a journal file.
    heuristics = _split_csv(args.heuristics)
    for heuristic in heuristics:
        parse_heuristic_name(heuristic)
    if args.search_mode == "geometric":
        candidate_counts(3, mode="geometric", max_candidates=args.max_candidates)
    families = _split_csv(args.families)
    sizes = [int(s) for s in _split_csv(args.sizes)]
    seeds = [int(s) for s in _split_csv(args.seeds)]
    downtimes = (
        tuple(float(d) for d in _split_csv(args.downtimes))
        if args.downtimes is not None
        else None
    )
    processors = (
        tuple(int(p) for p in _split_csv(args.processors))
        if args.processors is not None
        else None
    )
    for path_arg in (args.output, args.report, args.metrics_output):
        if path_arg:
            out_parent = Path(path_arg).parent
            if not out_parent.exists():
                raise ValueError(f"output directory {out_parent} does not exist")
            _check_writable(out_parent)
    if args.journal and args.resume and args.journal != args.resume:
        raise ValueError(
            "--journal and --resume point at different files; give only one"
        )
    if args.resume and not Path(args.resume).exists():
        raise ValueError(f"cannot resume: no journal at {args.resume}")
    journal_path = args.resume or args.journal
    if journal_path:
        _check_writable(Path(journal_path).parent)
    spec = FabricSpec(
        families=tuple(families),
        sizes=tuple(sizes),
        downtimes=downtimes,
        processors=processors,
        preset=args.preset,
        seeds=tuple(seeds),
        heuristics=tuple(heuristics),
        checkpoint_mode=args.checkpoint_mode,
        checkpoint_factor=args.checkpoint_factor,
        checkpoint_value=args.checkpoint_value,
        search_mode=args.search_mode,
        max_candidates=args.max_candidates,
        n_shards=args.shards,
    )
    coordinator = FabricCoordinator(
        spec,
        host=args.host,
        port=args.port,
        ttl=args.ttl,
        max_attempts=args.max_attempts,
        journal=journal_path,
        cache_endpoint=args.cache_server,
        backend=args.backend,
    )
    done = len(coordinator.queue.done)
    if done:
        print(f"resumed: {done}/{spec.n_shards} shard(s) already journaled")
    coordinator.start()
    print(
        f"fabric coordinator listening on {coordinator.endpoint} "
        f"({spec.n_shards} shards, ttl {args.ttl:g}s); start workers with: "
        f"repro fabric work --coordinator {coordinator.endpoint}",
        flush=True,
    )
    try:
        coordinator.serve(timeout=args.timeout)
    except KeyboardInterrupt:
        print(file=sys.stderr)
        if journal_path:
            print(
                f"interrupted — completed shards are safe in {journal_path}; "
                f"resume with: repro fabric coordinate ... --resume {journal_path}",
                file=sys.stderr,
            )
        else:
            print(
                "interrupted — re-run with --journal PATH to make interrupted "
                "fabric campaigns resumable",
                file=sys.stderr,
            )
        return 130
    finally:
        if args.metrics_output:
            Path(args.metrics_output).write_text(coordinator.registry.render())
        coordinator.close()
    result = coordinator.result()
    print(result.render())
    if args.output:
        merged = sorted(result.rows, key=row_identity)
        path = save_rows_csv(merged, args.output)
        print(f"wrote {path} ({len(merged)} rows)")
    if args.report:
        path = Path(args.report)
        path.write_text(result.render() + "\n")
        print(f"wrote {path}")
    failures = coordinator.failures
    if failures:
        # The same quarantine contract as 'repro campaign': exit 3 plus a
        # structured stderr block naming what is absent from the table.
        print(
            f"warning: {len(failures)} shard(s) quarantined after repeated "
            "failures (their rows are absent above):",
            file=sys.stderr,
        )
        for lease in failures:
            print(f"  - {lease.describe()}", file=sys.stderr)
        return 3
    return 0


def _cmd_fabric_work(args: argparse.Namespace) -> int:
    from .experiments.fabric import FabricError, FabricWorker

    resolve_jobs(args.jobs)  # reject a bad --jobs before dialing out
    worker = FabricWorker(
        args.coordinator,
        name=args.name,
        jobs=args.jobs,
        local_cache_path=args.cache_path,
        backend=args.backend,
        poll=args.poll,
        on_event=lambda message: print(message, file=sys.stderr, flush=True),
    )
    try:
        completed = worker.run(max_shards=args.max_shards)
    except FabricError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"completed {completed} shard(s)")
    return 0


def _cmd_fabric_cache_server(args: argparse.Namespace) -> int:
    from .runtime.cachenet import CacheNetServer

    server = CacheNetServer(DiskCache(args.cache_path), host=args.host, port=args.port)
    print(
        f"fabric cache server listening on {server.endpoint} "
        f"(cache {args.cache_path}); point workers at it with: "
        f"repro fabric coordinate --cache-server {server.endpoint}",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\ninterrupted", file=sys.stderr)
        return 0
    finally:
        server.stop()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    # Lazy import: the service package pulls in asyncio plumbing no other
    # sub-command needs.
    from .service import ServiceConfig, run_server

    resolve_jobs(args.jobs)  # reject a bad --jobs before binding the socket
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        workers=args.workers,
        cache_path=args.cache_path,
        backend=args.backend,
        batch_window=args.batch_window,
        queue_max=args.queue_max,
        request_timeout=args.request_timeout,
        group_retries=args.group_retries,
    )
    return run_server(
        config,
        announce=lambda url: print(f"repro service listening on {url}", flush=True),
    )


def _cmd_cache(args: argparse.Namespace) -> int:
    path = Path(args.path)
    if args.cache_command == "stats":
        try:
            stats = read_disk_stats(path)
        except FileNotFoundError:
            print(f"no cache file at {path}", file=sys.stderr)
            return 1
        print(json.dumps(stats, indent=2))
        return 0
    if not path.exists():
        print(f"no cache file at {path}", file=sys.stderr)
        return 1
    read_disk_stats(path)  # refuse (read-only) before mutating a foreign file
    disk = DiskCache(path)
    try:
        removed = disk.clear()
    finally:
        disk.close()
    print(f"removed {removed} entries from {path}")
    return 0


def _cmd_backends(args: argparse.Namespace) -> int:
    """List registered evaluation backends (the registry's describe rows)."""
    rows = BACKEND_REGISTRY.describe(n_tasks=args.tasks)
    resolved: str | None = None
    resolve_error: str | None = None
    try:
        resolved = BACKEND_REGISTRY.resolve("auto", n_tasks=args.tasks).name
    except ValueError as exc:  # no available backend at all
        resolve_error = str(exc)
    if args.json_output:
        payload: dict = {"backends": rows}
        if args.tasks is not None:
            payload["n_tasks"] = args.tasks
        if resolved is not None:
            payload["auto"] = resolved
        else:
            # The same {"error": {"code", "message"}} shape --json error
            # reporting uses, nested so the listing still comes through.
            payload["auto"] = None
            payload["error"] = {"code": "no-backend", "message": resolve_error}
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    name_width = max(len(row["name"]) for row in rows)
    for row in rows:
        status = "available" if row["available"] else "unavailable"
        line = (
            f"{row['name']:<{name_width}}  {status:<11}  "
            f"priority={row['priority']:<3} "
            f"min_auto_tasks={row['min_auto_tasks']:<3} "
            f"capabilities={','.join(row['capabilities'])}"
        )
        print(line)
        if not row["available"]:
            print(f"{'':<{name_width}}  reason: {row['unavailable_reason']}")
    if resolved is not None:
        suffix = f" for n_tasks={args.tasks}" if args.tasks is not None else ""
        print(f"auto resolves to: {resolved}{suffix}")
    else:
        print(f"auto resolves to: error ({resolve_error})")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """Run reprolint.  Exit codes: 0 clean, 1 findings, 2 usage/internal."""
    # Lazy import: devtools is contributor/CI tooling and must not tax the
    # startup of every other subcommand.
    from .devtools import reprolint as rl
    from .devtools.reprolint.rules.cache_keys import compute_lock_for_paths

    try:
        if args.list_rules:
            for rule_id in sorted(rl.RULES):
                rule = rl.RULES[rule_id]
                print(f"{rule_id}  {rule.name} [{rule.scope}]")
                print(f"       {rule.invariant}")
            return 0

        repo_root = Path(args.repo_root).resolve()
        paths = [Path(p) for p in args.paths]
        if not paths:
            default = repo_root / "src" / "repro"
            if not default.is_dir():
                raise rl.LintError(
                    f"no paths given and {default} does not exist; pass the "
                    f"directories to lint explicitly"
                )
            paths = [default]

        if args.write_key_lock:
            ctx, schema = compute_lock_for_paths(
                paths, repo_root, key_lock_path_override=args.key_lock
            )
            if schema is None:
                raise rl.LintError(
                    "the linted tree has no runtime/keys.py; cannot lock a "
                    "key schema"
                )
            target = rl.write_key_lock(
                ctx, Path(args.key_lock) if args.key_lock else None
            )
            print(f"key schema locked in {target}")
            return 0

        config: dict[str, object] = {}
        if args.key_lock:
            config["key_lock_path"] = args.key_lock
        # When (re)writing the baseline, the file is allowed not to exist
        # yet; in read mode a missing path is a hard error (typo guard).
        baseline = None
        if args.baseline and not args.write_baseline:
            baseline = rl.load_baseline(Path(args.baseline))
        only_rules = (
            [r.strip() for r in args.rules.split(",") if r.strip()]
            if args.rules
            else None
        )
        result = rl.run_lint(
            paths,
            repo_root=repo_root,
            baseline=baseline,
            only_rules=only_rules,
            config=config,
        )

        if args.write_baseline:
            if not args.baseline:
                raise rl.LintError("--write-baseline requires --baseline PATH")
            rl.write_baseline(Path(args.baseline), result)
            print(
                f"baseline written to {args.baseline} "
                f"({len(result.findings)} finding(s) grandfathered)"
            )
            return 0

        report = (
            rl.render_json(result)
            if args.format == "json"
            else rl.render_text(result)
        )
        if args.output:
            Path(args.output).write_text(report, encoding="utf-8")
        else:
            sys.stdout.write(report)
        return 0 if result.clean else 1
    except rl.LintError as exc:
        print(f"repro lint: error: {exc}", file=sys.stderr)
        return 2


_COMMANDS = {
    "generate": _cmd_generate,
    "solve": _cmd_solve,
    "evaluate": _cmd_evaluate,
    "analyse": _cmd_analyse,
    "simulate": _cmd_simulate,
    "robustness": _cmd_robustness,
    "figures": _cmd_figures,
    "campaign": _cmd_campaign,
    "fabric": _cmd_fabric,
    "serve": _cmd_serve,
    "backends": _cmd_backends,
    "lint": _cmd_lint,
    "cache": _cmd_cache,
}


#: Machine-readable error codes of ``--json`` mode, by exception type.  The
#: same ``{"error": {"code", "message"}}`` shape the service daemon returns,
#: so one client-side parser covers CLI and HTTP failures.
_JSON_ERROR_CODES = (
    (sqlite3.DatabaseError, "cache-error"),
    (OSError, "io-error"),
    (ValueError, "bad-request"),
)


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _COMMANDS[args.command]
    try:
        return handler(args)
    except KeyboardInterrupt:
        # Sub-commands with state to save (campaign) handle the interrupt
        # themselves; this is the fallback for everything else.  130 is the
        # conventional 128+SIGINT exit code.
        print("\ninterrupted", file=sys.stderr)
        return 130
    except (ValueError, OSError, sqlite3.DatabaseError) as exc:
        # Routine bad input (unknown family/heuristic, empty seed list,
        # missing/corrupt/unwritable file) gets a one-line message, not a
        # traceback.
        # The library signals every one of these with ValueError, so the
        # blanket catch is the price of clean messages; REPRO_DEBUG=1
        # re-raises for debugging an unexpected ValueError from deeper in
        # the stack.
        if os.environ.get("REPRO_DEBUG", "").lower() in ("1", "true", "yes"):
            raise
        if getattr(args, "json_errors", False):
            code = next(
                code for kind, code in _JSON_ERROR_CODES if isinstance(exc, kind)
            )
            print(
                json.dumps({"error": {"code": code, "message": str(exc)}}),
                file=sys.stderr,
            )
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
