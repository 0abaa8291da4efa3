"""Workload inputs, the paper-sweep driver and the output checks.

Everything a workload feeds the program is a pure function of the workload
seed (and, for the batch workloads, the pass index), so the same seed gives
the same inputs.  This module is imported by the benchmark process (inputs
and checks) and by the program process (the paper-sweep driver); it imports
``repro`` only inside the functions that need it.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass

FAMILIES = ("montage", "ligo", "cybershake", "genome")
PARAMETERISED = ("CkptW", "CkptC", "CkptD", "CkptPer")


@dataclass(frozen=True)
class Scale:
    """Sizes of one benchmark scale (``full`` is what BENCHMARK.json runs)."""

    # paper-sweep: the Figure-3 setting, exhaustive count search.
    sweep_families: tuple[str, ...]
    sweep_tasks: int
    # campaign-small: family x size x 3 seeds x all 14 heuristics.
    campaign_families: tuple[str, ...]
    campaign_sizes: tuple[int, ...]
    # serve-open: fresh instance sizes and the open-loop request rate.
    serve_sizes: tuple[int, ...]
    serve_rate: float
    # Nominal seconds of one pass; a run repeats the same pass
    # round(seconds / nominal) times (at least once).
    sweep_pass_s: float
    campaign_pass_s: float
    # Set-up samples taken per run (setup_s is their median).
    setup_samples: int


SCALES = {
    "full": Scale(
        sweep_families=("montage", "cybershake"),
        sweep_tasks=300,
        campaign_families=FAMILIES,
        campaign_sizes=(20, 30, 60),
        serve_sizes=(40, 60, 100),
        serve_rate=10.0,
        sweep_pass_s=7.0,
        campaign_pass_s=9.0,
        setup_samples=9,
    ),
    "tiny": Scale(
        sweep_families=("montage",),
        sweep_tasks=40,
        campaign_families=("montage",),
        campaign_sizes=(20,),
        serve_sizes=(40,),
        serve_rate=20.0,
        sweep_pass_s=1.0,
        campaign_pass_s=1.0,
        setup_samples=2,
    ),
}

SWEEP_HEURISTICS = (
    "DF-CkptNvr",
    "DF-CkptAlws",
    "DF-CkptW",
    "DF-CkptC",
    "DF-CkptD",
    "DF-CkptPer",
)
SWEEP_FAILURE_RATE = 1e-3
CHECKPOINT_FACTOR = 0.1
#: Relative agreement required between a winner's reported expected
#: makespan and its re-score on the numpy backend.
RESCORE_RTOL = 1e-9


def instance_seed(seed: int) -> int:
    """Instance seed of every pass of a run with workload seed ``seed``."""
    return seed * 1000


# ----------------------------------------------------------------------
# paper-sweep
# ----------------------------------------------------------------------


def run_paper_sweep(scale: Scale, instance_seed: int, unit=None) -> list[dict]:
    """Solve every (family, heuristic) unit of one paper-sweep pass.

    Runs in the program process.  Each unit is one ``solve_heuristic``
    call with the paper's exhaustive counts; the search it runs is recorded
    by :func:`record_searches`, so the result keeps the search's
    ``evaluated`` map for the output check.  ``unit`` optionally wraps each
    unit (the traced run marks unit spans with it).
    """
    from repro.experiments import scenarios
    from repro.heuristics.registry import solve_heuristic
    from repro.heuristics.search import candidate_counts

    searches = record_searches()

    def solve(workflow, platform, heuristic, counts):
        searches.clear()
        result = solve_heuristic(
            workflow, platform, heuristic, rng=instance_seed, counts=counts
        )
        evaluated = None
        if searches:
            outcome = searches[-1]
            evaluated = {str(k): v for k, v in sorted(outcome.evaluated.items())}
        return {
            "heuristic": heuristic,
            "order": list(result.schedule.order),
            "checkpointed": sorted(result.schedule.checkpointed),
            "expected_makespan": result.expected_makespan,
            "evaluated": evaluated,
        }

    if unit is not None:
        solve = unit(solve)
    records = []
    for family in scale.sweep_families:
        scenario = sweep_scenario(family, scale, instance_seed)
        workflow = scenarios.build_workflow(scenario)
        counts = candidate_counts(workflow.n_tasks, mode="exhaustive")
        for heuristic in SWEEP_HEURISTICS:
            record = solve(workflow, scenario.platform, heuristic, counts)
            record.update(family=family, seed=instance_seed, n_tasks=workflow.n_tasks)
            records.append(record)
    return records


def record_searches() -> list:
    """Record the outcome of every ``search_checkpoint_count`` call.

    Points every reference to the search at a thin wrapper that appends
    each outcome to the returned list; the program's own code path is
    otherwise untouched.
    """
    import functools

    import spans
    from repro.heuristics import search

    original = search.search_checkpoint_count
    outcomes: list = []

    @functools.wraps(original)
    def recording(*args, **kwargs):
        outcome = original(*args, **kwargs)
        outcomes.append(outcome)
        return outcome

    spans.replace_everywhere(original, recording)
    return outcomes


def sweep_scenario(family: str, scale: Scale, instance_seed: int):
    from repro.experiments.scenarios import Scenario

    return Scenario(
        family=family,
        n_tasks=scale.sweep_tasks,
        failure_rate=SWEEP_FAILURE_RATE,
        checkpoint_factor=CHECKPOINT_FACTOR,
        seed=instance_seed,
    )


def check_paper_sweep(records: list[dict], scale: Scale, instance_seed: int) -> tuple[int, list[str]]:
    """(units attempted, failure messages) of one paper-sweep pass.

    Re-scores every winner on the numpy backend and requires the search to
    have priced every count 0..n.
    """
    from repro.core.evaluator import evaluate_schedule
    from repro.core.schedule import Schedule
    from repro.experiments.scenarios import build_workflow

    expected = {(f, h) for f in scale.sweep_families for h in SWEEP_HEURISTICS}
    failures: list[str] = []
    seen = set()
    workflows = {}
    for record in records:
        ident = (record["family"], record["heuristic"])
        seen.add(ident)
        label = f"paper-sweep {ident[0]} {ident[1]} seed={instance_seed}"
        if ident not in expected or record["seed"] != instance_seed:
            failures.append(f"{label}: unexpected unit")
            continue
        scenario = sweep_scenario(record["family"], scale, instance_seed)
        if record["family"] not in workflows:
            workflows[record["family"]] = build_workflow(scenario)
        workflow = workflows[record["family"]]
        reported = record["expected_makespan"]
        try:
            schedule = Schedule(workflow, record["order"], record["checkpointed"])
            rescored = evaluate_schedule(
                schedule, scenario.platform, backend="numpy"
            ).expected_makespan
        except ValueError as exc:
            failures.append(f"{label}: winner does not re-score ({exc})")
            continue
        if not (
            math.isfinite(reported)
            and abs(rescored - reported) <= RESCORE_RTOL * abs(reported)
        ):
            failures.append(
                f"{label}: reported {reported!r} but numpy re-scores {rescored!r}"
            )
        evaluated = record["evaluated"]
        if ident[1].endswith(PARAMETERISED) and evaluated is None:
            failures.append(f"{label}: no count search ran")
        elif evaluated is not None:
            counts = sorted(int(k) for k in evaluated)
            if counts != list(range(workflow.n_tasks + 1)):
                failures.append(f"{label}: search skipped counts of 0..{workflow.n_tasks}")
            elif reported != min(evaluated.values()):
                failures.append(f"{label}: winner is not the minimum over all counts")
    missing = expected - seen
    if missing:
        failures.append(f"paper-sweep seed={instance_seed}: {len(missing)} unit(s) missing")
    return len(expected), failures


# ----------------------------------------------------------------------
# campaign-small
# ----------------------------------------------------------------------


def campaign_seeds(instance_seed: int) -> tuple[int, int, int]:
    return (instance_seed, instance_seed + 1, instance_seed + 2)


def campaign_argv(scale: Scale, instance_seed: int, workdir: str) -> list[str]:
    """``repro campaign`` arguments of one pass (fresh files in ``workdir``)."""
    return [
        "campaign",
        "--families", ",".join(scale.campaign_families),
        "--sizes", ",".join(str(n) for n in scale.campaign_sizes),
        "--seeds", ",".join(str(s) for s in campaign_seeds(instance_seed)),
        "--search-mode", "geometric",
        "--jobs", "1",
        "--cache", f"{workdir}/cache.sqlite",
        "--journal", f"{workdir}/journal.jsonl",
        "--report", f"{workdir}/report.txt",
        "--output", f"{workdir}/rows.csv",
    ]


def check_campaign(
    rows_csv: str, report: str, exit_code: int, scale: Scale, instance_seed: int
) -> tuple[int, list[str], str]:
    """(units attempted, failure messages, report digest) of one pass."""
    from repro.heuristics import HEURISTIC_NAMES

    expected = {
        (f, n, s, h)
        for f in scale.campaign_families
        for n in scale.campaign_sizes
        for s in campaign_seeds(instance_seed)
        for h in HEURISTIC_NAMES
    }
    failures: list[str] = []
    label = f"campaign-small seed={instance_seed}"
    if exit_code != 0:
        failures.append(f"{label}: repro campaign exited {exit_code} (3 = quarantined units)")
    rows = list(csv.DictReader(io.StringIO(rows_csv)))
    seen = set()
    for row in rows:
        ident = (row["family"], int(row["n_tasks"]), int(row["seed"]), row["heuristic"])
        seen.add(ident)
        ratio = float(row["overhead_ratio"])
        if not (math.isfinite(ratio) and ratio >= 1.0):
            failures.append(f"{label}: {ident} has overhead ratio {ratio!r}")
    if len(rows) != len(expected) or seen != expected:
        failures.append(
            f"{label}: {len(rows)} rows ({len(seen & expected)} of "
            f"{len(expected)} expected units)"
        )
    if not report.strip():
        failures.append(f"{label}: empty report")
    digest = hashlib.sha256(report.encode()).hexdigest()[:16]
    return len(expected), failures, digest


# ----------------------------------------------------------------------
# serve-open
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Request:
    """One request of the open-loop stream."""

    due: float  # seconds after the stream start
    body: str  # JSON body of POST /v1/solve
    fresh: bool  # False when this body was already sent in this stream
    sample: bool  # fresh requests also checked against a direct solve


def serve_stream(scale: Scale, seed: int) -> list[Request]:
    """The open-loop request stream sent to each serve-open server.

    Slots are due every ``1 / rate`` seconds in threes: two fresh requests
    that share an instance (and a linearization, so the planner may merge
    them into one sweep when they land in one batch), then a repeat of a
    body sent at least one second earlier.  The stream visits every
    (family, size, linearization) cell once, and every pair of distinct
    checkpointing strategies equally often, so every seed offers the same
    mix of work.
    """
    rng = random.Random(seed)
    cells = [
        (family, n_tasks, lin)
        for family in FAMILIES
        for n_tasks in scale.serve_sizes
        for lin in ("DF", "BF", "RF")
    ]
    strategy_pairs = list(itertools.combinations(PARAMETERISED, 2))
    order = list(cells)
    rng.shuffle(order)
    pairs = (strategy_pairs * -(-len(cells) // len(strategy_pairs)))[: len(cells)]
    rng.shuffle(pairs)
    sent_fresh: list[tuple[float, str]] = []
    requests: list[Request] = []
    for index, ((family, n_tasks, lin), strategies) in enumerate(zip(order, pairs)):
        instance = seed * 100000 + index
        for offset, strategy in enumerate(strategies):
            due = (3 * index + offset) / scale.serve_rate
            body = json.dumps(
                {"family": family, "n_tasks": n_tasks, "seed": instance,
                 "heuristic": f"{lin}-{strategy}"},
                sort_keys=True,
            )
            sample = len(sent_fresh) % 10 == 0
            requests.append(Request(due, body, fresh=True, sample=sample))
            sent_fresh.append((due, body))
        due = (3 * index + 2) / scale.serve_rate
        older = [body for sent, body in sent_fresh if sent <= due - 1.0]
        requests.append(
            Request(due, rng.choice(older or [sent_fresh[0][1]]), fresh=False, sample=False)
        )
    return requests


def warmup_body(seed: int) -> str:
    """A solve outside the stream (its own instance) that warms the server."""
    return json.dumps(
        {"family": "montage", "n_tasks": 40, "seed": seed * 100000 + 99999,
         "heuristic": "DF-CkptW"},
        sort_keys=True,
    )


#: Response fields that must be identical between a repeat and its first
#: answer, and between a sampled response and the direct solve.
ANSWER_FIELDS = (
    "actual_n_tasks",
    "expected_makespan",
    "failure_free_work",
    "overhead_ratio",
    "n_checkpointed",
)


def check_serve(results: list[dict]) -> list[str]:
    """Failure messages of one serve-open stream.

    ``results`` holds, per request: ``body``, ``fresh``, ``sample``,
    ``status`` (None when the request timed out or failed) and ``response``
    (the decoded JSON body).
    """
    failures: list[str] = []
    first_answer: dict[str, dict] = {}
    sampled: list[tuple[str, dict]] = []
    for index, result in enumerate(results):
        body = result["body"]
        if result["status"] != 200:
            failures.append(f"serve-open request {index}: status {result['status']}")
            continue
        answer = {field: result["response"].get(field) for field in ANSWER_FIELDS}
        if body in first_answer:
            if answer != first_answer[body]:
                failures.append(
                    f"serve-open request {index}: repeat answer differs from the first"
                )
        else:
            first_answer[body] = answer
        if result["sample"]:
            sampled.append((body, answer))
    failures.extend(_check_direct(sampled))
    return failures


def _check_direct(sampled: list[tuple[str, dict]]) -> list[str]:
    """Compare sampled responses with a direct ``solve_heuristic`` call."""
    failures = []
    for body, answer in sampled:
        direct = direct_answer(body)
        if answer != direct:
            failures.append(f"serve-open {body}: response {answer} != direct {direct}")
    return failures


def direct_answer(body: str) -> dict:
    """The answer fields of a direct ``solve_heuristic`` call for a body."""
    from repro.experiments.scenarios import build_workflow
    from repro.heuristics.registry import solve_heuristic
    from repro.heuristics.search import candidate_counts
    from repro.service.schema import parse_solve_request

    request = parse_solve_request(json.loads(body))
    scenario = request.scenario
    workflow = build_workflow(scenario)
    result = solve_heuristic(
        workflow,
        scenario.platform,
        request.heuristic,
        rng=scenario.seed,
        counts=candidate_counts(
            workflow.n_tasks,
            mode=request.search_mode,
            max_candidates=request.max_candidates,
        ),
    )
    return {
        "actual_n_tasks": workflow.n_tasks,
        "expected_makespan": result.expected_makespan,
        "failure_free_work": result.evaluation.failure_free_work,
        "overhead_ratio": result.overhead_ratio,
        "n_checkpointed": result.checkpoint_count,
    }
