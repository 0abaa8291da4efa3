"""Span tracer for the traced benchmark run, and the per-layer metrics.

The tracer lives in the benchmark, not in the program: :func:`install`
wraps the public calls of each layer (see :data:`LAYERS`) from the outside,
after the program's modules are imported.  Every wrapped call records one
span -- name, start, end, parent span, unit id -- in memory; :func:`install`
returns a :class:`Tracer` whose :meth:`Tracer.write` dumps the spans as
JSON lines when the program is done.  :func:`layer_metrics` turns a span
file back into the per-layer metrics declared in ``BENCHMARK.json``.

A layer's self time is the duration of its spans minus the time covered by
their child spans.  Parents are tracked per thread and per asyncio task
(a :class:`contextvars.ContextVar`), so the service's worker threads and
event-loop tasks each get a correct span tree.
"""

from __future__ import annotations

import collections
import contextvars
import functools
import inspect
import itertools
import json
import statistics
import sys
import threading
import time

#: Span name -> layer.  The span names are the wrapped calls.
LAYERS = {
    "workflows.generate": "workflows",
    "workflows.with_checkpoint_costs": "workflows",
    "heuristics.linearize": "heuristics.linearization",
    "heuristics.selector": "heuristics.checkpointing",
    "heuristics.search": "heuristics.search",
    "experiments.run_heuristic": "experiments.harness",
    "core.sweep.init": "core.sweep",
    "core.sweep.evaluate": "core.sweep",
    "core.evaluator_native.fill_rows": "core.evaluator_native",
    "core.evaluator_native.theorem3_kernel": "core.evaluator_native",
    "core.evaluator.python": "core.evaluator",
    "core.evaluator.native": "core.evaluator",
    "core.evaluator.numpy": "core.evaluator",
    "runtime.keys.scenario_unit_key": "runtime.keys",
    "runtime.keys.workflow_fingerprint": "runtime.keys",
    "runtime.cache.get": "runtime.cache",
    "runtime.cache.put": "runtime.cache",
    "runtime.journal.record": "runtime.journal",
    "experiments.reporting.aggregate_rows": "experiments.reporting",
    "experiments.reporting.rows_to_csv": "experiments.reporting",
    "experiments.reporting.render": "experiments.reporting",
    "service.app.route": "service.app",
    "service.batcher.submit": "service.batcher",
    "service.batcher.queue_wait": "service.batcher",
    "service.planner.solve_batch": "service.planner",
    "perfbench.unit": "perfbench",
}

#: Spans that time a wait, not work (kept out of the self-time table).
WAITS = frozenset({"service.batcher.submit", "service.batcher.queue_wait"})


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.sweep_stats: list = []
        self.ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=(0, 0)
        )
        self.lock = threading.Lock()

    def record(self, name: str, start: float, end: float, info=None) -> None:
        """Record an interval that is not a call (a wait), with no parent."""
        self.spans.append((next(self.ids), 0, name, start, end, 0, info))

    def wrap(self, name, fn, *, root: bool = False, name_of=None, info=None):
        """A wrapper of ``fn`` recording one span per call.

        ``root`` starts a new unit id (the span's own id) for everything the
        call does; ``name_of(args, kwargs)`` picks the span name per call;
        ``info(args, kwargs, result)`` returns extra fields for the span
        (or None).
        """
        current = self._current
        ids = self.ids
        spans = self.spans

        def enter(args, kwargs):
            parent, unit = current.get()
            span_id = next(ids)
            if root:
                unit = span_id
            token = current.set((span_id, unit))
            span_name = name if name_of is None else name_of(args, kwargs)
            return span_id, parent, unit, token, span_name

        def leave(span, start, args, kwargs, result):
            span_id, parent, unit, token, span_name = span
            end = time.perf_counter()
            current.reset(token)
            extra = None if info is None or result is _FAILED else info(args, kwargs, result)
            spans.append((span_id, parent, span_name, start, end, unit, extra))

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                span = enter(args, kwargs)
                start = time.perf_counter()
                result = _FAILED
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    leave(span, start, args, kwargs, result)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = enter(args, kwargs)
            start = time.perf_counter()
            result = _FAILED
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                leave(span, start, args, kwargs, result)

        return wrapper

    def write(self, path: str) -> None:
        """Write every span, then the summed sweep counters, as JSON lines."""
        sweep = collections.Counter()
        for stats in self.sweep_stats:
            for field in _SWEEP_FIELDS:
                sweep[field] += getattr(stats, field)
        with open(path, "w", encoding="utf-8") as out:
            for span_id, parent, name, start, end, unit, extra in self.spans:
                record = {
                    "id": span_id,
                    "parent": parent,
                    "name": name,
                    "start": start,
                    "end": end,
                    "unit": unit,
                }
                if extra:
                    record["info"] = extra
                out.write(json.dumps(record) + "\n")
            out.write(json.dumps({"kind": "sweep_stats", "totals": dict(sweep)}) + "\n")


#: Result placeholder of a call that raised (its span gets no info).
_FAILED = object()


_SWEEP_FIELDS = (
    "evaluations",
    "full_recomputes",
    "toggles",
    "rows_refilled",
    "rows_restored",
    "rows_skipped",
    "kernel_positions",
    "fill_seconds",
    "kernel_seconds",
)


def replace_everywhere(original, wrapped) -> None:
    """Point every module-level reference to ``original`` at ``wrapped``.

    Covers the defining module and every ``from x import name`` copy in the
    loaded ``repro`` modules.  Function-local imports, and the benchmark's
    own drivers, read the defining module at call time, so they see the
    wrapper too.
    """
    for module_name, module in list(sys.modules.items()):
        if module is None:
            continue
        if module_name != "repro" and not module_name.startswith("repro."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)


def install(kernels=None) -> Tracer:
    """Wrap every layer's public calls; returns the recording tracer.

    ``kernels`` is the loaded :class:`repro.core.evaluator_native.NativeKernels`
    (or ``None`` without a native backend); its two C entry points are
    wrapped on the instance every sweep shares.
    """
    import repro.cli  # noqa: F401  (loads every module the CLI uses)
    import repro.service.app  # noqa: F401
    from repro.core import backend as core_backend
    from repro.core import dag, evaluator, sweep
    from repro.experiments import campaign, harness, reporting
    from repro.heuristics import checkpointing, linearization, search
    from repro.runtime import cache, journal, keys
    from repro.service import app, batcher, planner
    from repro.workflows import pegasus

    tracer = Tracer()

    def patch_function(module, attr, span, **options):
        original = getattr(module, attr)
        replace_everywhere(original, tracer.wrap(span, original, **options))

    def patch_method(cls, attr, span, **options):
        setattr(cls, attr, tracer.wrap(span, getattr(cls, attr), **options))

    patch_function(pegasus, "generate", "workflows.generate")
    patch_method(dag.Workflow, "with_checkpoint_costs", "workflows.with_checkpoint_costs")
    patch_function(linearization, "linearize", "heuristics.linearize")

    # Selectors are handed out by get_selector from a registry dict; wrap the
    # dict entries and every module-level copy.  Each selector result is
    # remembered in the active search's set of distinct candidate sets.
    search_sets: contextvars.ContextVar = contextvars.ContextVar(
        "perfbench_search_sets", default=None
    )

    def note_selection(args, kwargs, result):
        sets = search_sets.get()
        if sets is not None:
            sets.add(frozenset(result))

    for strategy, original in list(checkpointing._SELECTORS.items()):
        wrapped = tracer.wrap("heuristics.selector", original, info=note_selection)
        checkpointing._SELECTORS[strategy] = wrapped
        replace_everywhere(original, wrapped)

    def search_info(args, kwargs, result):
        sets = search_sets.get()
        if 0 in result.evaluated:
            sets.add(frozenset())
        return {"candidates": len(result.evaluated), "distinct": len(sets)}

    original_search = search.search_checkpoint_count
    traced_search = tracer.wrap("heuristics.search", original_search, info=search_info)

    @functools.wraps(original_search)
    def search_with_sets(*args, **kwargs):
        token = search_sets.set(set())
        try:
            return traced_search(*args, **kwargs)
        finally:
            search_sets.reset(token)

    replace_everywhere(original_search, search_with_sets)

    patch_function(harness, "run_heuristic", "experiments.run_heuristic", root=True)

    original_init = sweep.SweepState.__init__

    @functools.wraps(original_init)
    def profiled_init(self, *args, **kwargs):
        kwargs["profile"] = True
        original_init(self, *args, **kwargs)
        with tracer.lock:
            tracer.sweep_stats.append(self.stats)

    sweep.SweepState.__init__ = tracer.wrap("core.sweep.init", profiled_init)
    patch_method(sweep.SweepState, "evaluate", "core.sweep.evaluate")

    if kernels is not None:
        kernels.fill_rows = tracer.wrap(
            "core.evaluator_native.fill_rows", kernels.fill_rows
        )
        kernels.theorem3_kernel = tracer.wrap(
            "core.evaluator_native.theorem3_kernel", kernels.theorem3_kernel
        )

    def evaluator_span(args, kwargs):
        schedule = args[0] if args else kwargs["schedule"]
        platform = args[1] if len(args) > 1 else kwargs["platform"]
        n = len(schedule.order)
        if n == 0 or platform.failure_rate == 0.0:
            return "core.evaluator.python"
        resolved = core_backend.BACKEND_REGISTRY.resolve(
            kwargs.get("backend"), n_tasks=n
        ).name
        return f"core.evaluator.{resolved}"

    patch_function(
        evaluator, "evaluate_schedule", "core.evaluator", name_of=evaluator_span
    )

    patch_function(keys, "scenario_unit_key", "runtime.keys.scenario_unit_key")
    patch_function(keys, "workflow_fingerprint", "runtime.keys.workflow_fingerprint")

    patch_method(
        cache.ResultCache, "get", "runtime.cache.get",
        info=lambda args, kwargs, result: {"hit": result is not None},
    )
    patch_method(cache.ResultCache, "put", "runtime.cache.put")
    patch_method(journal.CampaignJournal, "record", "runtime.journal.record")

    patch_function(campaign, "aggregate_rows", "experiments.reporting.aggregate_rows")
    patch_function(reporting, "rows_to_csv", "experiments.reporting.rows_to_csv")
    patch_method(campaign.CampaignResult, "render", "experiments.reporting.render")

    patch_method(app.ServiceServer, "_route", "service.app.route", root=True)
    patch_method(batcher.RequestBatcher, "submit", "service.batcher.submit")

    original_run_batch = batcher.RequestBatcher._run_batch

    @functools.wraps(original_run_batch)
    async def timed_run_batch(self, batch):
        # Each batch item is (request, future, enqueued perf_counter): its
        # queue wait ends here, when the dispatcher hands the batch over.
        dispatched = time.perf_counter()
        batch_id = next(tracer.ids)
        for item in batch:
            tracer.record(
                "service.batcher.queue_wait", item[2], dispatched, {"batch": batch_id}
            )
        return await original_run_batch(self, batch)

    batcher.RequestBatcher._run_batch = timed_run_batch
    patch_method(
        planner.ServicePlanner, "solve_batch", "service.planner.solve_batch", root=True
    )
    return tracer


# ----------------------------------------------------------------------
# Reading a span file back into per-layer metrics
# ----------------------------------------------------------------------


def read_spans(path: str, since: float | None = None) -> tuple[list[dict], dict]:
    """Spans (started at or after ``since``) and the summed sweep counters."""
    spans: list[dict] = []
    sweep: dict = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if record.get("kind") == "sweep_stats":
                sweep = record["totals"]
            elif since is None or record["start"] >= since:
                spans.append(record)
    return spans, sweep


def span_times(spans: list[dict]) -> tuple[dict, dict, dict]:
    """Per span name: (calls, outermost inclusive seconds, self seconds).

    Inclusive time counts only spans with no ancestor of the same layer, so
    a layer's time is never counted twice when its calls nest.
    """
    by_id = {span["id"]: span for span in spans}
    child_time: dict[int, float] = collections.defaultdict(float)
    for span in spans:
        if span["parent"] in by_id:
            child_time[span["parent"]] += span["end"] - span["start"]
    calls: dict[str, int] = collections.Counter()
    inclusive: dict[str, float] = collections.defaultdict(float)
    self_time: dict[str, float] = collections.defaultdict(float)
    for span in spans:
        name = span["name"]
        duration = span["end"] - span["start"]
        calls[name] += 1
        self_time[name] += duration - child_time[span["id"]]
        layer = LAYERS.get(name)
        ancestor = by_id.get(span["parent"])
        while ancestor is not None and LAYERS.get(ancestor["name"]) != layer:
            ancestor = by_id.get(ancestor["parent"])
        if ancestor is None:
            inclusive[name] += duration
    return calls, inclusive, self_time


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (``statistics.quantiles``, n=100); 0 when empty."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])


def layer_metrics(path: str, scrape: dict | None = None, since: float | None = None):
    """(per-layer metrics, self seconds per layer) from one span file.

    ``since`` drops spans that started before it (serve-open's warm-up);
    ``scrape`` holds the service counters read from ``/metrics`` over the
    timed stream (deltas); without it the service counters are 0.  Waits
    (a request awaiting its batch, a batch in the queue) are not work and
    stay out of the self-time table.
    """
    spans, sweep = read_spans(path, since)
    calls, inclusive, self_time = span_times(spans)
    scrape = scrape or {}

    def total(*names, table=inclusive):
        return sum(table.get(name, 0.0) for name in names)

    def info_sum(name, field):
        return sum(s["info"][field] for s in spans if s["name"] == name and "info" in s)

    evaluate_s = total("core.sweep.evaluate")
    fill_s = total("core.evaluator_native.fill_rows")
    kernel_s = total("core.evaluator_native.theorem3_kernel")
    waits = [s for s in spans if s["name"] == "service.batcher.queue_wait"]
    queue_wait = [s["end"] - s["start"] for s in waits]
    batches = len({s["info"]["batch"] for s in waits})
    candidates = info_sum("heuristics.search", "candidates")
    distinct = info_sum("heuristics.search", "distinct")
    metrics = {
        "workflows.build_calls": calls.get("workflows.generate", 0),
        "workflows.build_s": total(
            "workflows.generate", "workflows.with_checkpoint_costs"
        ),
        "heuristics.linearization.calls": calls.get("heuristics.linearize", 0),
        "heuristics.linearization.s": total("heuristics.linearize"),
        "heuristics.checkpointing.selector_calls": calls.get("heuristics.selector", 0),
        "heuristics.checkpointing.selector_s": total("heuristics.selector"),
        "heuristics.search.calls": calls.get("heuristics.search", 0),
        "heuristics.search.self_s": total("heuristics.search", table=self_time),
        "heuristics.search.candidates": candidates,
        "heuristics.search.distinct_sets": distinct,
        "heuristics.search.distinct_share": distinct / candidates if candidates else 0.0,
        "core.sweep.evaluate_calls": calls.get("core.sweep.evaluate", 0),
        "core.sweep.evaluate_s": evaluate_s,
        "core.sweep.self_s": total("core.sweep.evaluate", table=self_time),
        "core.sweep.init_s": total("core.sweep.init"),
        "core.sweep.fill_s": float(sweep.get("fill_seconds", 0.0)),
        "core.sweep.kernel_s": float(sweep.get("kernel_seconds", 0.0)),
        "core.sweep.toggles": sweep.get("toggles", 0),
        "core.sweep.rows_refilled": sweep.get("rows_refilled", 0),
        "core.sweep.rows_restored": sweep.get("rows_restored", 0),
        "core.sweep.rows_skipped": sweep.get("rows_skipped", 0),
        "core.sweep.kernel_positions": sweep.get("kernel_positions", 0),
        "core.sweep.full_recomputes": sweep.get("full_recomputes", 0),
        "core.evaluator_native.fill_calls": calls.get(
            "core.evaluator_native.fill_rows", 0
        ),
        "core.evaluator_native.fill_s": fill_s,
        "core.evaluator_native.kernel_calls": calls.get(
            "core.evaluator_native.theorem3_kernel", 0
        ),
        "core.evaluator_native.kernel_s": kernel_s,
        "core.evaluator_native.c_share": (
            (fill_s + kernel_s) / evaluate_s if evaluate_s > 0 else 0.0
        ),
        "core.evaluator.python_calls": calls.get("core.evaluator.python", 0),
        "core.evaluator.python_s": total("core.evaluator.python"),
        "core.evaluator.native_calls": calls.get("core.evaluator.native", 0),
        "core.evaluator.native_s": total("core.evaluator.native"),
        "runtime.keys.calls": calls.get("runtime.keys.scenario_unit_key", 0)
        + calls.get("runtime.keys.workflow_fingerprint", 0),
        "runtime.keys.s": total(
            "runtime.keys.scenario_unit_key", "runtime.keys.workflow_fingerprint"
        ),
        "runtime.cache.get_calls": calls.get("runtime.cache.get", 0),
        "runtime.cache.hits": sum(
            1 for s in spans if s["name"] == "runtime.cache.get" and s.get("info", {}).get("hit")
        ),
        "runtime.cache.get_s": total("runtime.cache.get"),
        "runtime.cache.put_calls": calls.get("runtime.cache.put", 0),
        "runtime.cache.put_s": total("runtime.cache.put"),
        "runtime.journal.record_calls": calls.get("runtime.journal.record", 0),
        "runtime.journal.record_s": total("runtime.journal.record"),
        "experiments.reporting.s": total(
            "experiments.reporting.aggregate_rows",
            "experiments.reporting.rows_to_csv",
            "experiments.reporting.render",
        ),
        "service.app.requests": int(scrape.get("requests", 0)),
        "service.app.errors": int(scrape.get("errors", 0)),
        "service.app.self_s": total("service.app.route", table=self_time),
        "service.batcher.queue_wait_p50_s": percentile(queue_wait, 50),
        "service.batcher.queue_wait_p90_s": percentile(queue_wait, 90),
        "service.batcher.batches": batches,
        "service.batcher.batch_size_mean": len(waits) / batches if batches else 0.0,
        "service.planner.compute_s": total("service.planner.solve_batch"),
        "service.planner.cache_hits": int(scrape.get("cache_hits", 0)),
        "service.planner.coalesced": int(scrape.get("coalesced", 0)),
        "service.planner.computed": int(scrape.get("computed", 0)),
        "service.planner.sweep_passes": int(scrape.get("sweep_passes", 0)),
        "service.planner.evaluations": int(scrape.get("evaluations", 0)),
    }
    layer_self: dict[str, float] = collections.defaultdict(float)
    for name, seconds in self_time.items():
        if name not in WAITS:
            layer_self[LAYERS.get(name, name)] += seconds
    return metrics, dict(layer_self)
