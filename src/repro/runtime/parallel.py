"""Deterministic, supervised parallel map over experiment work units.

A layer over :class:`concurrent.futures.ProcessPoolExecutor` with the
properties the campaign runtime needs:

* **serial fallback** — ``jobs=1`` runs the plain in-process loop (this is
  the path the tier-1 test-suite exercises, and the reference that parallel
  runs must reproduce bit-for-bit);
* **ordered gathering** — results always come back in input order, whatever
  the completion order of the workers, so downstream aggregation is
  independent of scheduling jitter;
* **deterministic chunking** — the chunk size is a pure function of the
  input length and worker count, never of timing;
* **worker supervision** — a dead worker (``BrokenProcessPool``) or a stuck
  chunk (``unit_timeout``) resets the pool and retries the affected chunks
  with bounded exponential backoff, bisecting multi-unit chunks so a poison
  unit is isolated in ``O(log chunksize)`` resets instead of sinking its
  chunk-mates; a dead worker is blamed on a chunk only when that chunk ran
  alone, so chunks that merely ran beside it are never charged an attempt;
  a unit that keeps killing workers is *quarantined* (when the caller opts
  in) rather than aborting everything else;
* **structured failures** — instead of an opaque traceback from the bowels
  of ``concurrent.futures``, a failed unit surfaces as
  :class:`WorkerFailure` carrying the unit index, attempt count and the
  original worker-side exception (with its traceback text).

A :class:`WorkerPool` keeps the workers alive across calls: the campaign
runner and the service planner each hold one, so every batch they map is
supervised the same way, and concurrent calls (the service's batch
threads) share its workers.  Without one, a call starts and stops its own.

The mapped function must be picklable (a module-level function) when
``jobs > 1``; work units likewise.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
import time
import traceback as traceback_module
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from .faults import fault_point
from .retry import RetryPolicy

__all__ = [
    "QUARANTINED",
    "WorkerFailure",
    "WorkerPool",
    "deterministic_chunksize",
    "parallel_map",
    "resolve_jobs",
]

#: Cap on the supervised retry backoff sleep (seconds).
_MAX_BACKOFF = 30.0


class _Quarantined:
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<quarantined>"


#: Sentinel filling the result slot of a quarantined unit when
#: ``parallel_map(..., quarantine=True)`` — callers filter it out (and read
#: the real story from ``on_failure``).
QUARANTINED = _Quarantined()


class WorkerFailure(RuntimeError):
    """One work unit failed for good (deterministic error, poison, timeout).

    Attributes
    ----------
    unit_index:
        Position of the unit in the ``items`` passed to :func:`parallel_map`.
    item:
        ``repr()`` of the unit (the unit itself may be large or unpicklable).
    attempts:
        How many times the unit was tried before giving up.
    kind:
        ``"error"`` (the mapped function raised), ``"crash"`` (the unit's
        worker process died) or ``"timeout"`` (the per-unit wall-clock
        budget was exceeded).
    cause_type, cause_message:
        The original exception's type name and message (synthesized for
        crashes/timeouts, where no Python exception object exists).
    traceback_text:
        The worker-side traceback, when one was captured.
    """

    def __init__(
        self,
        *,
        unit_index: int,
        item: str,
        attempts: int,
        kind: str,
        cause_type: str,
        cause_message: str,
        traceback_text: str | None = None,
    ) -> None:
        self.unit_index = int(unit_index)
        self.item = item
        self.attempts = int(attempts)
        self.kind = kind
        self.cause_type = cause_type
        self.cause_message = cause_message
        self.traceback_text = traceback_text
        super().__init__(
            f"unit {self.unit_index} ({item}) failed after {self.attempts} "
            f"attempt(s) [{kind}]: {cause_type}: {cause_message}"
        )


def _describe_exception(exc: BaseException) -> dict[str, Any]:
    """Portable description of a worker-side exception (original kept if picklable)."""
    text = "".join(
        traceback_module.format_exception(type(exc), exc, exc.__traceback__)
    )
    carried: BaseException | None = exc
    try:
        pickle.dumps(exc)
    except Exception:
        carried = None
    return {
        "type": type(exc).__name__,
        "message": str(exc),
        "traceback": text,
        "exception": carried,
    }


def _apply_chunk(
    payload: tuple[Callable[[Any], Any], list[Any], tuple[int, ...], int],
) -> list[tuple[str, Any]]:
    """Worker entry point: run one chunk of units (module-level, picklable).

    Returns one ``("ok", result)`` / ``("err", description)`` tag per unit,
    so a unit-level exception late in a chunk does not discard its
    chunk-mates' completed results.  The fault points model a worker dying
    (``worker_crash``) or hanging (``chunk_timeout``) on a specific unit and
    attempt — the deterministic stand-ins for OOM kills and runaway solves.
    """
    fn, chunk, indices, attempt = payload
    tagged: list[tuple[str, Any]] = []
    for index, item in zip(indices, chunk):
        fault_point("worker_crash", default="exit=137", unit=index, attempt=attempt)
        fault_point("chunk_timeout", default="sleep=30", unit=index, attempt=attempt)
        try:
            tagged.append(("ok", fn(item)))
        except Exception as exc:
            tagged.append(("err", _describe_exception(exc)))
    return tagged


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``--jobs`` value: ``None``/``0`` means all CPUs."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    jobs = int(jobs)
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return jobs


def deterministic_chunksize(n_items: int, jobs: int) -> int:
    """Chunk size for ``n_items`` spread over ``jobs`` workers.

    Aims at roughly four chunks per worker (to absorb load imbalance between
    heavy and light units) while never exceeding 32 units per chunk.  Purely
    arithmetic on the inputs, so two runs of the same campaign always chunk
    identically.
    """
    if n_items <= 0:
        return 1
    jobs = max(1, jobs)
    target = -(-n_items // (4 * jobs))  # ceil division
    return max(1, min(32, target))


def _detach_worker_signals() -> None:
    """Worker initializer: drop the signal wiring a fork copied from the parent.

    A worker forked from the asyncio daemon inherits the event loop's
    signal wakeup fd and its no-op handlers, so a SIGTERM to the worker
    (``ProcessPoolExecutor`` sends one to the survivors of a broken pool,
    and so does :meth:`WorkerPool.reset`) left the worker running and
    reached the parent's loop as its own stop signal.
    """
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


class WorkerPool:
    """Worker processes that outlive one :func:`parallel_map` call.

    The :class:`~concurrent.futures.ProcessPoolExecutor` starts lazily, on
    the first parallel dispatch.  After a crash or timeout (or when a call
    is interrupted), ``parallel_map`` hard-resets it (:meth:`reset`), and
    the next dispatch starts a fresh one.  ``resets`` counts the executors
    disposed that way and ``resent`` the items dispatched again after a
    crash or timeout, over the pool's lifetime.  Safe to share between
    threads.
    """

    def __init__(self, jobs: int | None = 1) -> None:
        self.workers = resolve_jobs(jobs)
        self.resets = 0
        self.resent = 0
        self._executor: ProcessPoolExecutor | None = None
        self._lock = threading.Lock()

    def executor(self) -> ProcessPoolExecutor:
        """The live executor, started on first use."""
        with self._lock:
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers, initializer=_detach_worker_signals
                )
            return self._executor

    def reset(self, broken: ProcessPoolExecutor) -> None:
        """Dispose ``broken`` hard, unless another caller already replaced it.

        ``shutdown`` never kills a worker mid-task, so a worker stuck in a
        runaway unit would live on; its queued work is cancelled and every
        worker terminated instead.  The worker handles live in a private
        attribute, hence the defensive ``getattr``.
        """
        with self._lock:
            if broken is not self._executor:
                return
            self._executor = None
            self.resets += 1
        try:
            broken.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass
        for process in list((getattr(broken, "_processes", None) or {}).values()):
            try:
                process.terminate()
            except Exception:
                pass

    def _count_resent(self, items: int) -> None:
        with self._lock:
            self.resent += items

    def close(self) -> None:
        """Shut the workers down (the pool starts anew if used again)."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown()


@dataclass
class _Chunk:
    """A dispatchable slice of the unit list, tracking its retry attempt."""

    indices: tuple[int, ...]
    attempt: int = 1
    #: It was running when a worker died beside other chunks, so whether
    #: its own worker died is unknown: it next runs alone, which settles it.
    suspect: bool = False
    #: Its units have been dispatched, so dispatching them again counts in
    #: :attr:`WorkerPool.resent`.
    sent: bool = False


class _WaveAbort(Exception):
    """Internal: the current dispatch wave died; reset the pool and retry."""


def parallel_map(
    fn: Callable[[Any], Any],
    items: Iterable[Any],
    *,
    jobs: int | None = 1,
    chunksize: int | None = None,
    on_result: Callable[[int, Any], None] | None = None,
    pool: WorkerPool | None = None,
    max_retries: int = 2,
    retry_backoff: float = 0.5,
    unit_timeout: float | None = None,
    quarantine: bool = False,
    on_failure: Callable[[WorkerFailure], None] | None = None,
) -> list[Any]:
    """Map ``fn`` over ``items``, optionally across supervised workers.

    Parameters
    ----------
    fn:
        The function to apply.  Must be importable from a module (picklable)
        when ``jobs > 1``.
    items:
        Work units; consumed eagerly so the total is known up front.
    jobs:
        Worker processes.  ``1`` (the default) runs serially in-process;
        ``None`` or ``0`` uses every CPU.  Ignored when ``pool`` is given.
    chunksize:
        Units per worker dispatch; defaults to
        :func:`deterministic_chunksize`.
    on_result:
        Optional callback invoked as ``on_result(index, result)`` exactly
        once per item, *as soon as its result reaches the parent* — in input
        order when serial, in completion order when parallel.  This is the
        hook for progress reporting and incremental persistence: even if a
        later unit fails, every completed unit is reported first.
    pool:
        A :class:`WorkerPool` to dispatch on; its ``workers`` is the worker
        count, and it stays open after the call.  Without one, a parallel
        call starts and closes a pool of its own.
    max_retries:
        Pool-level retries per chunk beyond the first attempt.  Unit-level
        exceptions (``fn`` raised) are deterministic and never retried.
    retry_backoff:
        Base of the exponential backoff sleep between pool resets
        (``retry_backoff * 2**(resets-1)``, capped at 30s; ``0`` disables).
    unit_timeout:
        Optional per-unit wall-clock budget (seconds).  A chunk of ``k``
        units gets ``k * unit_timeout``; exceeding it counts as a pool-level
        failure of that chunk (the pool is rebuilt, stuck workers killed).
    quarantine:
        When true, a unit that fails for good is *quarantined*: its result
        slot is filled with :data:`QUARANTINED`, ``on_failure`` is called
        with the :class:`WorkerFailure`, and the remaining units keep
        running.  When false (default), the first failure is raised — but
        only after every other chunk has been gathered.
    on_failure:
        Callback receiving each :class:`WorkerFailure` when quarantining.

    Returns
    -------
    list
        Results in input order (:data:`QUARANTINED` marks quarantined slots
        when ``quarantine=True``).

    Raises
    ------
    WorkerFailure
        For a failed unit when ``quarantine`` is off — after every other
        chunk has been gathered (and reported through ``on_result``), so
        partial work is never silently discarded.  The serial path raises
        the original exception unwrapped: nothing was lost across a process
        boundary there, and it is the bit-for-bit reference.
    """
    units: Sequence[Any] = list(items)
    workers = pool.workers if pool is not None else resolve_jobs(jobs)
    n_jobs = min(workers, max(1, len(units)))

    if n_jobs <= 1:
        return _serial_map(
            fn, units, on_result=on_result, quarantine=quarantine, on_failure=on_failure
        )

    if chunksize is None:
        chunksize = deterministic_chunksize(len(units), n_jobs)

    own_pool = pool is None
    active = WorkerPool(n_jobs) if pool is None else pool
    try:
        return _supervised_map(
            fn,
            units,
            n_jobs=n_jobs,
            chunksize=chunksize,
            pool=active,
            on_result=on_result,
            max_retries=max_retries,
            retry_backoff=retry_backoff,
            unit_timeout=unit_timeout,
            quarantine=quarantine,
            on_failure=on_failure,
        )
    finally:
        if own_pool:
            active.close()


def _serial_map(
    fn: Callable[[Any], Any],
    units: Sequence[Any],
    *,
    on_result: Callable[[int, Any], None] | None,
    quarantine: bool,
    on_failure: Callable[[WorkerFailure], None] | None,
) -> list[Any]:
    results: list[Any] = []
    for index, unit in enumerate(units):
        fault_point("worker_crash", default="exit=137", unit=index, attempt=1)
        fault_point("chunk_timeout", default="sleep=30", unit=index, attempt=1)
        try:
            result = fn(unit)
        except Exception as exc:
            if not quarantine:
                raise
            described = _describe_exception(exc)
            failure = WorkerFailure(
                unit_index=index,
                item=repr(unit),
                attempts=1,
                kind="error",
                cause_type=described["type"],
                cause_message=described["message"],
                traceback_text=described["traceback"],
            )
            failure.__cause__ = exc
            if on_failure is not None:
                on_failure(failure)
            results.append(QUARANTINED)
            continue
        results.append(result)
        if on_result is not None:
            on_result(index, result)
    return results


def _supervised_map(
    fn: Callable[[Any], Any],
    units: Sequence[Any],
    *,
    n_jobs: int,
    chunksize: int,
    pool: WorkerPool,
    on_result: Callable[[int, Any], None] | None,
    max_retries: int,
    retry_backoff: float,
    unit_timeout: float | None,
    quarantine: bool,
    on_failure: Callable[[WorkerFailure], None] | None,
) -> list[Any]:
    unset = object()
    results: list[Any] = [unset] * len(units)
    queue: deque[_Chunk] = deque(
        _Chunk(indices=tuple(range(start, min(start + chunksize, len(units)))))
        for start in range(0, len(units), chunksize)
    )
    first_error: WorkerFailure | None = None
    resets = 0
    # Zero jitter reproduces the historical supervisor schedule exactly:
    # min(retry_backoff * 2**(resets-1), 30s).
    backoff = (
        RetryPolicy(base_delay=retry_backoff, max_delay=_MAX_BACKOFF)
        if retry_backoff > 0
        else None
    )

    def settle_failure(index: int, failure: WorkerFailure) -> None:
        nonlocal first_error
        if quarantine:
            results[index] = QUARANTINED
            if on_failure is not None:
                on_failure(failure)
        elif first_error is None:
            first_error = failure

    def deliver(chunk: _Chunk, tagged: list[tuple[str, Any]]) -> None:
        for index, (tag, value) in zip(chunk.indices, tagged):
            if tag == "ok":
                results[index] = value
                if on_result is not None:
                    on_result(index, value)
                continue
            failure = WorkerFailure(
                unit_index=index,
                item=repr(units[index]),
                attempts=chunk.attempt,
                kind="error",
                cause_type=value["type"],
                cause_message=value["message"],
                traceback_text=value["traceback"],
            )
            if value.get("exception") is not None:
                failure.__cause__ = value["exception"]
            settle_failure(index, failure)

    def escalate(chunk: _Chunk, kind: str, message: str) -> None:
        """A chunk crashed its worker or timed out: bisect, retry, or give up."""
        next_attempt = chunk.attempt + 1
        if len(chunk.indices) > 1:
            # The guilty unit is unknown; splitting isolates it in
            # O(log chunksize) resets while its chunk-mates escape.
            mid = len(chunk.indices) // 2
            queue.append(_Chunk(chunk.indices[:mid], next_attempt, sent=True))
            queue.append(_Chunk(chunk.indices[mid:], next_attempt, sent=True))
        elif next_attempt > max_retries + 1:
            index = chunk.indices[0]
            settle_failure(
                index,
                WorkerFailure(
                    unit_index=index,
                    item=repr(units[index]),
                    attempts=chunk.attempt,
                    kind=kind,
                    cause_type=kind,
                    cause_message=message,
                ),
            )
        else:
            queue.append(_Chunk(chunk.indices, next_attempt, sent=True))

    executor: ProcessPoolExecutor | None = None
    try:
        while queue:
            executor = pool.executor()
            try:
                _run_wave(
                    fn,
                    units,
                    queue=queue,
                    pool=pool,
                    executor=executor,
                    n_jobs=n_jobs,
                    unit_timeout=unit_timeout,
                    deliver=deliver,
                    escalate=escalate,
                )
            except _WaveAbort:
                pool.reset(executor)
                resets += 1
                if backoff is not None:
                    backoff.sleep(resets)
        if first_error is not None:
            raise first_error
    except BaseException:
        # A failed or interrupted call (or a raising callback) stops what
        # is still in flight and leaves no worker state to the next call.
        if executor is not None:
            pool.reset(executor)
        raise
    assert all(result is not unset for result in results)
    return results


def _run_wave(
    fn: Callable[[Any], Any],
    units: Sequence[Any],
    *,
    queue: deque[_Chunk],
    pool: WorkerPool,
    executor: ProcessPoolExecutor,
    n_jobs: int,
    unit_timeout: float | None,
    deliver: Callable[[_Chunk, list[tuple[str, Any]]], None],
    escalate: Callable[[_Chunk, str, str], None],
) -> None:
    """Drain the queue on one executor; raise :class:`_WaveAbort` if it dies.

    Dispatch is a sliding window of at most ``n_jobs`` chunks (a suspect
    chunk runs alone), so every submitted chunk starts executing
    immediately — which is what makes the per-chunk deadline
    (``len(chunk) * unit_timeout`` from submission) an honest measure of
    compute time rather than queue time.
    """
    inflight: dict[Future, _Chunk] = {}
    deadlines: dict[Future, float] = {}

    def abort(kind: str, message: str, guilty: list[_Chunk]) -> None:
        for future, chunk in inflight.items():
            future.cancel()
            if chunk not in guilty:
                queue.append(chunk)  # innocent bystander: same attempt again
        for chunk in guilty:
            escalate(chunk, kind, message)
        raise _WaveAbort

    while queue or inflight:
        while queue and len(inflight) < n_jobs:
            if inflight and (
                queue[0].suspect or any(c.suspect for c in inflight.values())
            ):
                break  # a suspect runs alone
            chunk = queue.popleft()
            payload = (fn, [units[i] for i in chunk.indices], chunk.indices, chunk.attempt)
            try:
                future = executor.submit(_apply_chunk, payload)
            except BrokenProcessPool as exc:
                queue.appendleft(chunk)  # the pool was already dead, not its fault
                abort("crash", str(exc) or "worker pool is broken", [])
            if chunk.sent:
                pool._count_resent(len(chunk.indices))
            chunk.sent = True
            inflight[future] = chunk
            if unit_timeout is not None:
                deadlines[future] = (
                    time.monotonic() + unit_timeout * len(chunk.indices)
                )

        timeout = None
        if deadlines:
            timeout = max(0.0, min(deadlines.values()) - time.monotonic())
        done, _ = wait(set(inflight), timeout=timeout, return_when=FIRST_COMPLETED)

        if not done:
            now = time.monotonic()
            expired = [future for future, deadline in deadlines.items() if deadline <= now]
            if not expired:
                continue  # spurious wakeup; re-derive the next deadline
            guilty = []
            for future in expired:
                guilty.append(inflight.pop(future))
                deadlines.pop(future, None)
            abort(
                "timeout",
                f"unit wall-clock budget exceeded ({unit_timeout}s/unit)",
                guilty,
            )

        for future in done:
            chunk = inflight.pop(future)
            deadlines.pop(future, None)
            try:
                tagged = future.result()
            except BrokenProcessPool as exc:
                message = str(exc) or "worker process died unexpectedly"
                if not inflight:
                    # It ran alone, so the dead worker was its own.
                    abort("crash", message, [chunk])
                # The pool is gone and every sibling broke with it; which
                # worker died cannot be told, so no chunk is charged: each
                # reruns alone at the same attempt, which settles it.
                for suspect in (chunk, *inflight.values()):
                    suspect.suspect = True
                queue.append(chunk)
                abort("crash", message, [])
            deliver(chunk, tagged)
