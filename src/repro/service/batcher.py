"""Asyncio request queue feeding the planner's worker threads.

The batcher is the coalescing point of the service: solve requests enqueue
into one :class:`asyncio.Queue`, and a dispatcher drains the queue into
batches that it hands to :meth:`ServicePlanner.solve_batch
<repro.service.planner.ServicePlanner.solve_batch>` on a thread pool.  Two
properties make concurrent traffic cheap:

* the dispatcher acquires a worker slot *before* draining, so while every
  worker is busy the queue keeps accumulating — the next batch is as large
  (and as coalescible) as the backlog allows, rather than one request;
* an optional ``batch_window`` sleep lets an almost-simultaneous burst land
  in one batch even on an idle server (default 0: lowest latency).

Back-pressure is explicit: a full queue rejects with an ``overloaded``
:class:`~repro.service.schema.ServiceError` (HTTP 503) instead of buffering
without bound.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Sequence

from ..obs import MetricsRegistry
from .planner import ServicePlanner
from .schema import ServiceError, SolveRequest

__all__ = ["RequestBatcher"]


class RequestBatcher:
    """Bridge between the asyncio server and the synchronous planner.

    Parameters
    ----------
    planner:
        The :class:`~repro.service.planner.ServicePlanner` computing batches.
    workers:
        Concurrent batches in flight (threads); more workers lower latency
        under load, fewer make batches larger.
    max_queue:
        Queue bound; submissions beyond it are rejected with HTTP 503.
    max_batch:
        Largest batch handed to the planner in one call.
    batch_window:
        Seconds to wait after the first request of a batch before draining,
        so near-simultaneous requests coalesce (0 disables the wait).
    registry:
        Optional metrics registry (solve latency is observed here because
        the batcher sees the full queue-wait plus compute span).
    """

    def __init__(
        self,
        planner: ServicePlanner,
        *,
        workers: int = 2,
        max_queue: int = 256,
        max_batch: int = 64,
        batch_window: float = 0.0,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if batch_window < 0:
            raise ValueError(f"batch_window must be >= 0, got {batch_window}")
        self.planner = planner
        self.registry = registry
        self.workers = int(workers)
        self.max_batch = int(max_batch)
        self.batch_window = float(batch_window)
        self._queue: asyncio.Queue = asyncio.Queue(maxsize=int(max_queue))
        self._semaphore = asyncio.Semaphore(self.workers)
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-solve"
        )
        self._dispatcher: asyncio.Task | None = None
        self._batch_tasks: set[asyncio.Task] = set()
        self._closed = False

    # ------------------------------------------------------------------
    # Introspection (metrics callbacks)
    # ------------------------------------------------------------------
    def queue_depth(self) -> int:
        """Requests currently waiting in the queue (the gauge callback)."""
        return self._queue.qsize()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Start the dispatcher task (idempotent)."""
        if self._dispatcher is None:
            self._dispatcher = asyncio.create_task(
                self._dispatch_loop(), name="repro-batch-dispatcher"
            )

    async def stop(self) -> None:
        """Drain in-flight batches, then stop the dispatcher and threads."""
        self._closed = True
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None
        if self._batch_tasks:
            await asyncio.gather(*tuple(self._batch_tasks), return_exceptions=True)
        # Waiters still queued (never picked up) must not hang forever.
        while not self._queue.empty():
            _, future, _ = self._queue.get_nowait()
            if not future.done():
                future.set_exception(
                    ServiceError(
                        "server is shutting down", status=503, code="shutting-down"
                    )
                )
        self._executor.shutdown(wait=True)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    async def submit(self, request: SolveRequest) -> dict:
        """Enqueue one solve request and await its response payload.

        Raises the per-request exception the planner reported (a
        :class:`ServiceError` for bad requests, the library's ``ValueError``
        for computation-level rejections).
        """
        if self._closed:
            raise ServiceError(
                "server is shutting down", status=503, code="shutting-down"
            )
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        try:
            self._queue.put_nowait((request, future, time.perf_counter()))
        except asyncio.QueueFull:
            raise ServiceError(
                "solve queue is full, retry later", status=503, code="overloaded"
            ) from None
        return await future

    # ------------------------------------------------------------------
    # Dispatching
    # ------------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        while True:
            first = await self._queue.get()
            # Waiting for a worker slot *before* draining is what turns a
            # backlog into large batches: everything arriving while all
            # workers are busy joins the next batch.
            await self._semaphore.acquire()
            if self.batch_window > 0:
                await asyncio.sleep(self.batch_window)
            batch = [first]
            while len(batch) < self.max_batch:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            task = asyncio.create_task(self._run_batch(batch))
            self._batch_tasks.add(task)
            task.add_done_callback(self._batch_tasks.discard)

    async def _run_batch(
        self, batch: Sequence[tuple[SolveRequest, asyncio.Future, float]]
    ) -> None:
        loop = asyncio.get_running_loop()
        requests = [request for request, _, _ in batch]
        try:
            results: list[Any] = await loop.run_in_executor(
                self._executor, self.planner.solve_batch, requests
            )
        except Exception as exc:  # noqa: BLE001 - delivered to every waiter
            results = [exc] * len(batch)
        finally:
            self._semaphore.release()
        now = time.perf_counter()
        histogram = (
            self.registry.get("repro_solve_latency_seconds")
            if self.registry is not None
            else None
        )
        for (request, future, enqueued), result in zip(batch, results):
            if histogram is not None:
                histogram.observe(now - enqueued)
            if future.done():  # client went away mid-computation
                continue
            if isinstance(result, BaseException):
                future.set_exception(result)
            else:
                future.set_result(result)
