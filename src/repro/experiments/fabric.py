"""Distributed campaign fabric: coordinator and workers.

``repro fabric`` runs one campaign across many worker processes (or hosts)
with the robustness layer the single-process runtime cannot provide:

* the **coordinator** (:class:`FabricCoordinator`) owns the campaign's
  :class:`~repro.experiments.campaign.CampaignSpec`, ships its wire form
  to workers, and hands its ``N`` deterministic shards out as TTL leases
  through :class:`~repro.runtime.leases.LeaseQueue` — dead or stalled
  workers are detected by lease expiry and their shards reassigned, with
  bounded-attempt poison-shard quarantine;
* **workers** (:class:`FabricWorker`) request leases over the JSON-lines
  transport of :mod:`repro.runtime.rpc`, renew them from a heartbeat
  thread, run their shard through the ordinary
  :func:`~repro.experiments.campaign.run_campaign`, ship the resulting rows
  back as CSV text, and exit once the coordinator says the campaign is
  finished;
* shard completions are journaled into the PR 7
  :class:`~repro.runtime.journal.CampaignJournal` (keyed by
  :func:`~repro.runtime.keys.fabric_shard_key`), so ``--resume`` after a
  *coordinator* crash re-leases only the unfinished shards;
* workers share results through the cache-net remote cache
  (:mod:`repro.runtime.cachenet`), degrading to their local cache when the
  cache server is unreachable.

Determinism contract: shards split *whole* scenarios (every seed and
heuristic of a grid point stays together), each shard's rows are computed by
the same serial reference path as ``repro campaign --shard k/N`` (both
shard one :class:`~repro.experiments.campaign.CampaignSpec`), and the
coordinator re-assembles them in shard order — the merged report is
byte-identical to a serial unsharded run, whatever died along the way.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from typing import Any, Callable

from ..obs import MetricsRegistry
from ..runtime.cache import ResultCache
from ..runtime.cachenet import CacheNetClient, CircuitBreaker, FallbackResultCache
from ..runtime.faults import fault_point
from ..runtime.journal import CampaignJournal
from ..runtime.keys import fabric_shard_key
from ..runtime.leases import PENDING, POISON, LeaseQueue, ShardLease
from ..runtime.retry import RetryPolicy
from ..runtime.rpc import POLL_INTERVAL, RpcClient, RpcError, RpcServer
from .campaign import CampaignResult, CampaignSpec, run_campaign
from .harness import ResultRow
from .reporting import rows_from_csv, rows_to_csv

__all__ = [
    "FabricCoordinator",
    "FabricWorker",
    "FABRIC_PROTOCOL_VERSION",
]

#: Wire protocol version of the coordinator control plane.
FABRIC_PROTOCOL_VERSION = 1


def build_fabric_registry(
    queue: LeaseQueue, *, breaker_open: Callable[[], float]
) -> MetricsRegistry:
    """The coordinator's metric set (names are the public contract).

    The lease-lifecycle counters (grants, renewals, expirations,
    reassignments, quarantines, completions) and the gauges read ``queue``
    at scrape time; the cache-net counters are fed by worker completion
    reports.
    """
    registry = MetricsRegistry()
    registry.counter(
        "repro_fabric_leases_granted_total",
        "Shard leases granted to workers.",
        callback=lambda: queue.granted,
    )
    registry.counter(
        "repro_fabric_lease_renewals_total",
        "Lease renewals (worker heartbeats).",
        callback=lambda: queue.renewals,
    )
    registry.counter(
        "repro_fabric_lease_expirations_total",
        "Leases that expired without completion (dead or stalled worker).",
        callback=lambda: queue.expirations,
    )
    registry.counter(
        "repro_fabric_shard_reassignments_total",
        "Shards returned to the pending pool for another worker.",
        callback=lambda: queue.reassignments,
    )
    registry.counter(
        "repro_fabric_shards_poisoned_total",
        "Shards quarantined after exhausting their grant budget.",
        callback=lambda: queue.poisonings,
    )
    registry.counter(
        "repro_fabric_shards_completed_total",
        "Shards completed and journaled.",
        callback=lambda: queue.completions,
    )
    registry.counter(
        "repro_fabric_cache_net_retries_total",
        "Cache-net transport retries reported by workers.",
    )
    registry.counter(
        "repro_fabric_cache_degradations_total",
        "Worker shard runs that finished with the cache circuit open "
        "(served by the local cache only).",
    )
    registry.gauge(
        "repro_fabric_active_leases",
        "Shard leases currently held by workers.",
        callback=lambda: queue.active_leases,
    )
    registry.gauge(
        "repro_fabric_pending_shards",
        "Shards waiting for a worker.",
        callback=lambda: sum(
            1 for state in queue.snapshot().values() if state[0] == PENDING
        ),
    )
    registry.gauge(
        "repro_fabric_cache_breaker_open",
        "1 while the most recent worker report had its cache circuit open.",
        callback=breaker_open,
    )
    return registry


# ----------------------------------------------------------------------
# Coordinator
# ----------------------------------------------------------------------
class FabricCoordinator(RpcServer):
    """Own one fabric campaign: lease shards out, collect rows, merge.

    The coordinator is the control plane's
    :class:`~repro.runtime.rpc.RpcServer`: :meth:`start` serves it from a
    thread, :meth:`serve` blocks until the campaign is over, and
    :meth:`stop` cuts every worker off as a crash would.

    Parameters
    ----------
    spec:
        The campaign content (grid, seeds, budget, shard count).
    host / port:
        Control-plane bind address (``port=0`` picks an ephemeral port).
    ttl:
        Lease TTL in seconds; workers heartbeat at ``ttl / 3``.
    max_attempts:
        Grants per shard before poison-quarantine.
    journal:
        Optional :class:`CampaignJournal` (or path): completed shards are
        recorded under :func:`fabric_shard_key` and replayed on open, so a
        crashed coordinator resumes without re-running finished shards.
    cache_endpoint:
        Optional ``host:port`` of a ``repro fabric cache-server``; forwarded
        to workers in the hello config.
    backend:
        Optional evaluation backend name forwarded to workers.  It stays
        out of the spec and the journal keys, yet backends agree only
        within 1e-9, not bit for bit: the merged report matches a serial
        run byte for byte only when both resolve to the same backend.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        ttl: float = 15.0,
        max_attempts: int = 3,
        journal: CampaignJournal | str | os.PathLike[str] | None = None,
        cache_endpoint: str | None = None,
        backend: str | None = None,
    ) -> None:
        self.spec = spec
        self.ttl = float(ttl)
        self.cache_endpoint = cache_endpoint
        self.backend = backend
        self.queue = LeaseQueue(spec.n_shards, ttl=ttl, max_attempts=max_attempts)
        self.journal = (
            journal
            if isinstance(journal, CampaignJournal) or journal is None
            else CampaignJournal(journal)
        )
        self._spec_digest = spec.content_digest()
        self._rows_csv: dict[int, str] = {}
        self._lock = threading.Lock()
        # Worker -> clock time of its last request, and the workers told
        # the campaign is finished (see serve()).
        self._last_heard: dict[str, float] = {}
        self._told_finished: set[str] = set()
        self._last_report_degraded = False
        self.registry = build_fabric_registry(
            self.queue,
            breaker_open=lambda: 1.0 if self._last_report_degraded else 0.0,
        )
        self._replay_journal()
        super().__init__(self._dispatch, host=host, port=port, name="repro-fabric")

    # -- lifecycle -----------------------------------------------------
    def serve(self, *, timeout: float | None = None) -> None:
        """Block until every shard is done or poisoned, then stop serving.

        Before it stops, the coordinator keeps answering until every worker
        heard from within the last ``ttl`` has been told the campaign is
        finished, for at most one more ``ttl``: a polling worker cannot tell
        a coordinator that stopped from one that crashed.  A worker that
        died earlier is not waited for.

        ``timeout`` bounds the wait for the shards in seconds — with no
        live workers a lease-based queue would otherwise wait forever for a
        reassignment that never comes.
        """
        deadline = time.monotonic() + timeout if timeout is not None else None
        try:
            while not self.queue.finished:
                if deadline is not None and time.monotonic() >= deadline:
                    raise TimeoutError(
                        f"fabric campaign did not finish within {timeout}s "
                        f"(shards: {self.queue.snapshot()})"
                    )
                time.sleep(POLL_INTERVAL)
                self.queue.expire()
            settled = time.monotonic()
            while self._workers_not_told() and time.monotonic() - settled < self.ttl:
                time.sleep(POLL_INTERVAL)
        finally:
            self.stop()

    def _workers_not_told(self) -> bool:
        """Has a worker heard from within the last ``ttl`` not been told?"""
        horizon = time.monotonic() - self.ttl
        with self._lock:
            return any(
                heard > horizon and worker not in self._told_finished
                for worker, heard in self._last_heard.items()
            )

    def close(self) -> None:
        """Stop the control plane and close the journal."""
        self.stop()
        if self.journal is not None:
            self.journal.close()

    # -- journal replay ------------------------------------------------
    def _replay_journal(self) -> None:
        if self.journal is None:
            return
        for k in range(1, self.spec.n_shards + 1):
            outcome = self.journal.get(self._shard_key(k))
            if outcome is None:
                continue
            rows_csv = outcome.get("rows_csv")
            if isinstance(rows_csv, str):
                self._rows_csv[k] = rows_csv
                self.queue.mark_done(k)

    def _shard_key(self, shard: int) -> str:
        return fabric_shard_key(
            spec_digest=self._spec_digest,
            shard=shard,
            n_shards=self.spec.n_shards,
        )

    # -- request dispatch (handler threads) ------------------------------
    def _dispatch(self, request: dict[str, Any]) -> dict[str, Any]:
        op = request.get("op")
        worker = str(request.get("worker", "?"))
        if "worker" in request:
            with self._lock:
                self._last_heard[worker] = time.monotonic()
        if op == "hello":
            return {
                "ok": True,
                "v": FABRIC_PROTOCOL_VERSION,
                "spec": self.spec.to_payload(),
                "config": {
                    "ttl": self.ttl,
                    "cache": self.cache_endpoint,
                    "backend": self.backend,
                },
            }
        if op == "lease":
            lease = self.queue.grant(worker)
            if lease is None:
                finished = self.queue.finished
                if finished:
                    with self._lock:
                        self._told_finished.add(worker)
                return {"ok": True, "shard": None, "finished": finished}
            return {
                "ok": True,
                "shard": lease.shard,
                "n_shards": lease.n_shards,
                "attempt": lease.attempts,
            }
        if op == "renew":
            renewed = self.queue.renew(worker, int(request.get("shard", 0)))
            return {"ok": True, "renewed": renewed}
        if op == "complete":
            return self._handle_complete(worker, request)
        if op == "fail":
            shard = int(request.get("shard", 0))
            error = request.get("error")
            state = self.queue.fail(
                worker, shard, error if isinstance(error, dict) else None
            )
            if state == POISON and self.journal is not None:
                with self._lock:
                    self.journal.record_failure(
                        self._shard_key(shard),
                        error if isinstance(error, dict) else {"type": "unknown"},
                    )
            return {"ok": True, "state": state}
        return {"ok": False, "error": f"unknown op {op!r}"}

    def _handle_complete(self, worker: str, request: dict[str, Any]) -> dict[str, Any]:
        shard = int(request.get("shard", 0))
        rows_csv = request.get("rows_csv")
        if not isinstance(rows_csv, str):
            return {"ok": False, "error": "complete requires 'rows_csv' text"}
        first = self.queue.complete(worker, shard)
        if first:
            with self._lock:
                self._rows_csv[shard] = rows_csv
                if self.journal is not None:
                    self.journal.record(
                        self._shard_key(shard),
                        {
                            "rows_csv": rows_csv,
                            "shard": shard,
                            "n_shards": self.spec.n_shards,
                        },
                    )
        stats = request.get("stats")
        if isinstance(stats, dict):
            retries = stats.get("cache_net_retries")
            if isinstance(retries, (int, float)) and retries > 0:
                self.registry.get("repro_fabric_cache_net_retries_total").inc(retries)
            degraded = bool(stats.get("degraded"))
            self._last_report_degraded = degraded
            if degraded:
                self.registry.get("repro_fabric_cache_degradations_total").inc()
        return {"ok": True, "accepted": first}

    # -- results -------------------------------------------------------
    @property
    def failures(self) -> list[ShardLease]:
        """The poisoned shards (empty on a fully successful campaign)."""
        return self.queue.poisoned

    def result(self) -> CampaignResult:
        """Merge the completed shards' rows (byte-identity path).

        Rows concatenate in shard order ``1..N``; every (grid point,
        heuristic, seed) group lives whole inside one shard, and
        aggregation sorts groups, so the rendered report equals the serial
        unsharded run's byte for byte.  The poisoned shards ride along as
        :attr:`CampaignResult.failures`, even when no shard completed.
        """
        rows: list[ResultRow] = []
        with self._lock:
            collected = dict(self._rows_csv)
        for k in sorted(collected):
            rows.extend(rows_from_csv(collected[k]))
        return CampaignResult.from_rows(rows, failures=self.failures)


# ----------------------------------------------------------------------
# Worker
# ----------------------------------------------------------------------
class FabricWorker:
    """One fabric worker process: lease, compute, heartbeat, report, repeat.

    Parameters
    ----------
    coordinator:
        ``host:port`` of the coordinator control plane.
    name:
        Worker identity in lease bookkeeping (default ``host-pid``).
    jobs:
        Worker-local parallelism forwarded to :func:`run_campaign`.
    local_cache_path:
        Optional sqlite path of the worker-local cache layer; in-memory
        when omitted.
    backend:
        Evaluation backend override (else the coordinator's hello config).
    poll:
        Seconds between lease polls when nothing is grantable yet.
    """

    def __init__(
        self,
        coordinator: str | tuple[str, int],
        *,
        name: str | None = None,
        jobs: int = 1,
        local_cache_path: str | None = None,
        backend: str | None = None,
        poll: float = 0.2,
        retry: RetryPolicy | None = None,
        on_event: Callable[[str], None] | None = None,
    ) -> None:
        self.name = name or f"{socket.gethostname()}-{os.getpid()}"
        self.jobs = int(jobs)
        self.local_cache_path = local_cache_path
        self.backend = backend
        self.poll = float(poll)
        self.client = RpcClient(
            coordinator,
            name="coordinator",
            timeout=10.0,
            retry=retry if retry is not None else RetryPolicy(
                max_attempts=5, base_delay=0.05, max_delay=2.0, jitter=0.5
            ),
        )
        self.shards_completed = 0
        self.shards_failed = 0
        self._on_event = on_event

    def _log(self, message: str) -> None:
        if self._on_event is not None:
            self._on_event(message)

    def _open_cache(
        self, cache_endpoint: str | None
    ) -> ResultCache | FallbackResultCache:
        local = ResultCache(path=self.local_cache_path)
        if not cache_endpoint:
            return local
        return FallbackResultCache(
            CacheNetClient(cache_endpoint, timeout=5.0),
            local,
            breaker=CircuitBreaker(failure_threshold=3, reset_timeout=2.0),
        )

    def run(self, *, max_shards: int | None = None) -> int:
        """Work until the coordinator reports the campaign finished.

        Returns the number of shards this worker completed.  ``max_shards``
        bounds the take (tests; drain-one-shard invocations).
        """
        hello = self.client.request({"op": "hello", "worker": self.name})
        spec = CampaignSpec.from_payload(dict(hello.get("spec") or {}))
        config = dict(hello.get("config") or {})
        ttl = float(config.get("ttl") or 15.0)
        cache_endpoint = config.get("cache")
        backend = self.backend or config.get("backend")
        cache = self._open_cache(
            cache_endpoint if isinstance(cache_endpoint, str) else None
        )
        try:
            lease_rejections = 0
            while True:
                if max_shards is not None and self.shards_completed >= max_shards:
                    break
                try:
                    reply = self.client.request({"op": "lease", "worker": self.name})
                except RpcError:
                    # A rejected lease request (e.g. a coordinator-side
                    # lease_grant fault) is transient: the shard stayed
                    # pending, so back off and ask again — bounded, so a
                    # genuinely broken coordinator still surfaces.
                    lease_rejections += 1
                    if lease_rejections >= self.client.retry.max_attempts:
                        raise
                    self.client.retry.sleep(lease_rejections)
                    continue
                lease_rejections = 0
                shard = reply.get("shard")
                if shard is None:
                    if reply.get("finished"):
                        break
                    time.sleep(self.poll)
                    continue
                self._run_shard(spec, int(shard), ttl, cache, backend)
        finally:
            stats = self._cache_stats(cache)
            cache.close()
            self.client.close()
            self._log(
                f"worker {self.name}: {self.shards_completed} shard(s) "
                f"completed, {self.shards_failed} failed ({stats})"
            )
        return self.shards_completed

    def _cache_stats(self, cache: ResultCache | FallbackResultCache) -> str:
        if isinstance(cache, FallbackResultCache):
            return (
                f"cache: {cache.remote_hits} remote hits, "
                f"{cache.client.retries} net retries, "
                f"breaker {cache.breaker.state}"
            )
        return f"cache: {cache.stats.hits} hits"

    def _heartbeat_loop(
        self, shard: int, interval: float, stop: threading.Event
    ) -> None:
        while not stop.wait(interval):
            try:
                # A stalled heartbeat thread (sleep action) models exactly
                # the slow-but-alive worker the TTL machinery exists for.
                fault_point(
                    "worker_heartbeat",
                    default="sleep=30",
                    worker=self.name,
                    shard=shard,
                )
                reply = self.client.request(
                    {"op": "renew", "worker": self.name, "shard": shard}
                )
                if not reply.get("renewed"):
                    return  # lease lost (expired + reassigned); stop beating
            except RpcError:
                continue  # transient control-plane outage; keep trying
            except Exception:
                return

    def _run_shard(
        self,
        spec: CampaignSpec,
        shard: int,
        ttl: float,
        cache: ResultCache | FallbackResultCache,
        backend: Any,
    ) -> None:
        self._log(f"worker {self.name}: leased shard {shard}/{spec.n_shards}")
        stop = threading.Event()
        beat = threading.Thread(
            target=self._heartbeat_loop,
            args=(shard, max(ttl / 3.0, 0.05), stop),
            name=f"repro-fabric-heartbeat-{shard}",
            daemon=True,
        )
        beat.start()
        try:
            fault_point(
                "fabric_shard",
                default="raise=RuntimeError",
                worker=self.name,
                shard=shard,
            )
            result = run_campaign(
                spec.shard(shard),
                seeds=spec.seeds,
                search_mode=spec.search_mode,
                max_candidates=spec.max_candidates,
                jobs=self.jobs,
                cache=cache,
                backend=backend if isinstance(backend, str) else None,
            )
            rows_csv = rows_to_csv(list(result.rows))
        except Exception as exc:
            stop.set()
            beat.join(timeout=5.0)
            self.shards_failed += 1
            self._log(
                f"worker {self.name}: shard {shard} failed "
                f"({type(exc).__name__}: {exc})"
            )
            self.client.request(
                {
                    "op": "fail",
                    "worker": self.name,
                    "shard": shard,
                    "error": {"type": type(exc).__name__, "message": str(exc)},
                }
            )
            return
        stop.set()
        beat.join(timeout=5.0)
        stats: dict[str, Any] = {}
        if isinstance(cache, FallbackResultCache):
            stats = {
                "cache_net_retries": cache.client.retries,
                "degraded": cache.degraded,
            }
        self.client.request(
            {
                "op": "complete",
                "worker": self.name,
                "shard": shard,
                "rows_csv": rows_csv,
                "stats": stats,
            }
        )
        self.shards_completed += 1
        self._log(f"worker {self.name}: completed shard {shard}/{spec.n_shards}")
