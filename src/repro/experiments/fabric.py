"""Distributed campaign fabric: coordinator, workers, and the wire spec.

``repro fabric`` runs one campaign across many worker processes (or hosts)
with the robustness layer the single-process runtime cannot provide:

* the **coordinator** (:class:`FabricCoordinator`) owns the campaign spec,
  partitions it into its ``N`` deterministic shards, and hands them out as
  TTL leases through :class:`~repro.runtime.leases.LeaseQueue` — dead or
  stalled workers are detected by lease expiry and their shards reassigned,
  with bounded-attempt poison-shard quarantine;
* **workers** (:class:`FabricWorker`) request leases over a JSON-lines TCP
  control plane, renew them from a heartbeat thread, run their shard through
  the ordinary :func:`~repro.experiments.campaign.run_campaign`, and ship
  the resulting rows back as CSV text;
* shard completions are journaled into the PR 7
  :class:`~repro.runtime.journal.CampaignJournal` (keyed by
  :func:`~repro.runtime.keys.fabric_shard_key`), so ``--resume`` after a
  *coordinator* crash re-leases only the unfinished shards;
* workers share results through the cache-net remote cache
  (:mod:`repro.runtime.cachenet`), degrading to their local cache when the
  cache server is unreachable.

Determinism contract: shards split *whole* scenarios (every seed and
heuristic of a grid point stays together), each shard's rows are computed by
the same serial reference path as ``repro campaign --shard k/N``, and the
coordinator re-assembles them in shard order — the merged report is
byte-identical to a serial unsharded run, whatever died along the way.
"""

from __future__ import annotations

import json
import os
import socket
import socketserver
import threading
import time
from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable

from ..core.hashing import digest
from ..heuristics.registry import HEURISTIC_NAMES
from ..runtime.cache import ResultCache
from ..runtime.cachenet import (
    CacheNetClient,
    CircuitBreaker,
    FallbackResultCache,
    parse_address,
    read_message,
    write_message,
)
from ..runtime.faults import fault_point
from ..runtime.journal import CampaignJournal
from ..runtime.keys import fabric_shard_key
from ..runtime.leases import POISON, LeaseQueue, ShardLease
from ..runtime.retry import RetryPolicy
from ..service.metrics import MetricsRegistry, build_fabric_registry
from .campaign import CampaignResult, run_campaign
from .harness import ResultRow
from .reporting import rows_from_csv, rows_to_csv
from .scenarios import Scenario, lambda_downtime_grid, scenario_grid, shard_scenarios

__all__ = [
    "FabricError",
    "FabricSpec",
    "FabricCoordinator",
    "FabricWorker",
    "ControlClient",
    "FABRIC_PROTOCOL_VERSION",
]

#: Wire protocol version of the coordinator control plane.
FABRIC_PROTOCOL_VERSION = 1


class FabricError(RuntimeError):
    """A fabric control-plane operation failed for good."""


# ----------------------------------------------------------------------
# The campaign spec, as the coordinator ships it to workers
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FabricSpec:
    """Content of one fabric campaign: the grid, the seeds, the budget.

    Mirrors the grid-building arguments of ``repro campaign`` exactly, so a
    fabric run and a serial ``repro campaign`` over the same arguments
    enumerate the same scenarios in the same deterministic order — the
    foundation of the byte-identity contract.  The evaluation backend stays
    *out* of the spec (and its digest) and rides the worker config instead.
    Backends agree within 1e-9 relative, not bit for bit, so the merged
    report is byte-identical to a serial run only when every worker
    resolves to the same backend as that run.
    """

    families: tuple[str, ...] = ("montage",)
    sizes: tuple[int, ...] = (30, 60)
    downtimes: tuple[float, ...] | None = None
    processors: tuple[int, ...] | None = None
    preset: str = "grid"
    seeds: tuple[int, ...] = (0, 1, 2)
    heuristics: tuple[str, ...] = field(default_factory=tuple)
    checkpoint_mode: str = "proportional"
    checkpoint_factor: float = 0.1
    checkpoint_value: float = 0.0
    search_mode: str = "geometric"
    max_candidates: int = 30
    n_shards: int = 2

    def __post_init__(self) -> None:
        if self.preset not in ("grid", "lambda-downtime"):
            raise ValueError(f"unknown preset {self.preset!r}")
        if self.n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {self.n_shards}")
        if not self.families:
            raise ValueError("at least one family is required")
        if not self.sizes:
            raise ValueError("at least one size is required")
        if not self.seeds:
            raise ValueError("at least one seed is required")
        if not self.heuristics:
            object.__setattr__(self, "heuristics", tuple(HEURISTIC_NAMES))

    def scenarios(self) -> list[Scenario]:
        """The full (unsharded) scenario list, in deterministic grid order."""
        if self.preset == "lambda-downtime":
            preset_kwargs: dict[str, Any] = {}
            if self.downtimes is not None:
                preset_kwargs["downtimes"] = self.downtimes
            if self.processors is not None:
                preset_kwargs["processors"] = self.processors
            return lambda_downtime_grid(
                self.families,
                n_tasks=self.sizes[0],
                checkpoint_mode=self.checkpoint_mode,
                checkpoint_factor=self.checkpoint_factor,
                checkpoint_value=self.checkpoint_value,
                heuristics=self.heuristics,
                **preset_kwargs,
            )
        return scenario_grid(
            self.families,
            self.sizes,
            downtimes=self.downtimes if self.downtimes is not None else (0.0,),
            processors=self.processors if self.processors is not None else (1,),
            checkpoint_mode=self.checkpoint_mode,
            checkpoint_factor=self.checkpoint_factor,
            checkpoint_value=self.checkpoint_value,
            heuristics=self.heuristics,
            label="campaign",
        )

    def shard(self, k: int) -> list[Scenario]:
        """Deterministic shard ``k`` (1-based) of :attr:`n_shards`."""
        return shard_scenarios(self.scenarios(), k, self.n_shards)

    def to_payload(self) -> dict[str, Any]:
        """JSON-serializable wire form (lossless round-trip)."""
        payload: dict[str, Any] = {}
        for spec_field in fields(self):
            value = getattr(self, spec_field.name)
            payload[spec_field.name] = list(value) if isinstance(value, tuple) else value
        return payload

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "FabricSpec":
        """Rebuild a spec from :meth:`to_payload` output (strict)."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(f"unknown fabric spec field(s) {unknown}")
        kwargs: dict[str, Any] = {}
        for spec_field in fields(cls):
            if spec_field.name not in payload:
                continue
            value = payload[spec_field.name]
            kwargs[spec_field.name] = tuple(value) if isinstance(value, list) else value
        return cls(**kwargs)

    def content_digest(self) -> str:
        """Content digest of the spec (enters every shard's journal key)."""
        return digest({"fabric-spec": self.to_payload()})

    def with_updates(self, **kwargs: Any) -> "FabricSpec":
        return replace(self, **kwargs)


# ----------------------------------------------------------------------
# Control-plane client (shared by workers and tests)
# ----------------------------------------------------------------------
class ControlClient:
    """JSON-lines client of the coordinator with per-op timeout + retries."""

    def __init__(
        self,
        address: str | tuple[str, int],
        *,
        timeout: float = 10.0,
        retry: RetryPolicy | None = None,
    ) -> None:
        self.address = parse_address(address) if isinstance(address, str) else address
        self.timeout = float(timeout)
        self.retry = retry if retry is not None else RetryPolicy(
            max_attempts=5, base_delay=0.05, max_delay=2.0, jitter=0.5
        )
        self._sock: socket.socket | None = None
        self._rfile: Any = None
        self._lock = threading.Lock()

    def _connect(self) -> socket.socket:
        if self._sock is None:
            sock = socket.create_connection(self.address, timeout=self.timeout)
            sock.settimeout(self.timeout)
            self._sock = sock
            self._rfile = sock.makefile("rb")
        return self._sock

    def _disconnect(self) -> None:
        for closer in (self._rfile, self._sock):
            if closer is not None:
                try:
                    closer.close()
                except OSError:
                    pass
        self._rfile = None
        self._sock = None

    def request(self, payload: dict[str, Any]) -> dict[str, Any]:
        """One request/response round-trip; transport failures are retried."""
        with self._lock:
            failures = 0
            while True:
                try:
                    sock = self._connect()
                    sock.sendall(
                        json.dumps(payload, separators=(",", ":")).encode("utf-8")
                        + b"\n"
                    )
                    response = read_message(self._rfile)
                except (OSError, TimeoutError) as exc:
                    self._disconnect()
                    failures += 1
                    if failures >= self.retry.max_attempts:
                        raise FabricError(
                            f"coordinator {self.address[0]}:{self.address[1]} "
                            f"unreachable after {failures} attempt(s): "
                            f"{type(exc).__name__}: {exc}"
                        ) from exc
                    self.retry.sleep(failures)
                    continue
                if response is None:
                    self._disconnect()
                    failures += 1
                    if failures >= self.retry.max_attempts:
                        raise FabricError("coordinator closed the connection")
                    self.retry.sleep(failures)
                    continue
                if not response.get("ok"):
                    raise FabricError(
                        f"coordinator rejected {payload.get('op')}: "
                        f"{response.get('error', 'unknown error')}"
                    )
                return response

    def close(self) -> None:
        with self._lock:
            self._disconnect()


# ----------------------------------------------------------------------
# Coordinator
# ----------------------------------------------------------------------
class _FabricRequestHandler(socketserver.StreamRequestHandler):
    server: "_FabricTCPServer"

    def handle(self) -> None:
        while True:
            try:
                request = read_message(self.rfile)
            except (OSError, ValueError):
                return
            if request is None:
                return
            try:
                response = self.server.coordinator._dispatch(request)
            except Exception as exc:
                response = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
            try:
                write_message(self.wfile, response)
            except OSError:
                return


class _FabricTCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(
        self, address: tuple[str, int], coordinator: "FabricCoordinator"
    ) -> None:
        super().__init__(address, _FabricRequestHandler)
        self.coordinator = coordinator


class FabricCoordinator:
    """Own one fabric campaign: lease shards out, collect rows, merge.

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
        Optional evaluation backend name forwarded to workers (results are
        backend-agnostic; this is a deployment knob, not campaign content).
    registry:
        Optional :class:`MetricsRegistry`; defaults to a fresh
        :func:`build_fabric_registry` wired to the lease queue.
    """

    def __init__(
        self,
        spec: FabricSpec,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        ttl: float = 15.0,
        max_attempts: int = 3,
        journal: CampaignJournal | str | os.PathLike[str] | None = None,
        cache_endpoint: str | None = None,
        backend: str | None = None,
        registry: MetricsRegistry | None = None,
        sweep_interval: float = 0.05,
    ) -> None:
        self.spec = spec
        self.ttl = float(ttl)
        self.cache_endpoint = cache_endpoint
        self.backend = backend
        self.sweep_interval = float(sweep_interval)
        self.queue = LeaseQueue(spec.n_shards, ttl=ttl, max_attempts=max_attempts)
        self.journal = (
            journal
            if isinstance(journal, CampaignJournal) or journal is None
            else CampaignJournal(journal)
        )
        self._spec_digest = spec.content_digest()
        self._rows_csv: dict[int, str] = {}
        self._lock = threading.Lock()
        self._counters_seen: dict[str, int] = {}
        self._last_report_degraded = False
        self.registry = registry if registry is not None else build_fabric_registry(
            active_leases=lambda: float(self.queue.active_leases),
            pending_shards=lambda: float(
                sum(1 for s in self.queue.snapshot().values() if s[0] == "pending")
            ),
            breaker_open=lambda: 1.0 if self._last_report_degraded else 0.0,
        )
        self._replay_journal()
        self._server = _FabricTCPServer((host, port), self)
        self._server_thread: threading.Thread | None = None

    # -- lifecycle -----------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        host, port = self._server.server_address[:2]
        return str(host), int(port)

    @property
    def endpoint(self) -> str:
        host, port = self.address
        return f"{host}:{port}"

    def start(self) -> "FabricCoordinator":
        """Serve the control plane from a background thread; returns self."""
        thread = threading.Thread(
            # A tight poll keeps shutdown() latency (and thus the cost of a
            # short-lived coordinator) well under socketserver's 0.5s default.
            target=lambda: self._server.serve_forever(poll_interval=0.05),
            name="repro-fabric",
            daemon=True,
        )
        thread.start()
        self._server_thread = thread
        return self

    def serve(self, *, timeout: float | None = None) -> None:
        """Block until every shard is done or poisoned (then stop serving).

        ``timeout`` bounds the wait in seconds — with no live workers a
        lease-based queue would otherwise wait forever for a reassignment
        that never comes.
        """
        deadline = time.monotonic() + timeout if timeout is not None else None
        try:
            while not self.queue.finished:
                if deadline is not None and time.monotonic() >= deadline:
                    raise TimeoutError(
                        f"fabric campaign did not finish within {timeout}s "
                        f"(shards: {self.queue.snapshot()})"
                    )
                time.sleep(self.sweep_interval)
                self.queue.expire()
                self._sync_counters()
        finally:
            self._sync_counters()
            self.stop()

    def stop(self) -> None:
        """Stop the control plane (idempotent); the journal stays open."""
        try:
            self._server.shutdown()
            self._server.server_close()
        except OSError:  # pragma: no cover - double close on teardown paths
            pass
        if self._server_thread is not None:
            self._server_thread.join(timeout=5.0)
            self._server_thread = None

    def close(self) -> None:
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
            self._sync_counters()
            if lease is None:
                return {"ok": True, "shard": None, "finished": self.queue.finished}
            return {
                "ok": True,
                "shard": lease.shard,
                "n_shards": lease.n_shards,
                "attempt": lease.attempts,
            }
        if op == "renew":
            renewed = self.queue.renew(worker, int(request.get("shard", 0)))
            self._sync_counters()
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
            self._sync_counters()
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
        self._sync_counters()
        return {"ok": True, "accepted": first}

    def _sync_counters(self) -> None:
        """Fold the queue's lifetime counters into the metrics registry."""
        snapshot = {
            "repro_fabric_leases_granted_total": self.queue.granted,
            "repro_fabric_lease_renewals_total": self.queue.renewals,
            "repro_fabric_lease_expirations_total": self.queue.expirations,
            "repro_fabric_shard_reassignments_total": self.queue.reassignments,
            "repro_fabric_shards_completed_total": self.queue.completions,
            "repro_fabric_shards_poisoned_total": len(self.queue.poisoned),
        }
        with self._lock:
            for name, total in snapshot.items():
                seen = self._counters_seen.get(name, 0)
                if total > seen:
                    self.registry.get(name).inc(total - seen)
                    self._counters_seen[name] = total

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
        unsharded run's byte for byte.
        """
        rows: list[ResultRow] = []
        with self._lock:
            collected = dict(self._rows_csv)
        for k in sorted(collected):
            rows.extend(rows_from_csv(collected[k]))
        if not rows and self.failures:
            raise FabricError(
                "no shard completed: "
                + "; ".join(lease.describe() for lease in self.failures)
            )
        return CampaignResult.from_rows(rows)


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
        self.client = ControlClient(coordinator, retry=retry)
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
        spec = FabricSpec.from_payload(dict(hello.get("spec") or {}))
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
                except FabricError:
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
            except FabricError:
                continue  # transient control-plane outage; keep trying
            except Exception:
                return

    def _run_shard(
        self,
        spec: FabricSpec,
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
