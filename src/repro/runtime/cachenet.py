"""Remote result cache: a cache server and client over the sqlite store.

A fabric of worker processes wants one *shared* result cache so that a unit
paid for by any worker is free for every other one.  sqlite files do not
span hosts, so this module puts the smallest possible network layer in
front of :class:`~repro.runtime.cache.DiskCache`: four operations over the
JSON-lines transport of :mod:`repro.runtime.rpc`::

    -> {"op": "ping"}                      <- {"ok": true, "server": "repro-cachenet", "v": 1}
    -> {"op": "get", "key": K}             <- {"ok": true, "hit": true, "value": V}
    -> {"op": "put", "key": K, "value": V} <- {"ok": true}
    -> {"op": "stats"}                     <- {"ok": true, "entries": N}

Keys are the content-addressed digests of :mod:`repro.runtime.keys`,
unchanged — a local cache file and the remote store are interchangeable,
which is what makes degradation and back-fill safe.

The transport gives every operation a per-op timeout and bounded retries;
:class:`FallbackResultCache` adds a circuit breaker on top — when the
remote is unreachable the worker silently degrades to its local
:class:`~repro.runtime.cache.ResultCache`, keeps note of what it stored
locally, and back-fills the remote store once a half-open probe succeeds.

Fault sites ``cache_net_send`` / ``cache_net_recv`` (armed via
``REPRO_FAULTS``) model a network edge dying mid-request on either leg of a
cache-net request.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable

from .cache import CacheStats, DiskCache, ResultCache
from .faults import fault_point
from .retry import RetryPolicy
from .rpc import RpcClient, RpcError, RpcServer

__all__ = [
    "PROTOCOL_VERSION",
    "CacheNetServer",
    "CacheNetClient",
    "CircuitBreaker",
    "FallbackResultCache",
]

PROTOCOL_VERSION = 1


class CacheNetServer(RpcServer):
    """Serve one :class:`DiskCache` over the JSON-lines transport.

    The backing cache stays open after :meth:`stop` (the caller owns it).
    """

    def __init__(
        self, cache: DiskCache, *, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.cache = cache
        super().__init__(self._dispatch, host=host, port=port, name="repro-cachenet")

    def _dispatch(self, request: dict[str, Any]) -> dict[str, Any]:
        op = request.get("op")
        if op == "ping":
            return {"ok": True, "server": "repro-cachenet", "v": PROTOCOL_VERSION}
        if op == "get":
            key = request.get("key")
            if not isinstance(key, str):
                return {"ok": False, "error": "get requires a string 'key'"}
            value = self.cache.get(key)
            if value is None:
                return {"ok": True, "hit": False}
            return {"ok": True, "hit": True, "value": value}
        if op == "put":
            key = request.get("key")
            if not isinstance(key, str) or "value" not in request:
                return {"ok": False, "error": "put requires a string 'key' and a 'value'"}
            self.cache.put(key, request["value"])
            return {"ok": True}
        if op == "stats":
            return {"ok": True, "entries": len(self.cache)}
        return {"ok": False, "error": f"unknown op {op!r}"}


class CacheNetClient(RpcClient):
    """Cache-server client: per-op timeouts, bounded retries, fault sites.

    An operation that fails for good raises
    :class:`~repro.runtime.rpc.RpcError`; callers that must survive that
    wrap this client in :class:`FallbackResultCache`.
    """

    def __init__(
        self,
        address: str | tuple[str, int],
        *,
        timeout: float = 5.0,
        retry: RetryPolicy | None = None,
    ) -> None:
        super().__init__(
            address,
            name="cache server",
            timeout=timeout,
            retry=retry if retry is not None else RetryPolicy(
                max_attempts=3, base_delay=0.05, max_delay=2.0, jitter=0.5
            ),
        )

    def _before_send(self, op: str) -> None:
        fault_point("cache_net_send", default="raise=OSError", op=op)

    def _before_recv(self, op: str) -> None:
        fault_point("cache_net_recv", default="raise=OSError", op=op)

    def ping(self) -> dict[str, Any]:
        """Round-trip a ping; returns the server's identification."""
        return self.request({"op": "ping"})

    def get(self, key: str) -> Any | None:
        """Remote lookup; ``None`` on a miss."""
        response = self.request({"op": "get", "key": key})
        return response.get("value") if response.get("hit") else None

    def put(self, key: str, value: Any) -> None:
        """Store a JSON-serializable value remotely."""
        self.request({"op": "put", "key": key, "value": value})

    def stats(self) -> dict[str, Any]:
        """Remote entry count."""
        return self.request({"op": "stats"})


# ----------------------------------------------------------------------
# Circuit breaker + degradation facade
# ----------------------------------------------------------------------
class CircuitBreaker:
    """Classic closed / open / half-open breaker around a flaky dependency.

    ``failure_threshold`` consecutive failures open the circuit; while open,
    every call is refused without touching the dependency.  After
    ``reset_timeout`` seconds one probe call is let through (half-open): its
    success closes the circuit, its failure re-opens it for another window.
    The clock is injectable so tests never sleep.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(
        self,
        *,
        failure_threshold: int = 3,
        reset_timeout: float = 5.0,
        clock: Callable[[], float] | None = None,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(f"failure_threshold must be >= 1, got {failure_threshold}")
        self.failure_threshold = int(failure_threshold)
        self.reset_timeout = float(reset_timeout)
        self._clock: Callable[[], float] = clock if clock is not None else time.monotonic
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def allows(self) -> bool:
        """May a call proceed right now?  (Half-open admits one probe.)"""
        with self._lock:
            if self._state == self.CLOSED:
                return True
            if self._state == self.OPEN:
                if self._clock() - self._opened_at >= self.reset_timeout:
                    self._state = self.HALF_OPEN
                    return True  # this caller is the probe
                return False
            return False  # half-open: a probe is already in flight

    def record_success(self) -> bool:
        """Note a successful call; returns True when it *closed* the circuit."""
        with self._lock:
            reconnected = self._state != self.CLOSED
            self._state = self.CLOSED
            self._consecutive_failures = 0
            return reconnected

    def record_failure(self) -> None:
        """Note a failed call; opens the circuit at the threshold."""
        with self._lock:
            self._consecutive_failures += 1
            if self._state == self.HALF_OPEN or (
                self._state == self.CLOSED
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._state = self.OPEN
                self._opened_at = self._clock()


class FallbackResultCache:
    """A :class:`ResultCache`-shaped cache that degrades from remote to local.

    Reads check the local layers first (free), then the remote store —
    remote hits are promoted locally.  Writes always land locally; the
    remote write is attempted when the breaker allows and *queued for
    back-fill* when it does not, so a cache-server outage costs nothing but
    sharing.  When a half-open probe succeeds, every queued key is replayed
    from the local store to the remote one (keys are content-addressed and
    identical on both sides, so back-fill can never alias).
    """

    def __init__(
        self,
        client: CacheNetClient,
        local: ResultCache,
        *,
        breaker: CircuitBreaker | None = None,
    ) -> None:
        self.client = client
        self.local = local
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self._backlog: list[str] = []
        self._backlog_lock = threading.Lock()
        self.remote_hits = 0
        self.backfilled = 0

    # -- ResultCache interface -----------------------------------------
    @property
    def stats(self) -> CacheStats:
        """Session stats of the local layer (what reports summarize)."""
        return self.local.stats

    @property
    def degraded(self) -> bool:
        """True while the breaker is holding remote traffic off."""
        return self.breaker.state != CircuitBreaker.CLOSED

    def get(self, key: str) -> Any | None:
        value = self.local.get(key)
        if value is not None:
            return value
        if not self.breaker.allows():
            return None
        try:
            value = self.client.get(key)
        except RpcError:
            self.breaker.record_failure()
            return None
        self._note_success()
        if value is None:
            return None
        self.remote_hits += 1
        self.local.put(key, value)
        return value

    def put(self, key: str, value: Any) -> None:
        self.local.put(key, value)
        if not self.breaker.allows():
            self._enqueue(key)
            return
        try:
            self.client.put(key, value)
        except RpcError:
            self.breaker.record_failure()
            self._enqueue(key)
            return
        self._note_success()

    def close(self) -> None:
        """Flush what the outage left behind (best effort), then close."""
        if self.breaker.allows():
            try:
                self.client.ping()
            except RpcError:
                self.breaker.record_failure()
            else:
                self._note_success()
        self.client.close()
        self.local.close()

    def __enter__(self) -> "FallbackResultCache":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- degradation bookkeeping ---------------------------------------
    def _enqueue(self, key: str) -> None:
        with self._backlog_lock:
            if key not in self._backlog:
                self._backlog.append(key)

    @property
    def backlog(self) -> int:
        """Keys written locally during the outage, awaiting back-fill."""
        with self._backlog_lock:
            return len(self._backlog)

    def _note_success(self) -> None:
        if self.breaker.record_success():
            self._backfill()

    def _backfill(self) -> None:
        """Replay outage-era local writes to the reconnected remote store."""
        with self._backlog_lock:
            pending, self._backlog = self._backlog, []
        requeue: list[str] = []
        for index, key in enumerate(pending):
            value = self.local.get(key)
            if value is None:
                continue  # evicted locally; the unit will be recomputed
            try:
                self.client.put(key, value)
            except RpcError:
                self.breaker.record_failure()
                requeue.extend(pending[index:])
                break
            self.backfilled += 1
        if requeue:
            with self._backlog_lock:
                for key in requeue:
                    if key not in self._backlog:
                        self._backlog.append(key)
