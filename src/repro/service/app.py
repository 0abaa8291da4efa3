"""The ``repro serve`` daemon: a stdlib-only asyncio HTTP/1.1 server.

Endpoints
---------
``GET /healthz``
    Liveness: ``{"status": "ok", "version": ...}``.
``GET /metrics``
    Prometheus text exposition of the service registry.
``POST /v1/solve``
    Solve one heuristic on one scenario (the JSON mirror of
    ``repro solve`` on a generated family instance); flows through the
    batching queue.  ``{"async": true}`` returns a job id immediately.
``POST /v1/evaluate`` / ``POST /v1/analyse``
    Price / decompose a submitted schedule (the JSON mirrors of
    ``repro evaluate`` / ``repro analyse``).
``GET /v1/jobs/<id>``
    Status and, once finished, the result of an async solve job.

The HTTP layer is deliberately minimal (request line + headers +
``Content-Length`` body, keep-alive, no TLS, no chunked requests): the
daemon's job is to put the existing runtime behind a socket without any new
dependency, not to be a general web server.  Anything non-trivial belongs in
a reverse proxy in front of it.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
import time
import uuid
from dataclasses import dataclass, replace
from typing import Any, Callable

from .. import __version__
from ..runtime.cache import ResultCache
from .batcher import RequestBatcher
from ..obs import MetricsRegistry
from .metrics import build_service_registry
from .planner import ServicePlanner
from .schema import (
    ServiceError,
    parse_analyse_request,
    parse_evaluate_request,
    parse_solve_request,
)

__all__ = ["ServiceConfig", "ServiceServer", "BackgroundServer", "run_server"]

#: Largest accepted request body (a serialized schedule of a very large
#: workflow is well under this; anything bigger is a client error).
MAX_BODY_BYTES = 32 * 1024 * 1024
#: Finished async jobs retained for ``GET /v1/jobs/<id>``.
MAX_FINISHED_JOBS = 256


@dataclass(frozen=True)
class ServiceConfig:
    """Everything ``repro serve`` needs to assemble a server."""

    host: str = "127.0.0.1"
    port: int = 8765
    jobs: int = 1
    workers: int = 2
    cache_path: str | None = None
    cache_memory: int = 4096
    backend: str | None = None
    batch_window: float = 0.0
    queue_max: int = 256
    max_batch: int = 64
    request_timeout: float | None = None


class ServiceServer:
    """Owns the cache, planner, batcher, metrics and the asyncio server."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.registry: MetricsRegistry = build_service_registry()
        self.cache = ResultCache(
            maxsize=config.cache_memory, path=config.cache_path
        )
        self.planner = ServicePlanner(
            cache=self.cache,
            registry=self.registry,
            jobs=config.jobs,
        )
        self.batcher = RequestBatcher(
            self.planner,
            workers=config.workers,
            max_queue=config.queue_max,
            max_batch=config.max_batch,
            batch_window=config.batch_window,
            registry=self.registry,
        )
        self.registry.get("repro_queue_depth").set_callback(
            lambda: float(self.batcher.queue_depth())
        )
        self.registry.get("repro_cache_hit_rate").set_callback(
            self.planner.cache_hit_rate
        )
        self._server: asyncio.AbstractServer | None = None
        self._jobs: dict[str, dict[str, Any]] = {}
        self._job_order: list[str] = []
        self._job_tasks: set[asyncio.Task] = set()
        self.port: int | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the socket (``port=0`` picks an ephemeral port) and serve."""
        await self.batcher.start()
        self._server = await asyncio.start_server(
            self._handle_client, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop accepting, drain in-flight work, release every resource."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in tuple(self._job_tasks):
            task.cancel()
        if self._job_tasks:
            await asyncio.gather(*tuple(self._job_tasks), return_exceptions=True)
        await self.batcher.stop()
        self.planner.close()
        self.cache.close()

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                keep_alive = await self._handle_one_request(reader, writer)
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
            asyncio.LimitOverrunError,
            asyncio.CancelledError,  # server shutdown with the socket open
        ):
            pass  # client went away mid-request; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _handle_one_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        request_line = await reader.readline()
        if not request_line:
            return False
        try:
            method, target, http_version = (
                request_line.decode("latin-1").rstrip("\r\n").split(" ", 2)
            )
        except ValueError:
            await self._respond(
                writer, 400, {"error": {"code": "bad-request", "message": "malformed request line"}},
                endpoint="unknown", keep_alive=False,
            )
            return False
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            length = -1
        if length < 0 or length > MAX_BODY_BYTES:
            await self._respond(
                writer, 413,
                {"error": {"code": "too-large", "message": "invalid or oversized body"}},
                endpoint="unknown", keep_alive=False,
            )
            return False
        body = await reader.readexactly(length) if length else b""
        keep_alive = (
            headers.get("connection", "").lower() != "close"
            and http_version != "HTTP/1.0"
        )
        path = target.split("?", 1)[0]
        endpoint, status, payload, content = await self._route(method, path, body)
        await self._respond(
            writer, status, payload, endpoint=endpoint, keep_alive=keep_alive,
            raw=content,
        )
        return keep_alive

    async def _route(
        self, method: str, path: str, body: bytes
    ) -> tuple[str, int, Any, str | None]:
        """Dispatch one request; returns (endpoint label, status, json, raw)."""
        start = time.perf_counter()
        endpoint = path if path in _ENDPOINT_LABELS else (
            "/v1/jobs" if path.startswith("/v1/jobs/") else "unknown"
        )
        try:
            if path == "/healthz" and method == "GET":
                return self._finish(endpoint, start, 200, {
                    "status": "ok", "version": __version__,
                })
            if path == "/metrics" and method == "GET":
                # Render after counting this scrape, so the scrape itself is
                # visible; latency is observed in _finish like every route.
                status, text = 200, None
                result = self._finish(endpoint, start, status, None)
                text = self.registry.render()
                return result[0], result[1], result[2], text
            if path == "/v1/solve" and method == "POST":
                payload = _parse_body(body)
                request = self._default_backend(parse_solve_request(payload))
                if payload.get("async") is True:
                    job = self._spawn_job(request)
                    return self._finish(endpoint, start, 202, job)
                result = await self._with_timeout(self.batcher.submit(request))
                return self._finish(endpoint, start, 200, result)
            if path == "/v1/evaluate" and method == "POST":
                request = self._default_backend(
                    parse_evaluate_request(_parse_body(body))
                )
                result = await self._with_timeout(
                    asyncio.get_running_loop().run_in_executor(
                        None, self.planner.evaluate, request
                    )
                )
                return self._finish(endpoint, start, 200, result)
            if path == "/v1/analyse" and method == "POST":
                request = self._default_backend(
                    parse_analyse_request(_parse_body(body))
                )
                result = await self._with_timeout(
                    asyncio.get_running_loop().run_in_executor(
                        None, self.planner.analyse, request
                    )
                )
                return self._finish(endpoint, start, 200, result)
            if path.startswith("/v1/jobs/") and method == "GET":
                job_id = path[len("/v1/jobs/"):]
                job = self._jobs.get(job_id)
                if job is None:
                    raise ServiceError(
                        f"unknown job {job_id!r}", status=404, code="not-found"
                    )
                return self._finish(endpoint, start, 200, dict(job))
            raise ServiceError(
                f"no route for {method} {path}", status=404, code="not-found"
            )
        except ServiceError as exc:
            return self._finish(endpoint, start, exc.status, exc.to_payload())
        except ValueError as exc:
            # The library's own rejection of a structurally valid but
            # semantically impossible request (mirrors the CLI's `error:`).
            error = ServiceError(str(exc), status=422, code="unprocessable")
            return self._finish(endpoint, start, error.status, error.to_payload())
        except Exception as exc:  # noqa: BLE001 - the daemon must not die
            error = ServiceError(
                f"internal error: {type(exc).__name__}: {exc}",
                status=500,
                code="internal",
            )
            return self._finish(endpoint, start, error.status, error.to_payload())

    def _default_backend(self, request):
        """Fill in the server's ``--backend`` for requests that omit one."""
        if request.backend is None and self.config.backend is not None:
            return replace(request, backend=self.config.backend)
        return request

    async def _with_timeout(self, awaitable: Any) -> Any:
        """Bound one request by ``--request-timeout`` (None = unbounded).

        A timeout is reported as a retryable 503: the computation budget was
        exhausted *now*, but the same request may well fit once the queue
        drains or the worker pool has healed.
        """
        timeout = self.config.request_timeout
        if timeout is None:
            return await awaitable
        try:
            return await asyncio.wait_for(awaitable, timeout)
        except (asyncio.TimeoutError, TimeoutError) as exc:
            self.registry.get("repro_solve_timeouts_total").inc()
            raise ServiceError(
                f"request exceeded the {timeout:g}s budget",
                status=503,
                code="timeout",
            ) from exc

    def _finish(
        self, endpoint: str, start: float, status: int, payload: Any
    ) -> tuple[str, int, Any, str | None]:
        self.registry.get("repro_requests_total").inc(
            endpoint=endpoint, status=str(status)
        )
        self.registry.get("repro_request_latency_seconds").observe(
            time.perf_counter() - start, endpoint=endpoint
        )
        return endpoint, status, payload, None

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Any,
        *,
        endpoint: str,
        keep_alive: bool,
        raw: str | None = None,
    ) -> None:
        if raw is not None:
            content = raw.encode("utf-8")
            content_type = MetricsRegistry.CONTENT_TYPE
        else:
            content = (json.dumps(payload) + "\n").encode("utf-8")
            content_type = "application/json; charset=utf-8"
        reason = _REASONS.get(status, "OK")
        # Every 503 here is transient by construction (full queue, crashed
        # pool mid-heal, per-request budget): tell well-behaved clients when
        # to come back instead of letting them hammer the recovering server.
        retry_after = "Retry-After: 1\r\n" if status == 503 else ""
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(content)}\r\n"
            f"{retry_after}"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        )
        writer.write(head.encode("latin-1") + content)
        await writer.drain()

    # ------------------------------------------------------------------
    # Async jobs
    # ------------------------------------------------------------------
    def _spawn_job(self, request) -> dict[str, Any]:
        job_id = uuid.uuid4().hex[:16]
        record: dict[str, Any] = {"job_id": job_id, "status": "queued"}
        self._jobs[job_id] = record
        self._job_order.append(job_id)
        while len(self._job_order) > MAX_FINISHED_JOBS:
            stale = self._job_order.pop(0)
            if self._jobs.get(stale, {}).get("status") in ("done", "error"):
                self._jobs.pop(stale, None)
            else:  # still running: keep it, retry eviction later
                self._job_order.append(stale)
                break
        task = asyncio.create_task(self._run_job(job_id, request))
        self._job_tasks.add(task)
        task.add_done_callback(self._job_tasks.discard)
        return dict(record)

    async def _run_job(self, job_id: str, request) -> None:
        record = self._jobs[job_id]
        record["status"] = "running"
        try:
            result = await self.batcher.submit(request)
        except asyncio.CancelledError:
            record["status"] = "error"
            record["error"] = {"code": "shutting-down", "message": "server stopped"}
            raise
        except ServiceError as exc:
            record["status"] = "error"
            record["error"] = exc.to_payload()["error"]
        except Exception as exc:  # noqa: BLE001 - recorded, never raised
            record["status"] = "error"
            record["error"] = {"code": "unprocessable", "message": str(exc)}
        else:
            record["status"] = "done"
            record["result"] = result


_ENDPOINT_LABELS = frozenset(
    {"/healthz", "/metrics", "/v1/solve", "/v1/evaluate", "/v1/analyse"}
)

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def _parse_body(body: bytes) -> Any:
    try:
        return json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ServiceError(f"request body is not valid JSON: {exc}") from exc


async def _serve(config: ServiceConfig, ready: Callable[[ServiceServer], None] | None) -> None:
    server = ServiceServer(config)
    await server.start()
    if ready is not None:
        ready(server)
    # Explicit handlers instead of relying on KeyboardInterrupt: they give
    # SIGTERM the same graceful stop, and they still fire when the daemon
    # was started as a shell background job (where SIGINT is inherited as
    # ignored and no KeyboardInterrupt would ever be raised).
    loop = asyncio.get_running_loop()
    stop_requested = asyncio.Event()
    installed: list[int] = []
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop_requested.set)
            installed.append(signum)
        except (NotImplementedError, RuntimeError, ValueError):
            pass  # non-Unix loop: fall back to KeyboardInterrupt
    serving = asyncio.ensure_future(server.serve_forever())
    stopping = asyncio.ensure_future(stop_requested.wait())
    try:
        await asyncio.wait({serving, stopping}, return_when=asyncio.FIRST_COMPLETED)
    except asyncio.CancelledError:
        pass
    finally:
        for signum in installed:
            loop.remove_signal_handler(signum)
        for task in (serving, stopping):
            task.cancel()
        await asyncio.gather(serving, stopping, return_exceptions=True)
        await server.stop()


def run_server(
    config: ServiceConfig,
    *,
    announce: Callable[[str], None] | None = None,
) -> int:
    """Run the daemon until interrupted (the ``repro serve`` entry point)."""

    def ready(server: ServiceServer) -> None:
        if announce is not None:
            announce(f"http://{config.host}:{server.port}")

    try:
        asyncio.run(_serve(config, ready))
    except KeyboardInterrupt:
        pass
    return 0


class BackgroundServer:
    """A :class:`ServiceServer` on its own event-loop thread.

    For tests and the load benchmark: start, read ``url``, make blocking
    HTTP requests from any number of client threads, stop.  Usable as a
    context manager.
    """

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config if config is not None else ServiceConfig(port=0)
        self.server: ServiceServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    @property
    def port(self) -> int:
        assert self.server is not None and self.server.port is not None
        return self.server.port

    @property
    def url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    def start(self) -> "BackgroundServer":
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._startup_error is not None:
            raise RuntimeError("service failed to start") from self._startup_error
        if self.server is None or self.server.port is None:
            raise RuntimeError("service failed to start within 30s")
        return self

    def _run(self) -> None:
        async def main() -> None:
            try:
                self.server = ServiceServer(self.config)
                await self.server.start()
            except BaseException as exc:  # noqa: BLE001 - surfaced to start()
                self._startup_error = exc
                self._ready.set()
                raise
            self._loop = asyncio.get_running_loop()
            self._ready.set()
            try:
                await self.server.serve_forever()
            except asyncio.CancelledError:
                pass
            finally:
                await self.server.stop()

        try:
            asyncio.run(main())
        except BaseException:  # noqa: BLE001 - thread must not propagate
            pass

    def stop(self) -> None:
        loop, thread = self._loop, self._thread
        if loop is not None and thread is not None and thread.is_alive():
            # Cancelling every task unwinds serve_forever and runs stop().
            def shutdown() -> None:
                for task in asyncio.all_tasks(loop):
                    task.cancel()

            loop.call_soon_threadsafe(shutdown)
            thread.join(timeout=30)
        self._loop = None
        self._thread = None

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
