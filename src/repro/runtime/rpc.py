"""JSON-lines request/response transport over TCP.

The fabric's two network services share it: the coordinator's control plane
(:mod:`repro.experiments.fabric`) and the remote result cache
(:mod:`repro.runtime.cachenet`).  Each is an :class:`RpcServer` around its
own ``dispatch(request) -> response`` function, each client an
:class:`RpcClient`; stdlib ``socket`` / ``socketserver`` only.

Wire format: one JSON object per line, UTF-8; a client sends a request line
and reads one response line, on a connection it keeps between requests.  A
response carries ``"ok": true``, or ``"ok": false`` and an ``"error"``
string.

Robustness contract:

* every client request has a per-op socket timeout;
* transport failures (connect refused, timeout, torn or malformed line) are
  retried on a fresh connection with the shared bounded-exponential-backoff
  :class:`~repro.runtime.retry.RetryPolicy` (deterministic jitter);
* a request that fails for good raises :class:`RpcError`: after the last
  attempt, or at once when the server rejects it;
* :meth:`RpcServer.stop` looks like a crash to clients: it stops listening
  and severs every live connection, so the next request on one fails.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
from typing import Any, Callable, TypeVar

from .retry import RetryPolicy

__all__ = [
    "RpcClient",
    "RpcError",
    "RpcServer",
    "parse_address",
    "read_message",
    "write_message",
]

#: Upper bound on one protocol line (a whole shard's rows ride the control
#: plane as CSV text).
MAX_LINE_BYTES = 16 * 1024 * 1024

#: Seconds between a serving loop's checks for :meth:`RpcServer.stop`, and
#: so the longest a stop waits for the loop.
POLL_INTERVAL = 0.05

_Server = TypeVar("_Server", bound="RpcServer")
_Client = TypeVar("_Client", bound="RpcClient")


class RpcError(OSError):
    """A request failed for good: unreachable after retries, or rejected."""


def parse_address(text: str) -> tuple[str, int]:
    """Parse a ``host:port`` endpoint string."""
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ValueError(f"endpoint must look like 'host:port', got {text!r}")
    try:
        return host, int(port)
    except ValueError:
        raise ValueError(f"endpoint port must be an integer, got {text!r}") from None


def _encode(payload: dict[str, Any]) -> bytes:
    return json.dumps(payload, separators=(",", ":")).encode("utf-8") + b"\n"


def write_message(wfile: Any, payload: dict[str, Any]) -> None:
    """Write one JSON-line message to a file-like socket writer."""
    wfile.write(_encode(payload))
    wfile.flush()


def read_message(rfile: Any) -> dict[str, Any] | None:
    """Read one JSON-line message; ``None`` on a cleanly closed stream."""
    line = rfile.readline(MAX_LINE_BYTES + 1)
    if not line:
        return None
    if len(line) > MAX_LINE_BYTES:
        raise RpcError(f"protocol line exceeds {MAX_LINE_BYTES} bytes")
    try:
        message = json.loads(line)
    except ValueError as exc:
        raise RpcError(f"malformed protocol line: {exc}") from exc
    if not isinstance(message, dict):
        raise RpcError("protocol line is not a JSON object")
    return message


# ----------------------------------------------------------------------
# Server
# ----------------------------------------------------------------------
class _Handler(socketserver.StreamRequestHandler):
    """One connection: answer request lines until the client hangs up."""

    server: "_TCPServer"

    def handle(self) -> None:
        while True:
            try:
                request = read_message(self.rfile)
            except OSError:
                return
            # Data can still arrive on a severed connection; a stopped
            # server answers none of it.
            if request is None or self.server.stopped:
                return
            try:
                response = self.server.dispatch(request)
            except Exception as exc:  # a bad request must not kill the server
                response = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
            try:
                write_message(self.wfile, response)
            except OSError:
                return


class _TCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        dispatch: Callable[[dict[str, Any]], dict[str, Any]],
    ) -> None:
        self.dispatch = dispatch
        self.stopped = False
        self._connections: set[socket.socket] = set()
        self._conn_lock = threading.Lock()
        super().__init__(address, _Handler)

    # Live connections are tracked so that stop() can sever them.
    def process_request(self, request: Any, client_address: Any) -> None:
        with self._conn_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request: Any) -> None:
        with self._conn_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def sever(self) -> None:
        """Wake every handler blocked on a read; its connection then closes.

        Only the read side is shut: a reply already being written still
        reaches its client.
        """
        with self._conn_lock:
            connections = list(self._connections)
        for sock in connections:
            try:
                sock.shutdown(socket.SHUT_RD)
            except OSError:
                pass


class RpcServer:
    """Thread-per-connection server of one ``dispatch(request) -> response``.

    ``port=0`` binds an ephemeral port; read :attr:`address` after
    construction.  ``name`` names the serving thread.  :meth:`serve_forever` blocks (the CLI path);
    :meth:`start` serves from a daemon thread.  An exception raised by
    ``dispatch`` is answered as ``ok: false`` and leaves the server up.
    """

    def __init__(
        self,
        dispatch: Callable[[dict[str, Any]], dict[str, Any]],
        *,
        host: str,
        port: int,
        name: str,
    ) -> None:
        self._server = _TCPServer((host, port), dispatch)
        self._name = name
        self._serving = False
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` endpoint."""
        host, port = self._server.server_address[:2]
        return str(host), int(port)

    @property
    def endpoint(self) -> str:
        """The bound endpoint as a ``host:port`` string."""
        host, port = self.address
        return f"{host}:{port}"

    def start(self: _Server) -> _Server:
        """Serve from a background daemon thread; returns self."""
        # Marked before the thread runs: a stop() racing this start still
        # waits for the loop, which then exits at once.
        self._serving = True
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            args=(POLL_INTERVAL,),
            name=self._name,
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`stop`."""
        self._serving = True
        self._server.serve_forever(POLL_INTERVAL)

    def stop(self) -> None:
        """Stop listening and sever every live connection (idempotent).

        A stopped server must look like a crashed one to its clients: the
        next request on a connection opened before the stop fails, and so
        does every reconnect.
        """
        self._server.stopped = True
        if self._serving:
            # socketserver's shutdown() waits for a serving loop, so it is
            # only called when one ran.
            self._serving = False
            self._server.shutdown()
        self._server.sever()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None


# ----------------------------------------------------------------------
# Client
# ----------------------------------------------------------------------
class RpcClient:
    """Request/response client with a per-op timeout and bounded retries.

    Transport failures are retried ``retry.max_attempts`` times with the
    policy's backoff, on a new connection each time; ``retries`` counts the
    retries over the client's life.  ``name`` labels the server in error
    messages.  Thread-safe: requests are serialized.
    """

    def __init__(
        self,
        address: str | tuple[str, int],
        *,
        name: str,
        timeout: float,
        retry: RetryPolicy,
    ) -> None:
        self.address = parse_address(address) if isinstance(address, str) else address
        self.name = name
        self.timeout = float(timeout)
        self.retry = retry
        self.retries = 0
        self._sock: socket.socket | None = None
        self._rfile: Any = None
        self._lock = threading.Lock()

    def _before_send(self, op: str) -> None:
        """Called before each request line is sent (a fault-injection hook)."""

    def _before_recv(self, op: str) -> None:
        """Called before each response line is read (a fault-injection hook)."""

    def _round_trip(self, payload: dict[str, Any]) -> dict[str, Any]:
        if self._sock is None:
            self._sock = socket.create_connection(self.address, timeout=self.timeout)
            self._rfile = self._sock.makefile("rb")
        op = str(payload.get("op"))
        self._before_send(op)
        self._sock.sendall(_encode(payload))
        self._before_recv(op)
        response = read_message(self._rfile)
        if response is None:
            raise ConnectionError("connection closed mid-request")
        return response

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
        """One request/response round trip; transport failures are retried."""
        with self._lock:
            for attempt in range(1, self.retry.max_attempts + 1):
                try:
                    response = self._round_trip(payload)
                    break
                except OSError as exc:
                    self._disconnect()
                    if attempt == self.retry.max_attempts:
                        host, port = self.address
                        raise RpcError(
                            f"{self.name} {host}:{port} unreachable after "
                            f"{attempt} attempt(s): {type(exc).__name__}: {exc}"
                        ) from exc
                    self.retries += 1
                    self.retry.sleep(attempt)
        if not response.get("ok"):
            raise RpcError(
                f"{self.name} rejected {payload.get('op')}: "
                f"{response.get('error', 'unknown error')}"
            )
        return response

    def close(self) -> None:
        with self._lock:
            self._disconnect()

    def __enter__(self: _Client) -> _Client:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
