"""Open-loop HTTP load generator for serve-open.

Requests are due on a fixed schedule, whatever the server does; two
keep-alive connections carry them (request ``i`` on connection ``i % 2``),
each from its own thread.  A request is timed from its due time, so a
stalled connection charges its wait to the requests queued behind it, and
the generator reports how late it sent each request.
"""

from __future__ import annotations

import http.client
import json
import threading
import time

import hostspeed

CONNECTIONS = 2
#: A lane probes the host only when nothing is outstanding and the next
#: request is due at least this many seconds later.
PROBE_SLACK_S = 0.03


def post(port: int, path: str, body: str, timeout: float) -> tuple[int, dict]:
    """One request on a fresh connection (warm-up and checks)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("POST", path, body, {"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def scrape(port: int, timeout: float = 30.0) -> dict[str, float]:
    """Sum of every ``/metrics`` sample per metric name, plus error counts.

    ``repro_requests_total`` is also split into ``requests_errors`` (status
    >= 400) so request failures can be counted server-side.
    """
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", "/metrics")
        text = conn.getresponse().read().decode()
    finally:
        conn.close()
    totals: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        sample, _, value = line.rpartition(" ")
        name, _, labels = sample.partition("{")
        totals[name] = totals.get(name, 0.0) + float(value)
        if name == "repro_requests_total" and 'status="' in labels:
            status = int(labels.split('status="', 1)[1].split('"', 1)[0])
            if status >= 400:
                totals["requests_errors"] = totals.get("requests_errors", 0.0) + float(value)
    return totals


def run_stream(
    port: int, requests, timeout: float, probes: list | None = None
) -> tuple[float, list[dict]]:
    """Send the stream; returns (stream start, one result dict per request).

    Each result has ``due`` / ``sent`` / ``done`` (``time.monotonic``),
    ``status`` (None on a transport error or timeout) and ``response``.
    With a ``probes`` list, a lane that has just received a response runs
    a host-speed probe while the server is idle (no request outstanding,
    the next one not due for ``PROBE_SLACK_S``) and appends its
    ``(start, seconds)`` to the list.
    """
    results: list[dict] = [{} for _ in requests]
    start = time.monotonic() + 0.2  # let both threads reach their first wait
    lock = threading.Lock()
    outstanding = [0]

    def idle_probe(index: int) -> None:
        following = start + requests[index + 1].due if index + 1 < len(requests) else None
        with lock:
            now = time.monotonic()
            idle = outstanding[0] == 0 and (
                following is None or following - now >= PROBE_SLACK_S
            )
        if idle:
            probes.append((now, hostspeed.probe()))

    def worker(lane: int) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
        try:
            for index in range(lane, len(requests), CONNECTIONS):
                request = requests[index]
                due = start + request.due
                delay = due - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                with lock:
                    outstanding[0] += 1
                sent = time.monotonic()
                status, response = None, {}
                try:
                    conn.request(
                        "POST", "/v1/solve", request.body,
                        {"Content-Type": "application/json"},
                    )
                    reply = conn.getresponse()
                    payload = reply.read()
                    status = reply.status
                    response = json.loads(payload)
                except (OSError, http.client.HTTPException, ValueError):
                    conn.close()
                    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
                results[index] = {
                    "body": request.body,
                    "fresh": request.fresh,
                    "sample": request.sample,
                    "due": due,
                    "sent": sent,
                    "done": time.monotonic(),
                    "status": status,
                    "response": response,
                }
                with lock:
                    outstanding[0] -= 1
                if probes is not None:
                    idle_probe(index)
        finally:
            conn.close()

    threads = [threading.Thread(target=worker, args=(lane,)) for lane in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return start, results

