"""Closed-loop load benchmark of the `repro serve` daemon.

Measures what the service subsystem buys over the one-request-at-a-time
baseline on a duplicate-heavy request stream — the workload the daemon is
for (many clients exploring the same families): C client threads each issue
R solve requests drawn round-robin from U unique (family, heuristic) units
over keep-alive HTTP connections against an in-process
:class:`~repro.service.app.BackgroundServer`.

The reference is the same request stream solved serially through direct
:func:`repro.solve_heuristic` calls — no cache, no coalescing, no shared
sweeps — i.e. the cost of scripting the stream against the plain library.
``speedup = direct_serial_seconds / service_seconds``: the service wins by
answering repeats from the content-addressed cache, joining identical
in-flight requests, and sharing one sweep pass across same-linearization
searches (observable in the reported ``sweep_passes``, which stays far
below the request count).

* ``pytest benchmarks/bench_service_load.py`` runs the smoke load and
  writes ``benchmark_results/service_load.json`` (override with
  ``REPRO_BENCH_JSON``), asserting the committed speedup target;
* ``python benchmarks/bench_service_load.py --clients 8 --requests 24
  --output o.json`` runs standalone (the CI smoke step).
  ``benchmarks/check_regression.py`` gates CI on the ``speedup`` leaf.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro import Platform, solve_heuristic
from repro.heuristics.registry import heuristic_rng
from repro.heuristics.search import candidate_counts
from repro.service import BackgroundServer, ServiceConfig
from repro.workflows import pegasus

from _bench_utils import add_output_argument, report_scaffold, write_json_report

#: The unique solve units of the stream: one family instance, six heuristics
#: over two linearizations (so perfect coalescing needs two sweep passes).
#: The size keeps one solve (60-80 ms on the native kernel, 2 vCPUs) well
#: above the daemon's fixed latency per request (its 10 ms batch window and
#: the HTTP round trip), so the ratio measures what the cache and coalescing
#: save, not that latency.  At n = 100 a solve takes 10-15 ms and the ratio
#: read 1.96-2.60 against the 1.88 CI floor; at n = 200 it reads 4.7-6.3.
FAMILY = "montage"
N_TASKS = 200
SEED = 3
HEURISTICS = (
    "DF-CkptW", "DF-CkptC", "DF-CkptD", "DF-CkptPer", "BF-CkptW", "BF-CkptC",
)
DEFAULT_CLIENTS = 4
DEFAULT_REQUESTS = 12
#: Committed speedup floor of the duplicate-heavy smoke load (conservative:
#: the structural win — 48 requests, 6 computations — is far larger).
TARGET_SPEEDUP = 1.5

PLATFORM = Platform.from_platform_rate(1e-3)


def _stream(clients: int, requests: int) -> list[list[dict]]:
    """Per-client request bodies, round-robin over the unique units."""
    return [
        [
            {
                "family": FAMILY,
                "n_tasks": N_TASKS,
                "seed": SEED,
                "heuristic": HEURISTICS[(client * requests + i) % len(HEURISTICS)],
            }
            for i in range(requests)
        ]
        for client in range(clients)
    ]


def _run_client(port: int, bodies: list[dict]) -> list[float]:
    """One closed-loop client: keep-alive connection, blocking round trips."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    makespans: list[float] = []
    try:
        for body in bodies:
            conn.request(
                "POST",
                "/v1/solve",
                body=json.dumps(body),
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            payload = json.loads(response.read())
            if response.status != 200:
                raise RuntimeError(f"solve failed: {payload}")
            makespans.append(payload["expected_makespan"])
    finally:
        conn.close()
    return makespans


def _direct_serial(stream: list[list[dict]]) -> tuple[float, dict[str, float]]:
    """The reference: every request of the stream solved directly, serially."""
    workflow = pegasus.montage(N_TASKS, seed=SEED).with_checkpoint_costs(
        mode="proportional", factor=0.1
    )
    counts = candidate_counts(workflow.n_tasks, mode="exhaustive")
    reference: dict[str, float] = {}
    start = time.perf_counter()
    for bodies in stream:
        for body in bodies:
            result = solve_heuristic(
                workflow,
                PLATFORM,
                body["heuristic"],
                rng=heuristic_rng(SEED, body["heuristic"]),
                counts=counts,
            )
            reference[body["heuristic"]] = result.expected_makespan
    return time.perf_counter() - start, reference


def service_load(clients: int = DEFAULT_CLIENTS, requests: int = DEFAULT_REQUESTS) -> dict:
    """Run the load against a fresh in-process daemon; return the report."""
    stream = _stream(clients, requests)
    total = clients * requests
    direct_seconds, reference = _direct_serial(stream)

    config = ServiceConfig(port=0, workers=2, batch_window=0.01)
    with BackgroundServer(config) as server:
        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=clients) as pool:
            observed = list(
                pool.map(lambda bodies: _run_client(server.port, bodies), stream)
            )
        service_seconds = time.perf_counter() - start
        registry = server.server.registry
        counters = {
            name: registry.get(f"repro_solve_{name}_total").value()
            for name in (
                "requests", "cache_hits", "computed", "coalesced", "sweep_passes",
            )
        }
        latency = registry.get("repro_solve_latency_seconds")
        p50 = latency.quantile(0.5)
        p99 = latency.quantile(0.99)

    # Bit-identity of every response with the direct reference solve.
    for bodies, makespans in zip(stream, observed):
        for body, makespan in zip(bodies, makespans):
            assert makespan == reference[body["heuristic"]], body["heuristic"]
    assert counters["requests"] == total
    assert counters["sweep_passes"] < total, "coalescing never engaged"

    report = report_scaffold(
        "service_load",
        family=FAMILY,
        n_tasks=N_TASKS,
        seed=SEED,
        clients=clients,
        requests_per_client=requests,
        unique_units=len(HEURISTICS),
        heuristics=list(HEURISTICS),
    )
    report["load"] = {
        "total_requests": total,
        "direct_serial_seconds": direct_seconds,
        "service_seconds": service_seconds,
        "speedup": direct_seconds / service_seconds,
        "requests_per_second": total / service_seconds,
        "sweep_passes": int(counters["sweep_passes"]),
        "computed": int(counters["computed"]),
        "cache_hits": int(counters["cache_hits"]),
        "coalesced": int(counters["coalesced"]),
        "solve_latency_p50_seconds": p50,
        "solve_latency_p99_seconds": p99,
    }
    return report


def _print_report(report: dict) -> None:
    load = report["load"]
    print(
        f"{load['total_requests']} requests "
        f"({report['params']['clients']} clients): "
        f"direct {load['direct_serial_seconds']:.2f}s  "
        f"service {load['service_seconds']:.2f}s  "
        f"({load['speedup']:.2f}x, {load['requests_per_second']:.0f} req/s)\n"
        f"sweep passes {load['sweep_passes']}  computed {load['computed']}  "
        f"cache hits {load['cache_hits']}  coalesced {load['coalesced']}  "
        f"p50 {load['solve_latency_p50_seconds'] * 1000:.1f}ms  "
        f"p99 {load['solve_latency_p99_seconds'] * 1000:.1f}ms"
    )


def _json_path() -> Path:
    return Path(
        os.environ.get("REPRO_BENCH_JSON", "benchmark_results/service_load.json")
    )


def test_service_load_json():
    """The duplicate-heavy stream beats serial direct solving by the target."""
    report = service_load()
    path = write_json_report(report, _json_path())
    print(f"\nwrote {path}")
    _print_report(report)
    assert report["load"]["speedup"] >= TARGET_SPEEDUP


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Closed-loop load benchmark of the repro serve daemon."
    )
    parser.add_argument("--clients", type=int, default=DEFAULT_CLIENTS)
    parser.add_argument("--requests", type=int, default=DEFAULT_REQUESTS,
                        help="requests per client")
    add_output_argument(parser)
    args = parser.parse_args(argv)
    report = service_load(args.clients, args.requests)
    _print_report(report)
    if args.output:
        path = write_json_report(report, Path(args.output))
        print(f"wrote {path}")
    else:
        print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
