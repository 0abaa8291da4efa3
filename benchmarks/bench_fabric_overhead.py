"""Overhead benchmark of the distributed campaign fabric.

Measures what the fabric control plane costs over running the identical
campaign in-process: the same small grid is evaluated (a) directly through
:func:`repro.experiments.run_campaign` and (b) through a loopback
:class:`~repro.experiments.fabric.FabricCoordinator` with two
:class:`~repro.experiments.fabric.FabricWorker` threads leasing one shard
each over the JSON-lines TCP control plane.

``speedup = inprocess_seconds / fabric_seconds``.  With two workers on a
two-shard grid the fabric roughly breaks even on this smoke load (the
shards are small enough that lease/heartbeat/transfer overhead is visible);
the committed target is a deliberately conservative floor — the gate exists
to catch the control plane becoming pathologically chatty (per-row round
trips, busy-wait polling), not to promise distributed speedup on a
seconds-long grid.  The report also asserts the byte-identity contract:
the merged fabric report must render identically to the serial one.

* ``pytest benchmarks/bench_fabric_overhead.py`` runs the smoke load and
  writes ``benchmark_results/fabric_overhead.json`` (override with
  ``REPRO_BENCH_JSON``), asserting the committed speedup floor;
* ``python benchmarks/bench_fabric_overhead.py --output o.json`` runs
  standalone (the CI smoke step).  ``benchmarks/check_regression.py``
  gates CI on the ``speedup`` leaf.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.experiments import CampaignSpec, run_campaign
from repro.experiments.fabric import FabricCoordinator, FabricWorker

from _bench_utils import add_output_argument, write_json_report, report_scaffold

#: One scenario per shard, two shards: both workers get real work and the
#: byte-identity comparison still covers a multi-scenario merge.  The sizes
#: keep the in-process run near 0.25 s, so the coordinator's fixed latency
#: (up to 50 ms of completion polling and 50 ms of shutdown) does not
#: dominate the ratio.
SPEC = CampaignSpec(
    families=("montage",),
    sizes=(60, 100),
    seeds=(0, 1, 2),
    heuristics=(
        "DF-CkptNvr", "DF-CkptAlws", "DF-CkptW", "BF-CkptW", "DF-CkptC", "BF-CkptC",
    ),
    search_mode="geometric",
    max_candidates=12,
    n_shards=2,
)
DEFAULT_WORKERS = 2
#: Committed speedup floor (fabric vs in-process, same grid).  Conservative:
#: observed parity is ~1.0x; the floor only trips on control-plane blowups.
TARGET_SPEEDUP = 0.4


def _serial_seconds() -> tuple[float, str]:
    start = time.perf_counter()
    result = run_campaign(
        SPEC.scenarios(),
        seeds=SPEC.seeds,
        search_mode=SPEC.search_mode,
        max_candidates=SPEC.max_candidates,
    )
    return time.perf_counter() - start, result.render()


def _fabric_seconds(workers: int) -> tuple[float, str, dict[str, float]]:
    start = time.perf_counter()
    coordinator = FabricCoordinator(SPEC, ttl=30.0).start()
    try:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(
                    FabricWorker(
                        coordinator.address, name=f"bench-{i}", poll=0.01
                    ).run
                )
                for i in range(workers)
            ]
            coordinator.serve(timeout=300.0)
            completed = sum(f.result() for f in futures)
        elapsed = time.perf_counter() - start
        assert completed == SPEC.n_shards, f"completed {completed} shards"
        counters = {
            name: coordinator.registry.get(f"repro_fabric_{name}_total").value()
            for name in ("leases_granted", "lease_renewals", "shards_completed")
        }
        return elapsed, coordinator.result().render(), counters
    finally:
        coordinator.close()


def fabric_overhead(workers: int = DEFAULT_WORKERS) -> dict:
    """Run both paths over the same grid; return the report."""
    serial_seconds, serial_report = _serial_seconds()
    fabric_seconds, fabric_report, counters = _fabric_seconds(workers)

    # Byte-identity: the distributed merge must not perturb the report.
    assert fabric_report == serial_report, "fabric report diverged from serial"

    report = report_scaffold(
        "fabric_overhead",
        families=list(SPEC.families),
        sizes=list(SPEC.sizes),
        seeds=list(SPEC.seeds),
        heuristics=list(SPEC.heuristics),
        max_candidates=SPEC.max_candidates,
        n_shards=SPEC.n_shards,
        workers=workers,
    )
    report["overhead"] = {
        "inprocess_seconds": serial_seconds,
        "fabric_seconds": fabric_seconds,
        "speedup": serial_seconds / fabric_seconds,
        "leases_granted": int(counters["leases_granted"]),
        "lease_renewals": int(counters["lease_renewals"]),
        "shards_completed": int(counters["shards_completed"]),
        "reports_identical": True,
    }
    return report


def _print_report(report: dict) -> None:
    overhead = report["overhead"]
    print(
        f"{report['params']['n_shards']} shards / "
        f"{report['params']['workers']} workers: "
        f"in-process {overhead['inprocess_seconds']:.2f}s  "
        f"fabric {overhead['fabric_seconds']:.2f}s  "
        f"({overhead['speedup']:.2f}x)\n"
        f"leases granted {overhead['leases_granted']}  "
        f"renewals {overhead['lease_renewals']}  "
        f"shards completed {overhead['shards_completed']}  "
        f"reports identical: {overhead['reports_identical']}"
    )


def _json_path() -> Path:
    return Path(
        os.environ.get("REPRO_BENCH_JSON", "benchmark_results/fabric_overhead.json")
    )


def test_fabric_overhead_json():
    """The fabric control plane stays within the committed overhead floor."""
    report = fabric_overhead()
    path = write_json_report(report, _json_path())
    print(f"\nwrote {path}")
    _print_report(report)
    assert report["overhead"]["speedup"] >= TARGET_SPEEDUP


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Overhead benchmark of the distributed campaign fabric."
    )
    parser.add_argument("--workers", type=int, default=DEFAULT_WORKERS)
    add_output_argument(parser)
    args = parser.parse_args(argv)
    report = fabric_overhead(args.workers)
    _print_report(report)
    if args.output:
        path = write_json_report(report, Path(args.output))
        print(f"wrote {path}")
    else:
        print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
