"""Program-process launcher: one benchmark pass in a fresh interpreter.

Usage (the benchmark spawns this; ``--root`` is the checkout)::

    python3 perfbench/launch.py --root . --workload paper-sweep \\
        --instance-seed 3000 --workdir DIR [--scale full] [--trace SPANS] \\
        [--setup-only] [--probe] [--cpu N]

Protocol on stdout, one line each, flushed:

* ``PERFBENCH META {json}`` -- native build, backends, versions;
* ``PERFBENCH READY <monotonic>`` -- set-up done, the first unit can run
  (``--setup-only`` exits here);
* ``PERFBENCH DONE <monotonic>`` -- every unit done and its report written;
* ``PERFBENCH PROBES [[<monotonic>, <seconds>], ...]`` -- with ``--probe``:
  the host-speed probes (``hostspeed.Prober``) run in this process from its
  start; printed at exit, or right after READY for ``--setup-only`` and
  ``serve-open`` (the server itself is never probed).

``serve-open`` runs ``repro serve`` instead; its readiness is the
program's own ``repro service listening on`` line and it runs until
SIGTERM.  Timestamps are ``time.monotonic()``, which the benchmark process
shares on Linux.  With ``--trace`` the layer wrappers of ``spans.py`` are
installed before the first unit and the spans are written at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--instance-seed", type=int, default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--trace", default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--probe", action="store_true", help="run host-speed probes")
    parser.add_argument("--cpu", type=int, default=None,
                        help="pin this process (and its children) to one CPU")
    args = parser.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.abspath(args.root), "src"))
    sys.path.insert(1, here)
    import hostspeed

    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    prober = hostspeed.Prober() if args.probe else None
    if prober is not None:
        prober.start()
    try:
        return run(args, prober)
    finally:
        finish(prober)


def finish(prober) -> None:
    """Stop probing and print the probes (once)."""
    if prober is not None and prober.running:
        prober.stop()
        print("PERFBENCH PROBES " + json.dumps(prober.records), flush=True)


def run(args: argparse.Namespace, prober) -> int:
    """Set up the program, print READY, then run the workload's pass."""
    imported = time.monotonic()
    import repro.cli

    if args.workload == "serve-open":
        import repro.service.app  # noqa: F401  (imported by `repro serve` too)
    import numpy
    from repro.core.backend import BACKEND_REGISTRY
    from repro.core.evaluator_native import load_kernels

    loading = time.monotonic()
    kernels = load_kernels()
    loaded = time.monotonic()

    import workloads

    scale = workloads.SCALES[args.scale]
    sizes = {
        "paper-sweep": (scale.sweep_tasks,),
        "campaign-small": scale.campaign_sizes,
        "serve-open": scale.serve_sizes,
    }[args.workload]
    meta = {
        "backend_by_size": {
            str(n): BACKEND_REGISTRY.resolve(None, n_tasks=n).name for n in sizes
        },
        "native_build": os.path.basename(str(kernels.path)),
        "openmp": bool(kernels.openmp),
        "fill_threads": kernels.fill_threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "setup.import_s": loading - imported,
        "setup.native_load_s": loaded - loading,
    }
    tracer = None
    if args.trace:
        import spans

        tracer = spans.install(kernels)
    print("PERFBENCH META " + json.dumps(meta), flush=True)
    print(f"PERFBENCH READY {time.monotonic()!r}", flush=True)
    if args.setup_only or args.workload == "serve-open":
        finish(prober)
    if args.setup_only:
        return 0

    exit_code = 0
    try:
        if args.workload == "paper-sweep":
            unit = None if tracer is None else (
                lambda fn: tracer.wrap("perfbench.unit", fn, root=True)
            )
            records = workloads.run_paper_sweep(scale, args.instance_seed, unit=unit)
            with open(os.path.join(args.workdir, "sweep.json"), "w") as out:
                json.dump(records, out)
        elif args.workload == "campaign-small":
            exit_code = repro.cli.main(
                workloads.campaign_argv(scale, args.instance_seed, args.workdir)
            )
        elif args.workload == "serve-open":
            exit_code = repro.cli.main(["serve", "--port", "0"])
        else:
            raise SystemExit(f"unknown workload {args.workload!r}")
        print(f"PERFBENCH DONE {time.monotonic()!r}", flush=True)
    finally:
        if tracer is not None:
            tracer.write(args.trace)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
