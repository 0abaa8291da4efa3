"""End-to-end benchmark of repro: paper-sweep, campaign-small, serve-open.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 30 --trace 0

Each pass runs the program in a fresh interpreter (``launch.py``) with
fresh cache and journal files; the benchmark times it from outside,
checks its outputs, and prints one JSON result as the last line of stdout.
``--trace 0`` repeats one pass of the run's inputs and reports the
end-to-end metrics, with every time scaled to a reference host speed by
probes run beside the program (``hostspeed.py``); ``--trace 1`` runs an
untraced, a traced and another untraced pass of the same inputs and
reports the per-layer metrics.  ``--workload all`` runs the three workloads one
after another.  See README.md for the workloads, the metrics and what each
layer should move.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import loadgen  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("paper-sweep", "campaign-small", "serve-open")

#: Service counters scraped from /metrics, by per-layer name.
SCRAPED = {
    "requests": "repro_requests_total",
    "errors": "requests_errors",
    "cache_hits": "repro_solve_cache_hits_total",
    "coalesced": "repro_solve_coalesced_total",
    "computed": "repro_solve_computed_total",
    "sweep_passes": "repro_solve_sweep_passes_total",
    "evaluations": "repro_solve_evaluations_total",
}

#: A run's passes must end within this many seconds of its build step:
#: at least RUN_DEADLINE_S, more for long runs (see run_deadline).
RUN_DEADLINE_S = 170.0
DEADLINE_MARGIN_S = 50.0
BUILD_TIMEOUT_S = 600.0
REQUEST_TIMEOUT_S = 60.0


class BenchmarkError(RuntimeError):
    """The program could not be run (missing sources, build failure, hang)."""


class Bench:
    """One benchmark invocation: paths, environment and the run deadline."""

    def __init__(self, root: str, workload: str, scale: str, deadline_s: float) -> None:
        self.root = root
        self.workload = workload
        self.scale_name = scale
        self.scale = workloads.SCALES[scale]
        self.build_dir = os.path.join(root, ".bench_build")
        self.deadline_s = deadline_s
        self.deadline = time.monotonic() + deadline_s
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        # serve-open runs the server, its workers and the load generator on
        # one CPU, so the generator's host-speed probes see the server's CPU.
        self.cpu = min(os.sched_getaffinity(0)) if workload == "serve-open" else None
        self.steal_ticks = _steal_ticks()
        os.makedirs(self.build_dir, exist_ok=True)
        # Per-pass scratch directories (fresh cache, journal, report) live
        # here and are removed once their outputs are checked.
        self.runs_dir = tempfile.mkdtemp(prefix="runs-", dir=self.build_dir)

    def steal_s(self) -> float:
        """Host steal seconds (all CPUs) since this invocation started."""
        return (_steal_ticks() - self.steal_ticks) / os.sysconf("SC_CLK_TCK")

    # -- processes --------------------------------------------------------
    def command(self, instance_seed: int, workdir: str, *, trace=None, setup_only=False,
                probe=False):
        cmd = [
            sys.executable, os.path.join(HERE, "launch.py"),
            "--root", self.root,
            "--workload", self.workload,
            "--instance-seed", str(instance_seed),
            "--workdir", workdir,
            "--scale", self.scale_name,
        ]
        if trace:
            cmd += ["--trace", trace]
        if setup_only:
            cmd.append("--setup-only")
        if probe:
            cmd.append("--probe")
        if self.cpu is not None:
            cmd += ["--cpu", str(self.cpu)]
        return cmd

    def remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchmarkError("run deadline exceeded")
        return left

    def reap(self, proc: subprocess.Popen) -> tuple[int, float, float]:
        """Wait for ``proc``; returns (exit code, peak RSS MiB, CPU seconds).

        ``os.wait4`` reports this child's own rusage, so one workload's
        peak never leaks into another's figure.
        """
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime

    def spawn(self, cmd, stderr) -> subprocess.Popen:
        return subprocess.Popen(
            cmd, cwd=self.root, env=self.env, stdout=subprocess.PIPE,
            stderr=stderr, text=True, start_new_session=True,
        )

    def watchdog(self, proc: subprocess.Popen):
        timer = _Watchdog(proc, self.remaining())
        timer.start()
        return timer

    def build(self) -> None:
        """Compile the native kernel (and byte-compile the sources) once,
        before any timed pass."""
        workdir = tempfile.mkdtemp(dir=self.runs_dir)
        try:
            proc = subprocess.run(
                self.command(0, workdir, setup_only=True), cwd=self.root,
                env=self.env, capture_output=True, text=True,
                timeout=BUILD_TIMEOUT_S,
            )
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if proc.returncode != 0:
            raise BenchmarkError(f"build failed:\n{proc.stderr.strip()[-2000:]}")
        self.deadline = time.monotonic() + self.deadline_s

    # -- batch passes -----------------------------------------------------
    def batch_pass(self, instance_seed: int, *, trace=None, setup_only=False,
                   probe=False) -> dict:
        """Run one paper-sweep / campaign-small pass (or only its set-up).

        With ``probe`` the program process runs host-speed probes, and the
        result also holds its set-up and wall time at the reference speed
        (``setup_ref_s``, ``wall_ref_s``).
        """
        workdir = tempfile.mkdtemp(dir=self.runs_dir)
        with open(os.path.join(workdir, "stderr.txt"), "w") as err:
            spawned = time.monotonic()
            proc = self.spawn(
                self.command(instance_seed, workdir, trace=trace, setup_only=setup_only,
                             probe=probe), err
            )
            timer = self.watchdog(proc)
            marks = _read_marks(proc.stdout)
            code, rss, cpu = self.reap(proc)
            timer.cancel()
        result = {
            "workdir": workdir,
            "seed": instance_seed,
            "exit_code": code,
            "peak_rss_mb": rss,
            "cpu_s": cpu,
            "meta": marks.get("META"),
        }
        if timer.fired:
            raise BenchmarkError(f"{self.workload} pass timed out")
        if (
            "READY" not in marks
            or (not setup_only and "DONE" not in marks)
            or (probe and "PROBES" not in marks)
        ):
            with open(os.path.join(workdir, "stderr.txt")) as err:
                detail = err.read().strip()[-2000:]
            shutil.rmtree(workdir, ignore_errors=True)
            raise BenchmarkError(f"{self.workload} pass failed (exit {code}):\n{detail}")
        result["setup_s"] = marks["READY"] - spawned
        if not setup_only:
            result["wall_s"] = marks["DONE"] - marks["READY"]
        if probe:
            probes = marks["PROBES"]
            result["probe_s"] = _median(seconds for _, seconds in probes)
            result["setup_ref_s"] = hostspeed.scaled_span(spawned, marks["READY"], probes)
            if not setup_only:
                result["wall_ref_s"] = hostspeed.scaled_span(
                    marks["READY"], marks["DONE"], probes
                )
        return result

    def check_batch(self, result: dict) -> tuple[int, list[str], str | None]:
        workdir = result["workdir"]
        try:
            if self.workload == "paper-sweep":
                with open(os.path.join(workdir, "sweep.json")) as handle:
                    records = json.load(handle)
                attempted, failures = workloads.check_paper_sweep(
                    records, self.scale, result["seed"]
                )
                return attempted, failures, None
            rows = _read(os.path.join(workdir, "rows.csv"))
            report = _read(os.path.join(workdir, "report.txt"))
            return workloads.check_campaign(
                rows, report, result["exit_code"], self.scale, result["seed"]
            )
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    # -- serve-open ---------------------------------------------------------
    def serve(self, seed: int, stream, *, trace=None, probe=False) -> dict:
        """Start ``repro serve``, warm it up, send ``stream``, stop it.

        With an empty ``stream`` this takes one set-up sample only.  With
        ``probe`` the launcher probes the host until READY, this process
        probes once after the warm-up and then whenever the server is idle
        during the stream, and the result also holds the set-up time and
        each request's latency at the reference speed (``setup_ref_s``,
        ``latencies_ref``).
        """
        workdir = tempfile.mkdtemp(dir=self.runs_dir)
        err = open(os.path.join(workdir, "stderr.txt"), "w")
        spawned = time.monotonic()
        proc = self.spawn(self.command(seed, workdir, trace=trace, probe=probe), err)
        timer = self.watchdog(proc)
        result: dict = {"meta": None}
        probes: list = []
        try:
            port = None
            for line in proc.stdout:
                if line.startswith("PERFBENCH META "):
                    result["meta"] = json.loads(line[len("PERFBENCH META "):])
                if line.startswith("PERFBENCH PROBES "):
                    probes = [tuple(p) for p in json.loads(line[len("PERFBENCH PROBES "):])]
                if line.startswith("repro service listening on "):
                    port = int(line.rsplit(":", 1)[1].strip().rstrip("/"))
                    break
            if port is None:
                raise BenchmarkError("repro serve exited before listening")
            if probe and not probes:
                raise BenchmarkError("repro serve launcher printed no probes")
            try:
                status, _ = loadgen.post(
                    port, "/v1/solve", workloads.warmup_body(seed), REQUEST_TIMEOUT_S
                )
                if status != 200:
                    raise BenchmarkError(f"warm-up request answered {status}")
                ready = time.monotonic()
                result["setup_s"] = ready - spawned
                if probe:
                    probes.append((time.monotonic(), hostspeed.probe()))
                    result["setup_ref_s"] = hostspeed.scaled_span(spawned, ready, probes)
                if stream:
                    before = loadgen.scrape(port)
                    result["start"], result["results"] = loadgen.run_stream(
                        port, stream, REQUEST_TIMEOUT_S, probes if probe else None
                    )
                    after = loadgen.scrape(port)
            except (OSError, http.client.HTTPException, ValueError) as exc:
                raise BenchmarkError(f"repro serve stopped answering: {exc}") from exc
            if stream:
                result["scrape"] = {
                    name: after.get(metric, 0.0) - before.get(metric, 0.0)
                    for name, metric in SCRAPED.items()
                }
                # The closing scrape itself is one request.
                result["scrape"]["requests"] -= 1
                if probe:
                    probes.sort()
                    result["probe_s"] = _median(seconds for _, seconds in probes)
                    result["latencies_ref"] = [
                        hostspeed.scaled_span(r["due"], r["done"], probes)
                        for r in result["results"]
                    ]
        finally:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
            for _ in proc.stdout:
                pass
            code, rss, cpu = self.reap(proc)
            timer.cancel()
            err.close()
            shutil.rmtree(workdir, ignore_errors=True)
        if timer.fired:
            raise BenchmarkError("serve-open timed out")
        if code != 0:
            raise BenchmarkError(f"repro serve exited {code}")
        result.update(peak_rss_mb=rss, cpu_s=cpu)
        return result


class _Watchdog:
    """Kills a child's process group when the run deadline passes."""

    def __init__(self, proc: subprocess.Popen, seconds: float) -> None:
        self.fired = False
        self._proc = proc
        self._timer = threading.Timer(seconds, self._fire)
        self._timer.daemon = True

    def _fire(self) -> None:
        self.fired = True
        try:
            os.killpg(self._proc.pid, signal.SIGKILL)
        except OSError:
            pass

    def start(self) -> None:
        self._timer.start()

    def cancel(self) -> None:
        self._timer.cancel()


def _read_marks(stream) -> dict:
    """PERFBENCH protocol lines of a launcher's stdout (read to EOF)."""
    marks: dict = {}
    for line in stream:
        if line.startswith("PERFBENCH META "):
            marks["META"] = json.loads(line[len("PERFBENCH META "):])
        elif line.startswith("PERFBENCH READY "):
            marks["READY"] = float(line.split()[2])
        elif line.startswith("PERFBENCH DONE "):
            marks["DONE"] = float(line.split()[2])
        elif line.startswith("PERFBENCH PROBES "):
            marks["PROBES"] = json.loads(line[len("PERFBENCH PROBES "):])
    return marks


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except FileNotFoundError:
        return ""


def _median(values) -> float:
    return float(statistics.median(values))


def _steal_ticks() -> int:
    with open("/proc/stat") as handle:
        fields = handle.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


def _metadata(root: str, seed: int, meta: dict | None) -> dict:
    git_sha = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            git_sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=30,
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            git_sha = None
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "repro")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith((".py", ".c")):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    data = {
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha,
        "source_digest": digest.hexdigest()[:16],
    }
    data.update({k: v for k, v in (meta or {}).items() if not k.startswith("setup.")})
    return data


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------


def run_deadline(seconds: float, trace: int) -> float:
    """Seconds a run's passes may take after its build step.

    An untraced run measures about ``seconds`` (a slow host may need up to
    two times that), a traced run three passes or streams of that length;
    set-up spawns and output checks fit in the margin.
    """
    return max(RUN_DEADLINE_S, DEADLINE_MARGIN_S + (4 if trace else 2) * seconds)


def repetitions(bench: Bench, seconds: float) -> int:
    """Passes (serve-open: streams) of the same inputs in an untraced run."""
    nominal = {
        "paper-sweep": bench.scale.sweep_pass_s,
        "campaign-small": bench.scale.campaign_pass_s,
        "serve-open": len(workloads.serve_stream(bench.scale, 0)) / bench.scale.serve_rate,
    }[bench.workload]
    return max(1, round(seconds / nominal))


def extra_setups(bench: Bench, repeats: int, index: int) -> int:
    """Set-up-only spawns to make after pass ``index``: the run's passes
    give ``repeats`` set-up samples, these make up the rest, spread evenly
    between the passes so they sample the whole run."""
    extra = max(0, bench.scale.setup_samples - repeats)
    return extra * (index + 1) // repeats - extra * index // repeats


def measure(bench: Bench, seed: int, seconds: float) -> dict:
    """Untraced run: the end-to-end metrics.

    The run repeats one pass of its inputs with host-speed probes in the
    program process; ``wall_s`` and ``setup_s`` are medians of the passes'
    (and set-up spawns') times at the reference speed.
    """
    if bench.workload == "serve-open":
        return measure_serve(bench, seed, seconds)
    instance = workloads.instance_seed(seed)
    repeats = repetitions(bench, seconds)
    passes, setups = [], []
    for index in range(repeats):
        passes.append(bench.batch_pass(instance, probe=True))
        setups.append(passes[-1])
        for _ in range(extra_setups(bench, repeats, index)):
            setups.append(bench.batch_pass(instance, setup_only=True, probe=True))
    attempted, failures, lines = 0, [], []
    for p in passes:
        count, bad, digest = bench.check_batch(p)
        attempted += count
        failures += bad
        lines.append(
            f"pass seed={p['seed']}: wall {p['wall_s']:.3f} s ({p['wall_ref_s']:.3f} s at "
            f"reference speed, probe median {p['probe_s'] * 1e3:.2f} ms), setup "
            f"{p['setup_s']:.3f} s, peak RSS {p['peak_rss_mb']:.1f} MiB, cpu {p['cpu_s']:.3f} s"
            + (f", report digest {digest}" if digest else "")
        )
    lines.append("setup samples, s (at reference speed): " + ", ".join(
        f"{p['setup_s']:.3f} ({p['setup_ref_s']:.3f})" for p in setups
    ))
    return {
        "metrics": {
            "wall_s": _median(p["wall_ref_s"] for p in passes),
            "setup_s": _median(p["setup_ref_s"] for p in setups),
            "peak_rss_mb": _median(p["peak_rss_mb"] for p in passes),
        },
        "samples": {
            "wall_s": f"median of {repeats} passes at reference speed; raw "
                      f"{_median(p['wall_s'] for p in passes):.3f} s",
            "setup_s": f"median of {len(setups)} spawns at reference speed; raw "
                       f"{_median(p['setup_s'] for p in setups):.3f} s",
            "peak_rss_mb": f"median of {len(passes)} passes",
        },
        "attempted": attempted,
        "failures": failures,
        "lines": lines,
        "meta": passes[0]["meta"],
        "cpu_s": _median(p["cpu_s"] for p in passes),
    }


def latencies(run: dict) -> list[float]:
    """Each request's latency, from its due time to its response."""
    return [r["done"] - r["due"] for r in run["results"]]


def stream_stats(runs: list[dict]) -> dict:
    """Per-class latencies (from each request's due time) and lateness,
    pooled over ``runs``."""
    results = [r for run in runs for r in run["results"]]
    fresh = [r["done"] - r["due"] for r in results if r["fresh"]]
    repeat = [r["done"] - r["due"] for r in results if not r["fresh"]]
    late = [r["sent"] - r["due"] for r in results]
    return {
        "fresh": len(fresh),
        "repeat": len(repeat),
        "loadgen.late_p90_s": spans.percentile(late, 90),
        "loadgen.fresh_latency_p50_s": spans.percentile(fresh, 50),
        "loadgen.fresh_latency_p90_s": spans.percentile(fresh, 90),
        "loadgen.repeat_latency_p50_s": spans.percentile(repeat, 50),
    }


def measure_serve(bench: Bench, seed: int, seconds: float) -> dict:
    """Untraced serve-open run: the same stream sent to fresh servers.

    ``wall_s`` adds up, request by request, the median over the streams of
    the request's latency at the reference speed, so one stalled request
    in one stream does not move it; ``setup_s`` is the median set-up time
    at that speed.
    """
    stream = workloads.serve_stream(bench.scale, seed)
    repeats = repetitions(bench, seconds)
    runs, setups = [], []
    for index in range(repeats):
        runs.append(bench.serve(seed, stream, probe=True))
        setups.append(runs[-1])
        for _ in range(extra_setups(bench, repeats, index)):
            setups.append(bench.serve(seed, [], probe=True))
    stats = stream_stats(runs)
    failures = [failure for run in runs for failure in workloads.check_serve(run["results"])]
    lines = [
        f"streams: {repeats} x {len(stream)} requests at {bench.scale.serve_rate:g}/s over "
        f"{loadgen.CONNECTIONS} keep-alive connections, each to a fresh server on CPU {bench.cpu}",
        f"fresh latency p50 {stats['loadgen.fresh_latency_p50_s'] * 1e3:.1f} ms, "
        f"p90 {stats['loadgen.fresh_latency_p90_s'] * 1e3:.1f} ms (n={stats['fresh']}); "
        f"repeat latency p50 {stats['loadgen.repeat_latency_p50_s'] * 1e3:.2f} ms "
        f"(n={stats['repeat']}); generator lateness p90 "
        f"{stats['loadgen.late_p90_s'] * 1e3:.2f} ms",
    ]
    for run in runs:
        lines.append(
            f"server: total latency {sum(latencies(run)):.3f} s "
            f"({sum(run['latencies_ref']):.3f} s at reference speed, probe median "
            f"{run['probe_s'] * 1e3:.2f} ms), setup {run['setup_s']:.3f} s, peak RSS "
            f"{run['peak_rss_mb']:.1f} MiB, cpu {run['cpu_s']:.3f} s, computed "
            f"{run['scrape']['computed']:g}, cache hits {run['scrape']['cache_hits']:g}"
        )
    lines.append("setup samples, s (at reference speed): " + ", ".join(
        f"{run['setup_s']:.3f} ({run['setup_ref_s']:.3f})" for run in setups
    ))
    return {
        "metrics": {
            "wall_s": sum(
                _median(column) for column in zip(*(run["latencies_ref"] for run in runs))
            ),
            "setup_s": _median(run["setup_ref_s"] for run in setups),
            "peak_rss_mb": _median(run["peak_rss_mb"] for run in runs),
        },
        "samples": {
            "wall_s": f"{len(stream)} request latencies at reference speed, each the "
                      f"median of {repeats} streams, summed; raw "
                      f"{sum(_median(column) for column in zip(*map(latencies, runs))):.3f} s",
            "setup_s": f"median of {len(setups)} spawns at reference speed; raw "
                       f"{_median(run['setup_s'] for run in setups):.3f} s",
            "peak_rss_mb": f"median of {len(runs)} servers",
        },
        "attempted": sum(len(run["results"]) for run in runs),
        "failures": failures,
        "lines": lines,
        "meta": runs[0]["meta"],
        "cpu_s": _median(run["cpu_s"] for run in runs),
    }


def traced(bench: Bench, seed: int, declared: dict) -> dict:
    """Traced run: the per-layer metrics of one traced pass (or stream).

    Untraced passes of the same inputs run before and after it; the
    tracing overhead is the traced wall time minus their mean, which
    cancels a host that drifts linearly across the three.
    """
    trace_dir = os.path.join(bench.build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    span_file = os.path.join(trace_dir, f"{bench.workload}-seed{seed}.jsonl")
    attempted, failures = 0, []
    extra = dict.fromkeys(
        ("loadgen.late_p90_s", "loadgen.fresh_latency_p50_s",
         "loadgen.fresh_latency_p90_s", "loadgen.repeat_latency_p50_s"),
        0.0,
    )
    if bench.workload == "serve-open":
        stream = workloads.serve_stream(bench.scale, seed)
        runs = [
            bench.serve(seed, stream),
            bench.serve(seed, stream, trace=span_file),
            bench.serve(seed, stream),
        ]
        for run in runs:
            attempted += len(run["results"])
            failures += workloads.check_serve(run["results"])
        walls = [sum(latencies(run)) for run in runs]
        stats = stream_stats([runs[0], runs[2]])
        extra.update({k: v for k, v in stats.items() if k in extra})
        fresh = sum(request.fresh for request in stream)
        metrics, layer_self = spans.layer_metrics(
            span_file, runs[1]["scrape"], since=runs[1]["start"]
        )
    else:
        instance = workloads.instance_seed(seed)
        runs = [
            bench.batch_pass(instance),
            bench.batch_pass(instance, trace=span_file),
            bench.batch_pass(instance),
        ]
        for run in runs:
            count, bad, _ = bench.check_batch(run)
            attempted += count
            failures += bad
        walls = [run["wall_s"] for run in runs]
        fresh = None
        metrics, layer_self = spans.layer_metrics(span_file)
    meta = runs[0]["meta"] or {}
    metrics["setup.import_s"] = meta.get("setup.import_s", 0.0)
    metrics["setup.native_load_s"] = meta.get("setup.native_load_s", 0.0)
    metrics["process.cpu_s"] = (runs[0]["cpu_s"] + runs[2]["cpu_s"]) / 2
    metrics["trace.overhead_s"] = walls[1] - (walls[0] + walls[2]) / 2
    metrics["process.steal_s"] = bench.steal_s()
    metrics.update(extra)
    lines = [
        f"span file: {os.path.relpath(span_file, bench.root)}",
        "wall untraced / traced / untraced: " + " / ".join(f"{w:.3f} s" for w in walls),
    ]
    lines += _summary(declared, metrics, layer_self, walls[1])
    for text, holds in predictions(bench.workload, metrics, layer_self, walls[1], fresh):
        lines.append(f"prediction {'holds' if holds else 'MISMATCH'}: {text}")
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failures": failures,
        "lines": lines,
        "meta": runs[0]["meta"],
    }


def _summary(declared, metrics, layer_self, traced_wall):
    """The traced run's report: every declared per-layer metric, self time
    per layer and the tracing overhead."""
    lines = ["per-layer metrics:"]
    for name, unit in declared.items():
        value = metrics[name]
        shown = f"{value:.6f}" if isinstance(value, float) else f"{value}"
        lines.append(f"  {name:<42} {shown:>16} {unit}")
    lines.append(f"self time per layer (traced wall {traced_wall:.3f} s):")
    for layer, seconds in sorted(layer_self.items(), key=lambda item: -item[1]):
        lines.append(f"  {layer:<42} {seconds:16.6f} s")
    lines.append(f"trace.overhead_s {metrics['trace.overhead_s']:.3f} s")
    return lines


def predictions(workload, metrics, layer_self, traced_wall, fresh):
    """(description, holds) of each split predicted for ``workload``."""
    if workload == "paper-sweep":
        share = (
            metrics["core.sweep.evaluate_s"] + metrics["heuristics.checkpointing.selector_s"]
        ) / traced_wall
        python_calls = metrics["core.evaluator.python_calls"]
        return [
            (f"sweep evaluate + selectors = {share:.0%} of the traced pass (>= 80%)",
             share >= 0.8),
            (f"python evaluator calls = {python_calls} (0)", python_calls == 0),
        ]
    if workload == "campaign-small":
        python_s = metrics["core.evaluator.python_s"]
        others = {layer: s for layer, s in layer_self.items() if layer != "core.evaluator"}
        largest = max(others, key=others.get)
        return [
            (f"core.evaluator.python_s = {python_s:.3f} s exceeds every other layer's "
             f"self time (largest: {largest}, {others[largest]:.3f} s)",
             python_s > others[largest]),
        ]
    computed = metrics["service.planner.computed"]
    return [
        (f"service.planner.computed = {computed} equals the fresh requests ({fresh})",
         computed == fresh),
    ]


def run_workload(root: str, spec: dict, args: argparse.Namespace, workload: str) -> int:
    """Run one workload, print its report and, last, its JSON result."""
    declared = {
        metric["name"]: metric["unit"]
        for metric in spec["per_layer" if args.trace else "end_to_end"]
    }
    bench = Bench(root, workload, args.scale, run_deadline(args.seconds, args.trace))
    affinity = os.sched_getaffinity(0)
    try:
        if bench.cpu is not None:
            os.sched_setaffinity(0, {bench.cpu})
        bench.build()
        if args.trace:
            run = traced(bench, args.seed, declared)
        else:
            run = measure(bench, args.seed, args.seconds)
    except BenchmarkError as exc:
        print(f"error: {workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        os.sched_setaffinity(0, affinity)
        shutil.rmtree(bench.runs_dir, ignore_errors=True)
    print(f"== {workload} ==")
    print("metadata: " + json.dumps(_metadata(root, args.seed, run["meta"]), sort_keys=True))
    for line in run["lines"]:
        print(line)
    if not args.trace:
        print(f"process cpu {run['cpu_s']:.3f} s, host steal {bench.steal_s():.2f} s")
        for name, unit in declared.items():
            print(f"{workload} {name} = {run['metrics'][name]:.6f} {unit} ({run['samples'][name]})")
    for failure in run["failures"]:
        print(f"check failed: {failure}")
    failed = min(len(run["failures"]), int(run["attempted"]))
    result = {
        "correct": not run["failures"],
        "attempted": int(run["attempted"]),
        "failed": failed,
        "metrics": {
            name: {"value": run["metrics"][name], "unit": unit}
            for name, unit in declared.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="a workload, or all three one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(workloads.SCALES), default="full",
                        help="input sizes (tiny is the self-test's)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("error: run from the root of a repro checkout (src/repro is missing)",
              file=sys.stderr)
        return 2
    try:
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
            spec = json.load(handle)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    # The program and the output checks in this process see the same
    # environment: no inherited REPRO_* knobs, the kernel object cache
    # inside the checkout, the checkout's sources.
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[name]
    os.environ["REPRO_NATIVE_CACHE"] = os.path.join(root, ".bench_build", "native")
    # One fill thread: a second OpenMP thread spin-waits on the other vCPU
    # of a small shared host, so its timings follow the host's scheduler.
    os.environ["REPRO_NATIVE_THREADS"] = "1"
    sys.path.insert(0, os.path.join(root, "src"))
    selected = WORKLOADS if args.workload == "all" else (args.workload,)
    return max(run_workload(root, spec, args, workload) for workload in selected)


if __name__ == "__main__":
    sys.exit(main())
