"""Chaos suite of the distributed campaign fabric.

Covers the full robustness stack the fabric adds:

* the shared :class:`RetryPolicy` (capped exponential, deterministic jitter);
* the TTL lease queue — grant/renew/expire/reassign/poison lifecycle under a
  fake clock, plus idempotent owner-agnostic completion;
* the cache-net layer — protocol round-trip, injected network faults retried,
  circuit-breaker degradation to the local cache and back-fill on reconnect;
* the fabric end-to-end — multi-worker runs byte-identical to serial, lease
  fault sites survivable, poison shards quarantined with exit code 3, and a
  crashed coordinator resuming from its journal;
* a subprocess gate: a ``repro fabric work`` process SIGKILL-alike'd
  mid-shard while a peer finishes the campaign, report unchanged.
"""

from __future__ import annotations

import dataclasses
import json
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable

import pytest

from repro.cli import main
from repro.experiments import CampaignSpec, run_campaign
from repro.experiments.fabric import FabricCoordinator, FabricWorker
from repro.experiments.reporting import read_shard_marker, rows_from_csv, rows_to_csv
from repro.runtime import (
    DONE,
    FAULTS_ENV,
    LEASED,
    PENDING,
    POISON,
    DiskCache,
    LeaseQueue,
    ResultCache,
    RetryPolicy,
    fault_fired,
)
from repro.runtime.cachenet import (
    CacheNetClient,
    CacheNetServer,
    CircuitBreaker,
    FallbackResultCache,
)
from repro.runtime.rpc import RpcClient, RpcError

SPEC = CampaignSpec(
    families=("montage",),
    sizes=(10, 20),
    seeds=(0,),
    heuristics=("DF-CkptNvr", "DF-CkptW"),
    max_candidates=5,
    n_shards=2,
)


@pytest.fixture(autouse=True)
def _no_inherited_faults(monkeypatch):
    monkeypatch.delenv(FAULTS_ENV, raising=False)


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _coordinator_client(address, attempts: int = 5) -> RpcClient:
    """A control-plane client like a worker's, with a quick retry policy."""
    return RpcClient(
        address,
        name="coordinator",
        timeout=10.0,
        retry=RetryPolicy(max_attempts=attempts, base_delay=0.01),
    )


def _serial_result():
    return run_campaign(
        SPEC.scenarios(),
        seeds=SPEC.seeds,
        search_mode=SPEC.search_mode,
        max_candidates=SPEC.max_candidates,
    )


def _drive(coordinator: FabricCoordinator, n_workers: int = 2, **worker_kwargs):
    """Run ``n_workers`` in-process workers against a started coordinator."""
    workers = [
        FabricWorker(coordinator.endpoint, name=f"w{i}", poll=0.02, **worker_kwargs)
        for i in range(n_workers)
    ]
    threads = [threading.Thread(target=w.run, daemon=True) for w in workers]
    for thread in threads:
        thread.start()
    coordinator.serve(timeout=120)
    for thread in threads:
        thread.join(timeout=10)
    return workers


class TestRetryPolicy:
    def test_capped_exponential_schedule(self):
        policy = RetryPolicy(max_attempts=6, base_delay=0.5, max_delay=4.0)
        assert policy.delays() == [0.5, 1.0, 2.0, 4.0, 4.0]
        assert policy.retries == 5

    def test_zero_base_disables_sleeping(self):
        policy = RetryPolicy(base_delay=0.0, jitter=0.5)
        assert policy.delay(1) == 0.0
        slept: list[float] = []
        assert policy.sleep(1, sleep=slept.append) == 0.0
        assert slept == []  # a zero delay must not even call sleep

    def test_jitter_is_deterministic_and_bounded(self):
        a = RetryPolicy(max_attempts=5, base_delay=1.0, max_delay=30.0,
                        jitter=0.5, seed=7)
        b = RetryPolicy(max_attempts=5, base_delay=1.0, max_delay=30.0,
                        jitter=0.5, seed=7)
        assert a.delays() == b.delays()  # reproducible failure paths
        for k in range(1, 5):
            bare = RetryPolicy(max_attempts=5, base_delay=1.0, max_delay=30.0)
            assert bare.delay(k) <= a.delay(k) <= bare.delay(k) * 1.5

    def test_distinct_seeds_decorrelate(self):
        a = RetryPolicy(jitter=1.0, seed=1, max_attempts=4)
        b = RetryPolicy(jitter=1.0, seed=2, max_attempts=4)
        assert a.delays() != b.delays()

    def test_jitter_never_exceeds_cap(self):
        policy = RetryPolicy(max_attempts=8, base_delay=1.0, max_delay=2.0,
                             jitter=1.0, seed=3)
        assert all(delay <= 2.0 for delay in policy.delays())

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy().delay(0)

    def test_sleep_reports_and_uses_the_delay(self):
        policy = RetryPolicy(base_delay=0.25)
        slept: list[float] = []
        assert policy.sleep(2, sleep=slept.append) == 0.5
        assert slept == [0.5]


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestLeaseQueue:
    def test_grants_lowest_pending_shard(self):
        queue = LeaseQueue(3, ttl=10.0)
        lease = queue.grant("w1")
        assert (lease.shard, lease.state, lease.owner) == (1, LEASED, "w1")
        assert queue.grant("w2").shard == 2

    def test_heartbeat_renewal_keeps_a_slow_worker_alive(self):
        clock = FakeClock()
        queue = LeaseQueue(1, ttl=10.0, clock=clock)
        queue.grant("w1")
        for _ in range(5):
            clock.advance(8.0)  # always inside the (renewed) TTL
            assert queue.renew("w1", 1)
            assert queue.expire() == []
        assert queue.snapshot()[1] == (LEASED, "w1", 1)
        assert queue.renewals == 5

    def test_expired_lease_is_reassigned_to_the_next_worker(self):
        clock = FakeClock()
        queue = LeaseQueue(1, ttl=10.0, max_attempts=3, clock=clock)
        queue.grant("dead")
        clock.advance(10.1)
        assert queue.expire() == [1]
        assert queue.snapshot()[1] == (PENDING, None, 1)
        lease = queue.grant("alive")
        assert (lease.owner, lease.attempts) == ("alive", 2)
        assert queue.expirations == 1 and queue.reassignments == 1

    def test_renew_refused_after_reassignment(self):
        clock = FakeClock()
        queue = LeaseQueue(1, ttl=5.0, clock=clock)
        queue.grant("slow")
        clock.advance(6.0)
        queue.grant("fast")  # grant() sweeps expired leases itself
        assert not queue.renew("slow", 1)
        assert queue.renew("fast", 1)

    def test_poison_after_exhausting_the_grant_budget(self):
        clock = FakeClock()
        queue = LeaseQueue(2, ttl=1.0, max_attempts=2, clock=clock)
        for _ in range(2):
            queue.grant("crashy")
            clock.advance(1.1)
            queue.expire()
        snapshot = queue.snapshot()
        assert snapshot[1] == (POISON, None, 2)
        assert snapshot[2] == (PENDING, None, 0)  # healthy shard untouched
        [poisoned] = queue.poisoned
        assert "shard 1/2 failed after 2 attempt(s)" in poisoned.describe()
        assert "worker dead or stalled" in poisoned.describe()

    def test_fail_reports_keep_the_cause_for_the_quarantine_report(self):
        queue = LeaseQueue(1, ttl=10.0, max_attempts=1)
        queue.grant("w")
        state = queue.fail("w", 1, {"type": "RuntimeError", "message": "boom"})
        assert state == POISON
        [poisoned] = queue.poisoned
        assert "RuntimeError: boom" in poisoned.describe()

    def test_completion_is_owner_agnostic_and_idempotent(self):
        clock = FakeClock()
        queue = LeaseQueue(1, ttl=5.0, clock=clock)
        queue.grant("slow")
        clock.advance(6.0)
        queue.grant("fast")
        # The expired owner finishes anyway: deterministic shards make its
        # late result byte-identical, so first completion wins ...
        assert queue.complete("slow", 1)
        # ... and the reassigned copy's arrival is acknowledged, not counted.
        assert not queue.complete("fast", 1)
        assert queue.completions == 1
        assert queue.finished

    def test_late_completion_promotes_a_poisoned_shard(self):
        queue = LeaseQueue(1, ttl=10.0, max_attempts=1)
        queue.grant("w")
        queue.fail("w", 1)
        assert queue.poisoned
        assert queue.complete("w", 1)
        assert queue.done == [1] and not queue.poisoned

    def test_mark_done_supports_journal_replay(self):
        queue = LeaseQueue(2, ttl=10.0)
        queue.mark_done(1)
        assert queue.grant("w").shard == 2
        assert not queue.finished
        queue.complete("w", 2)
        assert queue.finished

    def test_validation(self):
        with pytest.raises(ValueError):
            LeaseQueue(0)
        with pytest.raises(ValueError):
            LeaseQueue(1, ttl=0)
        with pytest.raises(ValueError):
            LeaseQueue(1, max_attempts=0)
        queue = LeaseQueue(1)
        with pytest.raises(ValueError):
            queue.complete("w", 9)


class TestCacheNet:
    def test_roundtrip_and_stats(self, tmp_path):
        server = CacheNetServer(DiskCache(tmp_path / "net.sqlite")).start()
        try:
            with CacheNetClient(server.endpoint) as client:
                assert client.ping()
                assert client.get("k1") is None
                client.put("k1", {"rows": [1, 2]})
                assert client.get("k1") == {"rows": [1, 2]}
                assert client.stats()["entries"] == 1
        finally:
            server.stop()

    def test_injected_network_fault_is_retried(self, tmp_path, monkeypatch):
        server = CacheNetServer(DiskCache(tmp_path / "net.sqlite")).start()
        try:
            client = CacheNetClient(
                server.endpoint,
                retry=RetryPolicy(max_attempts=3, base_delay=0.01),
            )
            monkeypatch.setenv(FAULTS_ENV, "cache_net_send:times=1")
            client.put("k", {"v": 1})
            assert client.retries == 1
            monkeypatch.setenv(FAULTS_ENV, "cache_net_recv:times=1")
            assert client.get("k") == {"v": 1}
            assert fault_fired("cache_net_recv")
            client.close()
        finally:
            server.stop()

    def test_persistent_fault_exhausts_retries(self, tmp_path, monkeypatch):
        server = CacheNetServer(DiskCache(tmp_path / "net.sqlite")).start()
        try:
            client = CacheNetClient(
                server.endpoint,
                retry=RetryPolicy(max_attempts=2, base_delay=0.01),
            )
            monkeypatch.setenv(FAULTS_ENV, "cache_net_send")
            with pytest.raises(RpcError):
                client.put("k", {"v": 1})
            client.close()
        finally:
            server.stop()

    def test_degradation_and_backfill_cycle(self, tmp_path):
        """The headline contract: server dies -> local-only; back -> backfill."""
        port = _free_port()
        server = CacheNetServer(
            DiskCache(tmp_path / "a.sqlite"), port=port
        ).start()
        cache = FallbackResultCache(
            CacheNetClient(
                f"127.0.0.1:{port}",
                timeout=1.0,
                retry=RetryPolicy(max_attempts=2, base_delay=0.01),
            ),
            ResultCache(),
            breaker=CircuitBreaker(failure_threshold=1, reset_timeout=0.1),
        )
        cache.put("k1", {"v": 1})
        assert not cache.degraded
        server.stop()  # the remote store "crashes"
        cache.put("k2", {"v": 2})
        cache.put("k3", {"v": 3})
        assert cache.degraded
        assert cache.get("k2") == {"v": 2}  # local layer still serves
        assert cache.backlog == 2  # both degraded puts queued for back-fill
        # The server comes back (fresh store, same endpoint) ...
        revived = CacheNetServer(
            DiskCache(tmp_path / "b.sqlite"), port=port
        ).start()
        try:
            time.sleep(0.15)  # past the breaker's reset timeout
            cache.put("k4", {"v": 4})  # half-open probe succeeds -> backfill
            assert not cache.degraded
            assert cache.backlog == 0
            with CacheNetClient(f"127.0.0.1:{port}") as probe:
                for key, value in (("k2", 2), ("k3", 3), ("k4", 4)):
                    assert probe.get(key) == {"v": value}
            assert cache.backfilled >= 2
        finally:
            revived.stop()
            cache.close()

    def test_remote_hit_promotes_into_the_local_layer(self, tmp_path):
        server = CacheNetServer(DiskCache(tmp_path / "net.sqlite")).start()
        try:
            with CacheNetClient(server.endpoint) as warm:
                warm.put("k", {"v": 9})
            local = ResultCache()
            cache = FallbackResultCache(CacheNetClient(server.endpoint), local)
            assert cache.get("k") == {"v": 9}
            assert local.get("k") == {"v": 9}
            assert cache.remote_hits == 1
            cache.close()
        finally:
            server.stop()


class TestFabricSpec:
    """The campaign spec in the wire form the coordinator ships to workers."""

    def test_payload_roundtrip_is_lossless(self):
        assert CampaignSpec.from_payload(SPEC.to_payload()) == SPEC

    def test_unknown_payload_field_rejected(self):
        payload = SPEC.to_payload() | {"backend": "numpy"}
        with pytest.raises(ValueError, match="unknown campaign spec field"):
            CampaignSpec.from_payload(payload)

    def test_digest_tracks_content_only(self):
        assert SPEC.content_digest() == CampaignSpec.from_payload(
            SPEC.to_payload()
        ).content_digest()
        assert SPEC.content_digest() != dataclasses.replace(
            SPEC, seeds=(0, 1)
        ).content_digest()

    def test_digest_is_pinned(self):
        # Fabric shard journal keys hash this digest: a change would orphan
        # every journal written so far instead of resuming it.
        assert SPEC.content_digest() == (
            "2be67a7384d552e431a617a11ff152331ed75aa0fa8e1bdd26ac98f968b85f2a"
        )

    def test_empty_heuristics_normalize_to_all(self):
        from repro.heuristics import HEURISTIC_NAMES

        assert CampaignSpec(heuristics=()).heuristics == tuple(HEURISTIC_NAMES)

    def test_shards_partition_the_grid(self):
        scenarios = SPEC.scenarios()
        sharded = [s for k in (1, 2) for s in SPEC.shard(k)]
        assert sorted(map(repr, sharded)) == sorted(map(repr, scenarios))

    def test_validation(self):
        with pytest.raises(ValueError):
            CampaignSpec(n_shards=0)
        with pytest.raises(ValueError):
            CampaignSpec(preset="nonsense")
        with pytest.raises(ValueError):
            CampaignSpec(seeds=())


class TestFabricEndToEnd:
    def test_multi_worker_run_matches_serial_byte_for_byte(self):
        coordinator = FabricCoordinator(SPEC, ttl=10.0).start()
        workers = _drive(coordinator, n_workers=2)
        assert sum(w.shards_completed for w in workers) == 2
        assert coordinator.result().render() == _serial_result().render()
        assert coordinator.failures == []
        metrics = coordinator.registry.render()
        assert "repro_fabric_leases_granted_total 2" in metrics
        assert "repro_fabric_shards_completed_total 2" in metrics

    def test_lease_fault_sites_are_survivable(self, monkeypatch):
        # One grant and one renewal fail at the coordinator edge; the
        # worker backs off and retries, and the campaign still completes.
        monkeypatch.setenv(FAULTS_ENV, "lease_grant:times=1;lease_renew:times=1")
        coordinator = FabricCoordinator(SPEC, ttl=0.4).start()
        _drive(coordinator, n_workers=1)
        assert fault_fired("lease_grant")
        assert coordinator.result().render() == _serial_result().render()

    def test_stalled_heartbeat_fault_site_fires(self, monkeypatch):
        # Drive the worker's heartbeat loop directly: the worker_heartbeat
        # stall (a wedged-but-alive worker) fires once, then normal beats
        # renew the lease — deterministic, no shard-duration timing games.
        monkeypatch.setenv(FAULTS_ENV, "worker_heartbeat:sleep=0.05,times=1")
        coordinator = FabricCoordinator(SPEC, ttl=5.0).start()
        try:
            worker = FabricWorker(coordinator.endpoint, name="beat")
            reply = worker.client.request({"op": "lease", "worker": "beat"})
            stop = threading.Event()
            thread = threading.Thread(
                target=worker._heartbeat_loop,
                args=(int(reply["shard"]), 0.02, stop),
                daemon=True,
            )
            thread.start()
            deadline = time.monotonic() + 5.0
            while coordinator.queue.renewals < 2 and time.monotonic() < deadline:
                time.sleep(0.02)
            stop.set()
            thread.join(timeout=5)
            worker.client.close()
            assert fault_fired("worker_heartbeat")
            assert coordinator.queue.renewals >= 2
        finally:
            coordinator.stop()

    def test_poison_shard_is_quarantined_and_the_rest_completes(
        self, monkeypatch
    ):
        monkeypatch.setenv(FAULTS_ENV, "fabric_shard:shard=2")
        coordinator = FabricCoordinator(SPEC, ttl=5.0, max_attempts=2).start()
        workers = _drive(coordinator, n_workers=1)
        assert workers[0].shards_failed == 2  # both grants of shard 2
        [poisoned] = coordinator.failures
        assert "shard 2/2 failed after 2 attempt(s): RuntimeError" in (
            poisoned.describe()
        )
        partial = coordinator.result()
        serial_shard1 = run_campaign(
            SPEC.shard(1), seeds=SPEC.seeds, max_candidates=SPEC.max_candidates
        )
        assert partial.render() == serial_shard1.render()
        assert "repro_fabric_shards_poisoned_total 1" in (
            coordinator.registry.render()
        )

    def test_coordinator_crash_resumes_from_the_journal(
        self, tmp_path, monkeypatch
    ):
        journal_path = tmp_path / "fabric.journal"
        # Run 1: shard 2 poisons, shard 1 completes and is journaled; the
        # coordinator then "crashes" (we simply discard it).
        monkeypatch.setenv(FAULTS_ENV, "fabric_shard:shard=2")
        first = FabricCoordinator(
            SPEC, ttl=5.0, max_attempts=1, journal=journal_path
        ).start()
        _drive(first, n_workers=1)
        assert first.queue.done == [1]
        first.close()
        # Run 2: same spec + journal, fault gone.  Shard 1 must be replayed
        # (not re-leased), shard 2 re-run, and the merged report serial.
        monkeypatch.delenv(FAULTS_ENV)
        second = FabricCoordinator(SPEC, ttl=5.0, journal=journal_path)
        assert second.queue.snapshot()[1] == (DONE, None, 0)
        second.start()
        _drive(second, n_workers=1)
        assert second.queue.granted == 1  # only shard 2 was ever leased
        assert second.result().render() == _serial_result().render()
        second.close()

    def test_workers_share_a_cache_server_and_degrade_without_it(
        self, tmp_path
    ):
        server = CacheNetServer(DiskCache(tmp_path / "shared.sqlite")).start()
        try:
            coordinator = FabricCoordinator(
                SPEC, ttl=10.0, cache_endpoint=server.endpoint
            ).start()
            _drive(coordinator, n_workers=1)
            assert coordinator.result().render() == _serial_result().render()
            with CacheNetClient(server.endpoint) as probe:
                warmed = probe.stats()["entries"]
            assert warmed > 0  # the shared store was actually written
        finally:
            server.stop()
        # Same campaign with the server gone: workers degrade to their local
        # cache and the result is unchanged.
        coordinator = FabricCoordinator(
            SPEC, ttl=10.0, cache_endpoint=server.endpoint
        ).start()
        _drive(coordinator, n_workers=1)
        assert coordinator.result().render() == _serial_result().render()

    def test_cache_net_faults_spare_the_control_plane(self, tmp_path, monkeypatch):
        # One dropped cache-server response is retried by the cache client;
        # the control plane shares the transport but not its fault sites.
        monkeypatch.setenv(FAULTS_ENV, "cache_net_recv:times=1")
        server = CacheNetServer(DiskCache(tmp_path / "shared.sqlite")).start()
        try:
            coordinator = FabricCoordinator(
                SPEC, ttl=10.0, cache_endpoint=server.endpoint
            ).start()
            [worker] = _drive(coordinator, n_workers=1)
        finally:
            server.stop()
        assert fault_fired("cache_net_recv")
        assert worker.client.retries == 0
        retries = coordinator.registry.get("repro_fabric_cache_net_retries_total")
        assert retries.value() >= 1
        assert coordinator.result().render() == _serial_result().render()

    def test_lambda_downtime_platform_axes_match_repro_campaign(
        self, tmp_path, capsys
    ):
        # The preset, both platform axes and a shard count that divides
        # nothing evenly, against the serial CLI over the same arguments.
        spec = CampaignSpec(
            preset="lambda-downtime",
            sizes=(10,),
            downtimes=(0.0, 30.0),
            processors=(1, 2),
            seeds=(0,),
            heuristics=("DF-CkptNvr", "DF-CkptW"),
            max_candidates=5,
            n_shards=3,
        )
        coordinator = FabricCoordinator(spec, ttl=10.0).start()
        workers = _drive(coordinator, n_workers=2)
        assert sum(w.shards_completed for w in workers) == 3
        result = coordinator.result()
        assert len(result.rows) == 24  # 3 rates x 2 downtimes x 2 p x 2 heuristics
        serial_report = tmp_path / "serial.txt"
        assert main([
            "campaign", "--preset", "lambda-downtime", "--families", "montage",
            "--sizes", "10", "--downtimes", "0,30", "--processors", "1,2",
            "--seeds", "0", "--heuristics", "DF-CkptNvr,DF-CkptW",
            "--max-candidates", "5", "--report", str(serial_report),
        ]) == 0
        capsys.readouterr()
        assert (result.render() + "\n").encode() == serial_report.read_bytes()

    def test_unknown_op_and_bad_complete_are_rejected(self):
        coordinator = FabricCoordinator(SPEC, ttl=5.0).start()
        try:
            client = _coordinator_client(coordinator.endpoint)
            with pytest.raises(RpcError, match="unknown op"):
                client.request({"op": "frobnicate", "worker": "w"})
            with pytest.raises(RpcError, match="rows_csv"):
                client.request({"op": "complete", "worker": "w", "shard": 1})
            client.close()
        finally:
            coordinator.stop()

    def test_poisoned_counter_counts_a_promoted_shard(self):
        # Shard 1 is poisoned, completes late (promoted), then shard 2 is
        # poisoned: two quarantine events although one shard is in
        # quarantine at the end.
        coordinator = FabricCoordinator(SPEC, ttl=5.0, max_attempts=1).start()
        try:
            client = _coordinator_client(coordinator.endpoint)
            for shard in (1, 2):
                assert client.request({"op": "lease", "worker": "w"})["shard"] == shard
                client.request({"op": "fail", "worker": "w", "shard": shard})
                if shard == 1:
                    client.request({
                        "op": "complete", "worker": "w", "shard": 1,
                        "rows_csv": rows_to_csv([]),
                    })
            client.close()
        finally:
            coordinator.stop()
        assert len(coordinator.failures) == 1
        assert "repro_fabric_shards_poisoned_total 2" in coordinator.registry.render()

    def test_control_client_gives_up_on_a_dead_coordinator(self):
        client = _coordinator_client(("127.0.0.1", _free_port()), attempts=2)
        with pytest.raises(RpcError, match="unreachable after 2 attempt"):
            client.request({"op": "hello", "worker": "w"})


def _stoppable_server(kind: str, tmp_path):
    if kind == "coordinator":
        return FabricCoordinator(SPEC, ttl=5.0)
    return CacheNetServer(DiskCache(tmp_path / "net.sqlite"))


class TestServerStop:
    """Both servers stop the same way: as if they had crashed."""

    @pytest.mark.parametrize("kind", ["coordinator", "cache-server"])
    def test_a_connection_opened_before_stop_is_cut(self, kind, tmp_path):
        server = _stoppable_server(kind, tmp_path).start()
        client = RpcClient(
            server.endpoint,
            name=kind,
            timeout=5.0,
            retry=RetryPolicy(max_attempts=2, base_delay=0.01),
        )
        first, after_stop = (
            ({"op": "hello", "worker": "w"}, {"op": "lease", "worker": "w"})
            if kind == "coordinator"
            else ({"op": "ping"}, {"op": "put", "key": "k", "value": 1})
        )
        assert client.request(first)["ok"]
        server.stop()
        with pytest.raises(RpcError, match="unreachable after 2 attempt"):
            client.request(after_stop)
        client.close()
        if kind == "coordinator":
            assert server.queue.granted == 0
        else:
            assert server.cache.get("k") is None

    @pytest.mark.parametrize("kind", ["coordinator", "cache-server"])
    def test_stop_returns_on_a_server_that_never_started(self, kind, tmp_path):
        server = _stoppable_server(kind, tmp_path)
        stop = server.close if kind == "coordinator" else server.stop
        stopper = threading.Thread(target=stop, daemon=True)
        stopper.start()
        stopper.join(timeout=5)
        assert not stopper.is_alive()


class TestShardMarkers:
    def test_marker_roundtrip(self):
        rows = _serial_result().rows
        text = rows_to_csv(list(rows), shard=(2, 3))
        assert read_shard_marker(text) == (2, 3)
        assert [str(r) for r in rows_from_csv(text)] == [str(r) for r in rows]

    def test_unmarked_text_reads_as_none(self):
        assert read_shard_marker(rows_to_csv([])) is None

    def test_malformed_marker_rejected(self):
        with pytest.raises(ValueError, match="malformed shard marker"):
            read_shard_marker("# repro-shard: nonsense\n")
        with pytest.raises(ValueError, match="out of range"):
            read_shard_marker("# repro-shard: 3/2\n")


class TestFabricCLI:
    CLI_ARGS = [
        "--families", "montage",
        "--sizes", "10,20",
        "--seeds", "0",
        "--heuristics", "DF-CkptNvr,DF-CkptW",
        "--max-candidates", "5",
    ]

    def _work_in_thread(self, port: int) -> Callable[[], int]:
        """Start a worker on ``port``; the returned call joins it and gives
        its completed-shard count, or re-raises what the worker raised."""
        outcome: dict[str, Any] = {}

        def run() -> None:
            worker = FabricWorker(("127.0.0.1", port), name="w", poll=0.02)
            try:
                outcome["completed"] = worker.run()
            except Exception as exc:
                outcome["error"] = exc

        thread = threading.Thread(target=run, daemon=True)
        thread.start()

        def join() -> int:
            thread.join(timeout=10)
            assert not thread.is_alive(), "the worker did not exit"
            if "error" in outcome:
                raise outcome["error"]
            return outcome["completed"]

        return join

    def test_coordinate_writes_report_and_canonical_csv(self, tmp_path, capsys):
        port = _free_port()
        join_worker = self._work_in_thread(port)
        report = tmp_path / "fabric.txt"
        out_csv = tmp_path / "fabric.csv"
        code = main([
            "fabric", "coordinate", *self.CLI_ARGS,
            "--shards", "2", "--port", str(port), "--ttl", "5",
            "--timeout", "120",
            "--report", str(report), "--output", str(out_csv),
        ])
        assert join_worker() == 2
        assert code == 0
        assert "listening" in capsys.readouterr().out
        assert report.read_text().rstrip("\n") == _serial_result().render()
        assert read_shard_marker(out_csv.read_text()) is None  # merged: unmarked
        assert len(rows_from_csv(out_csv.read_text())) == 4

    def test_poison_shard_exits_3_with_the_quarantine_contract(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv(FAULTS_ENV, "fabric_shard:shard=2")
        port = _free_port()
        join_worker = self._work_in_thread(port)
        code = main([
            "fabric", "coordinate", *self.CLI_ARGS,
            "--shards", "2", "--port", str(port), "--ttl", "5",
            "--max-attempts", "2", "--timeout", "120",
        ])
        assert join_worker() == 1
        assert code == 3
        err = capsys.readouterr().err
        assert "1 shard(s) quarantined after repeated failures" in err
        assert "shard 2/2 failed after 2 attempt(s): RuntimeError" in err

    @pytest.mark.parametrize(
        "bad_grid",
        [["--families", "nonsense"], ["--downtimes", ""], ["--sizes", "-5"]],
        ids=["unknown-family", "empty-downtimes", "size-below-family-minimum"],
    )
    def test_coordinate_refuses_a_bad_grid_before_binding(self, bad_grid, capsys):
        argv = [*self.CLI_ARGS, *bad_grid]
        assert main(["campaign", *argv]) == 2
        campaign_err = capsys.readouterr().err
        code = main([
            "fabric", "coordinate", *argv, "--port", str(_free_port()),
            "--timeout", "5",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == campaign_err
        assert captured.err.startswith("error: ")
        assert "listening" not in captured.out

    def test_every_shard_poisoned_exits_3_not_a_traceback(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv(FAULTS_ENV, "fabric_shard")
        port = _free_port()
        join_worker = self._work_in_thread(port)
        report = tmp_path / "report.txt"
        code = main([
            "fabric", "coordinate", *self.CLI_ARGS,
            "--shards", "2", "--port", str(port), "--ttl", "5",
            "--max-attempts", "1", "--timeout", "120", "--report", str(report),
        ])
        assert join_worker() == 0
        assert code == 3
        err = capsys.readouterr().err
        assert "2 shard(s) quarantined after repeated failures" in err
        assert "shard 1/2 failed after 1 attempt(s): RuntimeError" in err
        assert "shard 2/2 failed after 1 attempt(s): RuntimeError" in err
        # The header-only table, as 'repro campaign' writes with every
        # unit quarantined.
        assert len(report.read_text().splitlines()) == 1

    def test_work_rejects_a_dead_coordinator(self, capsys):
        code = main([
            "fabric", "work", "--coordinator", f"127.0.0.1:{_free_port()}",
        ])
        assert code == 2
        assert "unreachable" in capsys.readouterr().err

    def test_work_reports_a_dead_coordinator_as_json(self, capsys):
        code = main([
            "--json", "fabric", "work", "--coordinator", f"127.0.0.1:{_free_port()}",
        ])
        assert code == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["code"] == "io-error"
        assert "unreachable after 5 attempt(s)" in error["message"]

    def test_metrics_output_is_prometheus_text(self, tmp_path):
        port = _free_port()
        join_worker = self._work_in_thread(port)
        metrics_path = tmp_path / "metrics.txt"
        assert main([
            "fabric", "coordinate", *self.CLI_ARGS,
            "--shards", "2", "--port", str(port), "--ttl", "5",
            "--timeout", "120", "--metrics-output", str(metrics_path),
        ]) == 0
        assert join_worker() == 2
        text = metrics_path.read_text()
        assert "# TYPE repro_fabric_leases_granted_total counter" in text
        assert "repro_fabric_shards_completed_total 2" in text


class TestFabricSubprocess:
    """The kill-resume gate, in miniature: a worker process dies mid-shard."""

    @staticmethod
    def _env(faults: str) -> dict[str, str]:
        return {
            "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"),
            "PATH": "/usr/bin:/bin",
            "REPRO_FAULTS": faults,
        }

    def test_sigkilled_worker_is_finished_by_a_peer(self, tmp_path):
        port = _free_port()
        coordinator = FabricCoordinator(
            SPEC, port=port, ttl=1.5, journal=tmp_path / "fabric.journal"
        ).start()
        doomed = subprocess.run(
            [sys.executable, "-m", "repro.cli", "fabric", "work",
             "--coordinator", f"127.0.0.1:{port}", "--name", "doomed"],
            # Die (exit 137, SIGKILL-alike) after the first completed unit —
            # mid-shard, after the heartbeat established the lease.
            env=self._env("campaign_unit:after=1"),
            capture_output=True, text=True, timeout=120,
        )
        assert doomed.returncode == 137
        # The shard the dead worker held expires and a peer finishes it.
        survivor = FabricWorker(coordinator.endpoint, name="survivor", poll=0.05)
        thread = threading.Thread(target=survivor.run, daemon=True)
        thread.start()
        coordinator.serve(timeout=120)
        thread.join(timeout=10)
        assert survivor.shards_completed == 2
        assert coordinator.queue.expirations >= 1
        assert coordinator.result().render() == _serial_result().render()
        coordinator.close()

    def test_an_idle_worker_exits_0_when_the_campaign_finishes(self):
        # One shard, two workers: the one without a shard polls until the
        # coordinator says the campaign is finished, and must not mistake
        # the coordinator's exit for a crash.  The shard sleeps first, so
        # both workers have reached the coordinator before it settles.
        port = _free_port()
        env = self._env("fabric_shard:sleep=1")
        coordinator = subprocess.Popen(
            [sys.executable, "-m", "repro", "fabric", "coordinate",
             "--families", "montage", "--sizes", "10", "--seeds", "0",
             "--heuristics", "DF-CkptW,DF-CkptNvr", "--max-candidates", "5",
             "--shards", "1", "--ttl", "5", "--port", str(port),
             "--timeout", "120"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        workers: list[subprocess.Popen] = []
        try:
            assert "listening" in coordinator.stdout.readline()
            workers = [
                subprocess.Popen(
                    [sys.executable, "-m", "repro", "fabric", "work",
                     "--coordinator", f"127.0.0.1:{port}", "--name", f"w{i}"],
                    env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                    text=True,
                )
                for i in range(2)
            ]
            outputs = [worker.communicate(timeout=120) for worker in workers]
            coordinator.communicate(timeout=120)
        finally:
            for process in (coordinator, *workers):
                if process.poll() is None:
                    process.kill()
                    process.wait()
        assert coordinator.returncode == 0
        assert [worker.returncode for worker in workers] == [0, 0], outputs
        assert sorted(out for out, _ in outputs) == [
            "completed 0 shard(s)\n", "completed 1 shard(s)\n",
        ]
