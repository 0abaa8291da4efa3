"""Chaos suite: deterministic fault injection across the crash-safety stack.

Every failure path added by the crash-safe-campaigns work is exercised here
through the ``REPRO_FAULTS`` registry (:mod:`repro.runtime.faults`):

* worker supervision — transient crashes retried, poison units bisected and
  quarantined, stuck units timed out;
* the campaign journal — torn tails, idempotence, version pinning, and the
  headline contract: a crashed-then-resumed campaign renders byte-identical
  to an uninterrupted one (in-process here, via SIGKILL in CI);
* disk-cache corruption — quarantine-and-rebuild on open and mid-session;
* service degradation — a group that keeps crashing its worker answers
  503 ``pool-crashed`` while the rest of its batch answers, a transient
  crash is retried within the batch, a killed pool worker leaves the daemon
  serving, and per-request budgets map to 503 ``timeout``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import signal
import sqlite3
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import pytest

from repro.experiments import Scenario, run_campaign
from repro.runtime import (
    FAULTS_ENV,
    QUARANTINED,
    CampaignJournal,
    DiskCache,
    WorkerFailure,
    active_faults,
    fault_fired,
    fault_point,
    parallel_map,
    parse_faults,
)

HEURISTICS = ("DF-CkptW", "DF-CkptNvr")  # deterministic and fast


@pytest.fixture
def scenario():
    return Scenario(
        family="montage",
        n_tasks=15,
        failure_rate=1e-3,
        heuristics=HEURISTICS,
        label="chaos-test",
    )


def _slow_sqrt(value: float) -> float:
    time.sleep(0.3)
    return math.sqrt(value)


@pytest.fixture(autouse=True)
def _no_inherited_faults(monkeypatch):
    # A spec leaking in from the invoking shell must not skew these tests.
    monkeypatch.delenv(FAULTS_ENV, raising=False)


# ----------------------------------------------------------------------
# Fault-spec grammar
# ----------------------------------------------------------------------
class TestParseFaults:
    def test_full_clause(self):
        (clause,) = parse_faults(
            "worker_crash:unit=3,attempt=1,raise=RuntimeError,after=2,times=1"
        )
        assert clause.site == "worker_crash"
        assert clause.action == ("raise", "RuntimeError")
        assert clause.after == 2
        assert clause.times == 1
        assert clause.match == {"unit": "3", "attempt": "1"}

    def test_multiple_clauses_and_empty_spec(self):
        clauses = parse_faults("cache_read; campaign_unit:exit=7")
        assert [c.site for c in clauses] == ["cache_read", "campaign_unit"]
        assert clauses[0].action is None  # site default applies at the point
        assert clauses[1].action == ("exit", "7")
        assert parse_faults("") == []

    def test_unknown_exception_rejected(self):
        with pytest.raises(ValueError, match="unknown exception"):
            parse_faults("cache_read:raise=SystemExit")

    def test_two_actions_rejected(self):
        with pytest.raises(ValueError, match="more than one action"):
            parse_faults("demo:raise=ValueError,exit=1")

    def test_malformed_parameter_rejected(self):
        with pytest.raises(ValueError, match="expected key=value"):
            parse_faults("demo:unit")

    def test_unknown_site_warns_but_parses(self):
        # A typo'd site must not pass silently (it would arm nothing and
        # the chaos test would stop testing anything), but it must not be
        # a hard error either: specs may legitimately name sites that only
        # exist in a newer/older build.
        with pytest.warns(RuntimeWarning, match="unknown fault site 'worker_crsh'"):  # reprolint: allow[RL006]
            (clause,) = parse_faults("worker_crsh:exit=9")  # reprolint: allow[RL006]
        assert clause.action == ("exit", "9")

    def test_registry_is_exported_and_closed(self):
        from repro.runtime import KNOWN_FAULT_SITES

        assert "worker_crash" in KNOWN_FAULT_SITES
        assert "demo" in KNOWN_FAULT_SITES
        with warnings.catch_warnings():  # known sites never warn
            warnings.simplefilter("error")
            parse_faults(";".join(f"{s}:exit=1" for s in sorted(KNOWN_FAULT_SITES)))


class TestFaultPoint:
    def test_unarmed_spec_is_a_noop(self):
        fault_point("worker_crash", default="exit=137", unit=0)  # must not fire

    def test_clause_action_fires_with_site_and_context_in_message(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "demo:raise=RuntimeError")
        with pytest.raises(RuntimeError, match=r"injected fault at demo \(unit=7\)"):
            fault_point("demo", unit=7)

    def test_context_match_gates_firing(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "demo:unit=3,raise=ValueError")
        fault_point("demo", unit=2)  # no match, no fire
        with pytest.raises(ValueError):
            fault_point("demo", unit=3)

    def test_after_skips_matching_calls(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "demo:after=2,raise=ValueError")
        fault_point("demo")
        fault_point("demo")
        with pytest.raises(ValueError):
            fault_point("demo")

    def test_times_caps_firings(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "demo:times=1,raise=ValueError")
        with pytest.raises(ValueError):
            fault_point("demo")
        fault_point("demo")  # budget spent
        assert fault_fired("demo") == 1

    def test_site_default_applies_when_clause_names_no_action(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "demo")
        with pytest.raises(sqlite3.DatabaseError):
            fault_point("demo", default="raise=DatabaseError")
        fault_point("demo")  # no default at this point: still a no-op

    def test_changing_the_spec_resets_counters(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "demo:times=1,raise=ValueError")
        with pytest.raises(ValueError):
            fault_point("demo")
        monkeypatch.setenv(FAULTS_ENV, "demo:times=1,raise=ValueError ")
        with pytest.raises(ValueError):
            fault_point("demo")

    def test_active_faults_restores_the_environment(self):
        with active_faults("demo:raise=ValueError"):
            assert os.environ[FAULTS_ENV] == "demo:raise=ValueError"
            with pytest.raises(ValueError):
                fault_point("demo")
        assert FAULTS_ENV not in os.environ
        fault_point("demo")


# ----------------------------------------------------------------------
# Worker supervision (the faults ride os.environ into forked workers)
# ----------------------------------------------------------------------
class TestSupervision:
    def test_transient_worker_crash_is_retried_to_the_serial_result(
        self, monkeypatch
    ):
        # The worker handling unit 2 dies hard on the first attempt only —
        # the retry (attempt 2) no longer matches, so supervision recovers
        # the exact serial result.
        values = list(range(8))
        serial = parallel_map(math.sqrt, values, jobs=1)
        monkeypatch.setenv(FAULTS_ENV, "worker_crash:unit=2,attempt=1")
        assert (
            parallel_map(
                math.sqrt, values, jobs=2, chunksize=2,
                max_retries=2, retry_backoff=0.0,
            )
            == serial
        )

    def test_poison_unit_is_bisected_and_quarantined_alone(self, monkeypatch):
        # Unit 5 kills its worker on every attempt.  Bisection must isolate
        # it: its chunk-mates (same initial chunk) still produce results.
        monkeypatch.setenv(FAULTS_ENV, "worker_crash:unit=5")
        failures: list[WorkerFailure] = []
        results = parallel_map(
            math.sqrt, list(range(8)), jobs=2, chunksize=4,
            max_retries=1, retry_backoff=0.0,
            quarantine=True, on_failure=failures.append,
        )
        assert results[5] is QUARANTINED
        assert [r for i, r in enumerate(results) if i != 5] == [
            math.sqrt(i) for i in range(8) if i != 5
        ]
        assert [f.unit_index for f in failures] == [5]
        assert failures[0].kind == "crash"
        assert failures[0].attempts >= 2  # it was genuinely retried

    def test_a_chunk_beside_a_dying_worker_is_not_charged(self, monkeypatch):
        # Unit 0 is still running when unit 1's worker dies, on every
        # attempt, so the pool breaks under both.  Only a chunk that broke
        # while running alone is charged an attempt: unit 0 completes and
        # unit 1 alone is quarantined.
        monkeypatch.setenv(FAULTS_ENV, "worker_crash:unit=1")
        failures: list[WorkerFailure] = []
        results = parallel_map(
            _slow_sqrt, [4.0, 9.0], jobs=2, chunksize=1,
            max_retries=1, retry_backoff=0.0,
            quarantine=True, on_failure=failures.append,
        )
        assert results[0] == 2.0
        assert results[1] is QUARANTINED
        assert [f.unit_index for f in failures] == [1]

    def test_stuck_unit_times_out_and_is_quarantined(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "chunk_timeout:unit=1,sleep=5")
        failures: list[WorkerFailure] = []
        results = parallel_map(
            math.sqrt, [1.0, 4.0, 9.0, 16.0], jobs=2, chunksize=1,
            unit_timeout=0.5, max_retries=0, retry_backoff=0.0,
            quarantine=True, on_failure=failures.append,
        )
        assert results[1] is QUARANTINED
        assert [results[0], results[2], results[3]] == [1.0, 3.0, 4.0]
        assert [f.unit_index for f in failures] == [1]
        assert failures[0].kind == "timeout"

    def test_without_quarantine_the_poison_failure_is_raised(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "worker_crash:unit=0")
        with pytest.raises(WorkerFailure) as excinfo:
            parallel_map(
                math.sqrt, [4.0, 9.0], jobs=2, chunksize=1,
                max_retries=0, retry_backoff=0.0,
            )
        assert excinfo.value.unit_index == 0
        assert excinfo.value.kind == "crash"


class TestCampaignQuarantine:
    def test_poison_group_is_quarantined_whole(self, scenario, tmp_path, monkeypatch):
        # Units: seed 0 -> 0 DF-CkptW, 1 RF-CkptC, 2 DF-CkptNvr; seed 1 ->
        # 3, 4, 5.  Groups, ordered by first unit: [0, 2], [1], [3, 5], [4];
        # parallel item 2 is seed 1's DF group, units 3 and 5.
        from repro.runtime.runner import CampaignRunner, plan_unit

        mixed = scenario.with_updates(heuristics=("DF-CkptW", "RF-CkptC", "DF-CkptNvr"))
        options = dict(search_mode="geometric", max_candidates=5)
        with CampaignRunner(**options) as runner:
            serial = runner.run_rows([mixed], seeds=(0, 1))
        monkeypatch.setenv(FAULTS_ENV, "worker_crash:unit=2")
        journal_path = tmp_path / "quarantine.jsonl"
        with CampaignRunner(
            jobs=2, journal=str(journal_path), quarantine=True,
            max_retries=1, retry_backoff=0.0, **options,
        ) as runner:
            rows = runner.run_rows([mixed], seeds=(0, 1))
            failures = list(runner.failures)
        monkeypatch.delenv(FAULTS_ENV)

        poisoned = [(1, "DF-CkptW"), (1, "DF-CkptNvr")]
        assert [(r.seed, r.heuristic) for r in rows] == [
            (r.seed, r.heuristic) for r in serial
            if (r.seed, r.heuristic) not in poisoned
        ]
        survivors = [r for r in serial if (r.seed, r.heuristic) not in poisoned]
        assert [dataclasses.replace(r, solve_seconds=0.0) for r in rows] == [
            dataclasses.replace(r, solve_seconds=0.0) for r in survivors
        ]
        assert [
            (f.unit.scenario.seed, f.unit.heuristic) for f in failures
        ] == poisoned
        assert all(f.failure.kind == "crash" for f in failures)
        with CampaignJournal(journal_path) as journal:
            assert set(journal.failures) == {plan_unit(f.unit).key for f in failures}
            assert len(journal) == len(rows)


# ----------------------------------------------------------------------
# Campaign journal
# ----------------------------------------------------------------------
class TestCampaignJournal:
    def test_roundtrip_and_idempotence(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CampaignJournal(path) as journal:
            journal.record("k1", {"x": 1.5})
            journal.record("k1", {"x": 999.0})  # idempotent: first write wins
            journal.record_failure("k2", {"kind": "crash", "attempts": 3})
        lines = path.read_text().splitlines()
        assert len(lines) == 3  # header + one unit + one failure
        with CampaignJournal(path) as journal:
            assert journal.get("k1") == {"x": 1.5}
            assert "k1" in journal and len(journal) == 1
            assert journal.failures["k2"]["kind"] == "crash"

    def test_torn_tail_is_dropped_and_trimmed(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CampaignJournal(path) as journal:
            journal.record("k1", {"x": 1.0})
        with open(path, "ab") as fh:
            fh.write(b'{"kind": "unit", "key": "k2", "outc')  # crash mid-write
        with CampaignJournal(path) as journal:
            assert "k1" in journal and "k2" not in journal
            journal.record("k3", {"x": 3.0})  # appends on a clean boundary
        with CampaignJournal(path) as journal:
            assert sorted(journal.keys()) == ["k1", "k3"]

    def test_non_journal_file_is_rejected(self, tmp_path):
        path = tmp_path / "notes.txt"
        path.write_text("hello\n")
        with pytest.raises(ValueError, match="not a campaign journal"):
            CampaignJournal(path)

    def test_version_mismatch_is_rejected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        header = {"kind": "journal", "v": 999, "key_version": 2, "algo_version": 2}
        path.write_text(json.dumps(header) + "\n")
        with pytest.raises(ValueError, match="re-run the campaign"):
            CampaignJournal(path)

    def test_unknown_record_kinds_are_skipped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CampaignJournal(path) as journal:
            journal.record("k1", {"x": 1.0})
        with open(path, "ab") as fh:
            fh.write(b'{"kind": "future-extension", "key": "k9", "blob": []}\n')
        with CampaignJournal(path) as journal:
            assert sorted(journal.keys()) == ["k1"]


class TestCampaignResume:
    def test_crash_then_resume_renders_bit_identical(
        self, scenario, tmp_path, monkeypatch
    ):
        reference = run_campaign([scenario], seeds=(0, 1))
        journal_path = tmp_path / "campaign.jsonl"
        # Die right after the second completed unit lands in the journal
        # (the point fires post-write, so after=1 means two units are safe) —
        # the in-process stand-in for the CI gate's exit=137 kill.
        monkeypatch.setenv(FAULTS_ENV, "campaign_unit:raise=KeyboardInterrupt,after=1")
        with pytest.raises(KeyboardInterrupt):
            run_campaign([scenario], seeds=(0, 1), journal=str(journal_path))
        monkeypatch.delenv(FAULTS_ENV)
        with CampaignJournal(journal_path) as journal:
            completed_at_crash = len(journal)
        assert completed_at_crash == 2

        resumed = run_campaign([scenario], seeds=(0, 1), journal=str(journal_path))
        assert resumed.render() == reference.render()
        assert len(resumed.rows) == len(reference.rows)

    def test_full_journal_replays_without_any_computation(
        self, scenario, tmp_path, monkeypatch
    ):
        journal_path = tmp_path / "campaign.jsonl"
        reference = run_campaign([scenario], seeds=(0,), journal=str(journal_path))

        def bomb(plans):  # pragma: no cover - must never run
            raise AssertionError("journal replay must not recompute")

        monkeypatch.setattr("repro.runtime.runner.solve_group", bomb)
        replayed = run_campaign([scenario], seeds=(0,), journal=str(journal_path))
        assert replayed.render() == reference.render()

    def test_journal_replay_warms_the_cache(self, scenario, tmp_path):
        from repro.runtime import ResultCache

        journal_path = tmp_path / "campaign.jsonl"
        run_campaign([scenario], seeds=(0,), journal=str(journal_path))
        cache = ResultCache(maxsize=64)
        run_campaign(
            [scenario], seeds=(0,), journal=str(journal_path), cache=cache
        )
        assert cache.stats.puts == len(HEURISTICS)


# ----------------------------------------------------------------------
# CLI: SIGINT semantics and the kill-resume contract
# ----------------------------------------------------------------------
CLI_ARGS = [
    "campaign",
    "--families", "montage",
    "--sizes", "15",
    "--seeds", "0",
    "--heuristics", ",".join(HEURISTICS),
]


class TestCampaignCli:
    def test_interrupt_exits_130_with_resume_hint(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main

        journal_path = tmp_path / "j.jsonl"
        monkeypatch.setenv(
            FAULTS_ENV, "campaign_unit:raise=KeyboardInterrupt,after=1"
        )
        code = main(CLI_ARGS + ["--journal", str(journal_path)])
        assert code == 130
        err = capsys.readouterr().err
        assert "interrupted" in err
        assert f"--resume {journal_path}" in err

    def test_interrupt_without_journal_suggests_one(self, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv(
            FAULTS_ENV, "campaign_unit:raise=KeyboardInterrupt,after=1"
        )
        code = main(list(CLI_ARGS))
        assert code == 130
        assert "--journal" in capsys.readouterr().err

    def test_resume_report_matches_uninterrupted_run(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main

        reference_report = tmp_path / "reference.txt"
        assert main(CLI_ARGS + ["--report", str(reference_report)]) == 0
        capsys.readouterr()

        journal_path = tmp_path / "j.jsonl"
        monkeypatch.setenv(
            FAULTS_ENV, "campaign_unit:raise=KeyboardInterrupt,after=1"
        )
        assert main(CLI_ARGS + ["--journal", str(journal_path)]) == 130
        monkeypatch.delenv(FAULTS_ENV)
        capsys.readouterr()

        resumed_report = tmp_path / "resumed.txt"
        code = main(
            CLI_ARGS + ["--resume", str(journal_path), "--report", str(resumed_report)]
        )
        assert code == 0
        assert resumed_report.read_bytes() == reference_report.read_bytes()

    def test_resume_over_a_grown_reordered_grid_replays_by_content(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main
        from repro.runtime import runner

        base = ["campaign", "--seeds", "0", "--heuristics", ",".join(HEURISTICS)]
        journal_path = tmp_path / "j.jsonl"
        assert main(base + ["--families", "montage", "--sizes", "15",
                            "--journal", str(journal_path)]) == 0
        # More families and sizes, montage no longer first: the journal
        # must match by unit content, not by position in the grid.
        grown = base + ["--families", "cybershake,montage", "--sizes", "15,20"]
        fresh_report = tmp_path / "fresh.txt"
        assert main(grown + ["--report", str(fresh_report)]) == 0
        capsys.readouterr()

        solved: list[tuple[str, int]] = []
        solve_group = runner.solve_group

        def recording(plans):
            solved.extend((p.unit.scenario.family, p.unit.scenario.n_tasks) for p in plans)
            return solve_group(plans)

        monkeypatch.setattr(runner, "solve_group", recording)
        resumed_report = tmp_path / "resumed.txt"
        assert main(grown + ["--resume", str(journal_path),
                             "--report", str(resumed_report)]) == 0
        assert ("montage", 15) not in solved
        assert len(solved) == 6  # 8 units, the 2 journaled ones replayed
        assert resumed_report.read_bytes() == fresh_report.read_bytes()
        # One header line and one record per unit: nothing recorded twice.
        assert len(journal_path.read_text().splitlines()) == 1 + 8

    def test_resume_requires_an_existing_journal(self, tmp_path, capsys):
        from repro.cli import main

        code = main(CLI_ARGS + ["--resume", str(tmp_path / "missing.jsonl")])
        assert code == 2
        assert "cannot resume" in capsys.readouterr().err

    def test_conflicting_journal_and_resume_rejected(self, tmp_path, capsys):
        from repro.cli import main

        (tmp_path / "a.jsonl").write_text("")
        code = main(
            CLI_ARGS
            + ["--journal", str(tmp_path / "a.jsonl"),
               "--resume", str(tmp_path / "b.jsonl")]
        )
        assert code == 2
        assert "give only one" in capsys.readouterr().err


class TestKillResumeSubprocess:
    """The true hard-kill path: ``os._exit(137)`` mid-campaign, then resume.

    This is the same contract the CI kill-resume gate enforces with ``cmp``;
    running it here keeps the property testable without CI.
    """

    def _run(self, args, *, faults=None, cwd=None):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        env.pop(FAULTS_ENV, None)
        if faults is not None:
            env[FAULTS_ENV] = faults
        return subprocess.run(
            [sys.executable, "-m", "repro", *args],
            env=env, cwd=cwd, capture_output=True, text=True, timeout=300,
        )

    def test_sigkill_mid_campaign_then_resume_is_byte_identical(self, tmp_path):
        reference = tmp_path / "reference.txt"
        completed = self._run(CLI_ARGS + ["--report", str(reference)])
        assert completed.returncode == 0, completed.stderr

        journal = tmp_path / "j.jsonl"
        killed = self._run(
            CLI_ARGS + ["--journal", str(journal)],
            faults="campaign_unit:after=1",
        )
        assert killed.returncode == 137  # died hard, mid-run
        assert journal.exists()

        resumed_report = tmp_path / "resumed.txt"
        resumed = self._run(
            CLI_ARGS + ["--resume", str(journal), "--report", str(resumed_report)]
        )
        assert resumed.returncode == 0, resumed.stderr
        assert resumed_report.read_bytes() == reference.read_bytes()


# ----------------------------------------------------------------------
# Disk-cache corruption recovery
# ----------------------------------------------------------------------
class TestCacheCorruption:
    def test_corrupt_file_on_open_is_quarantined_and_rebuilt(
        self, tmp_path, caplog
    ):
        path = tmp_path / "cache.sqlite"
        path.write_bytes(b"this is not a sqlite database at all")
        with caplog.at_level("WARNING", logger="repro.runtime.cache"):
            cache = DiskCache(path)
        try:
            assert cache.get("k") is None
            cache.put("k", {"x": 1.0})
            assert cache.get("k") == {"x": 1.0}
        finally:
            cache.close()
        quarantined = list(tmp_path.glob("cache.sqlite.corrupt-*"))
        assert len(quarantined) == 1
        assert quarantined[0].read_bytes().startswith(b"this is not")
        assert any("quarantin" in r.message for r in caplog.records)

    def test_corruption_during_read_recovers_to_an_empty_cache(
        self, tmp_path, monkeypatch, caplog
    ):
        path = tmp_path / "cache.sqlite"
        cache = DiskCache(path)
        cache.put("k", {"x": 1.0})
        monkeypatch.setenv(FAULTS_ENV, "cache_read:times=1")
        with caplog.at_level("WARNING", logger="repro.runtime.cache"):
            assert cache.get("k") is None  # corruption surfaced as a miss
        monkeypatch.delenv(FAULTS_ENV)
        try:
            cache.put("k2", {"y": 2.0})  # the rebuilt cache is writable
            assert cache.get("k2") == {"y": 2.0}
        finally:
            cache.close()
        assert list(tmp_path.glob("cache.sqlite.corrupt-*"))

    def test_corruption_during_open_validation_is_survived(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(FAULTS_ENV, "cache_open:times=1")
        cache = DiskCache(tmp_path / "cache.sqlite")
        try:
            cache.put("k", {"x": 1.0})
            assert cache.get("k") == {"x": 1.0}
        finally:
            cache.close()


# ----------------------------------------------------------------------
# Service degradation and self-healing
# ----------------------------------------------------------------------
class TestServiceChaos:
    @staticmethod
    def _request(port, method, path, payload=None):
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        try:
            body = json.dumps(payload) if payload is not None else None
            conn.request(method, path, body=body)
            response = conn.getresponse()
            raw = response.read()
            headers = dict(response.getheaders())
            if headers.get("Content-Type", "").startswith("application/json"):
                return response.status, json.loads(raw), headers
            return response.status, raw.decode("utf-8"), headers
        finally:
            conn.close()

    @staticmethod
    def _solve_payload():
        return {
            "family": "montage", "n_tasks": 12, "seed": 3, "heuristic": "DF-CkptW",
        }

    @staticmethod
    def _two_instance_batch(seeds=(3, 4)):
        """Two requests of different instances: a batch of two groups."""
        from repro.service.schema import parse_solve_request

        return [
            parse_solve_request(
                {"family": "montage", "n_tasks": 12, "seed": seed, "heuristic": "DF-CkptW"}
            )
            for seed in seeds
        ]

    @staticmethod
    def _planner(jobs):
        from repro.service.metrics import build_service_registry
        from repro.service.planner import ServicePlanner

        registry = build_service_registry()
        return ServicePlanner(registry=registry, jobs=jobs), registry

    def test_transient_pool_crash_is_retried_within_the_batch(self, monkeypatch):
        serial, _ = self._planner(1)
        expected = serial.solve_batch(self._two_instance_batch())
        # Group 1 kills its worker on the first attempt only; the retry
        # answers it, so the batch equals the in-thread planner's.
        monkeypatch.setenv(FAULTS_ENV, "worker_crash:unit=1,attempt=1")
        planner, registry = self._planner(2)
        try:
            payloads = planner.solve_batch(self._two_instance_batch())
        finally:
            planner.close()
        assert payloads == expected
        assert registry.get("repro_pool_crashes_total").value() > 0
        assert registry.get("repro_solve_retries_total").value() > 0

    def test_batch_threads_share_the_pool_through_crashes(self, monkeypatch):
        from repro.service.schema import ServiceError

        # Three batch threads (more than this host's cores) share one
        # two-worker pool while each batch's group 1 crashes its worker
        # once; every crash breaks the others' work too.
        batches = [self._two_instance_batch(seeds) for seeds in ((3, 4), (5, 6), (7, 8))]
        serial, _ = self._planner(1)
        expected = [serial.solve_batch(batch) for batch in batches]
        monkeypatch.setenv(FAULTS_ENV, "worker_crash:unit=1,attempt=1")
        planner, registry = self._planner(2)
        answers: list = [None] * len(batches)

        def run(slot):
            answers[slot] = planner.solve_batch(batches[slot])

        threads = [threading.Thread(target=run, args=(slot,)) for slot in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
            planner.close()
        # Each request gets its own payload.  A crash is blamed on a group
        # that ran alone in its own batch, so a group can be charged for
        # another batch's crash: then it fails as pool-crashed, never with
        # a wrong answer.
        for got, want in zip(answers, expected):
            for answer, payload in zip(got, want):
                assert answer == payload or (
                    isinstance(answer, ServiceError) and answer.code == "pool-crashed"
                ), answer
        # Every reset and re-send reached the metrics exactly once.
        pool = planner._pool
        assert registry.get("repro_pool_crashes_total").value() == pool.resets > 0
        assert registry.get("repro_solve_retries_total").value() == pool.resent > 0

    def test_poison_group_fails_only_its_own_requests(self, monkeypatch):
        from repro.service.schema import ServiceError

        monkeypatch.setenv(FAULTS_ENV, "worker_crash:unit=1")
        planner, _ = self._planner(2)
        try:
            answered, poisoned = planner.solve_batch(self._two_instance_batch())
            monkeypatch.delenv(FAULTS_ENV)
            healed = planner.solve_batch(self._two_instance_batch())
        finally:
            planner.close()
        assert answered["seed"] == 3 and answered["expected_makespan"] > 0
        assert isinstance(poisoned, ServiceError)
        assert (poisoned.status, poisoned.code) == (503, "pool-crashed")
        # The quarantine reset the pool: the next batch forks fresh workers.
        assert [payload["seed"] for payload in healed] == [3, 4]

    @staticmethod
    def _child_pids(pid):
        children = []
        for stat in Path("/proc").glob("[0-9]*/stat"):
            try:
                fields = stat.read_text().rsplit(")", 1)[1].split()
            except (OSError, IndexError):
                continue  # the process is gone
            if int(fields[1]) == pid:
                children.append(int(stat.parent.name))
        return sorted(children)

    @pytest.mark.skipif(
        not Path("/proc/self/stat").exists(), reason="finds pool workers through /proc"
    )
    @pytest.mark.parametrize("signum", [signal.SIGKILL, signal.SIGTERM])
    def test_a_killed_pool_worker_leaves_the_daemon_serving(self, tmp_path, signum):
        from concurrent.futures import ThreadPoolExecutor

        def solve_two_instances(port):
            with ThreadPoolExecutor(max_workers=2) as clients:
                answers = clients.map(
                    lambda seed: self._request(
                        port, "POST", "/v1/solve", {**self._solve_payload(), "seed": seed}
                    ),
                    (3, 4),
                )
                return [status for status, _, _ in answers]

        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        env.pop(FAULTS_ENV, None)
        with open(tmp_path / "serve.log", "w") as log:
            daemon = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--jobs", "2", "--batch-window", "1"],
                env=env, stdout=subprocess.PIPE, stderr=log, text=True,
            )
        try:
            port = int(daemon.stdout.readline().rsplit(":", 1)[1])
            # One batch of two groups starts both pool workers.
            assert solve_two_instances(port) == [200, 200]
            workers = self._child_pids(daemon.pid)
            assert len(workers) == 2
            os.kill(workers[0], signum)
            time.sleep(1.0)
            assert daemon.poll() is None, (tmp_path / "serve.log").read_text()
            status, payload, _ = self._request(port, "GET", "/healthz")
            assert (status, payload["status"]) == (200, "ok")
            assert solve_two_instances(port) == [200, 200]
        finally:
            daemon.send_signal(signal.SIGINT)
            try:
                daemon.wait(timeout=30)
            except subprocess.TimeoutExpired:
                daemon.kill()
                daemon.wait()
            daemon.stdout.close()
        assert daemon.returncode == 0

    def test_request_timeout_maps_to_503_timeout(self, monkeypatch):
        from repro.service import BackgroundServer, ServiceConfig

        config = ServiceConfig(port=0, workers=1, request_timeout=0.2)
        with BackgroundServer(config) as server:
            monkeypatch.setenv(FAULTS_ENV, "chunk_timeout:sleep=2,times=1")
            status, payload, headers = self._request(
                server.port, "POST", "/v1/solve", self._solve_payload()
            )
            assert status == 503
            assert payload["error"]["code"] == "timeout"
            assert headers.get("Retry-After") == "1"
            monkeypatch.delenv(FAULTS_ENV)
            _, metrics, _ = self._request(server.port, "GET", "/metrics")
            assert "repro_solve_timeouts_total 1" in metrics
