"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.workflows import load_schedule, load_workflow


@pytest.fixture
def workflow_path(tmp_path):
    path = tmp_path / "wf.json"
    code = main([
        "generate",
        "--family", "cybershake",
        "--tasks", "25",
        "--seed", "3",
        "--output", str(path),
    ])
    assert code == 0
    return path


@pytest.fixture
def schedule_path(tmp_path, workflow_path):
    path = tmp_path / "sched.json"
    code = main([
        "solve",
        "--workflow", str(workflow_path),
        "--heuristic", "DF-CkptW",
        "--failure-rate", "1e-3",
        "--output", str(path),
    ])
    assert code == 0
    return path


class TestParser:
    def test_requires_a_command(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestGenerate:
    def test_generates_pegasus_workflow(self, workflow_path, capsys):
        workflow = load_workflow(workflow_path)
        assert 20 <= workflow.n_tasks <= 30
        assert all(t.checkpoint_cost > 0 for t in workflow.tasks)

    def test_generates_generic_chain(self, tmp_path):
        path = tmp_path / "chain.json"
        assert main(["generate", "--family", "chain", "--tasks", "12", "--output", str(path)]) == 0
        workflow = load_workflow(path)
        assert workflow.n_tasks == 12
        assert workflow.is_chain()

    def test_constant_checkpoint_mode(self, tmp_path):
        path = tmp_path / "wf.json"
        assert main([
            "generate", "--family", "montage", "--tasks", "30",
            "--checkpoint-mode", "constant", "--checkpoint-value", "5",
            "--output", str(path),
        ]) == 0
        workflow = load_workflow(path)
        assert all(t.checkpoint_cost == pytest.approx(5.0) for t in workflow.tasks)

    def test_unknown_family_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["generate", "--family", "nonsense", "--output", str(tmp_path / "x.json")])


class TestSolveAndEvaluate:
    def test_solve_writes_valid_schedule(self, schedule_path, workflow_path, capsys):
        schedule = load_schedule(schedule_path)
        workflow = load_workflow(workflow_path)
        assert sorted(schedule.order) == list(range(workflow.n_tasks))
        out = capsys.readouterr().out
        assert "E[makespan]" in out or out == ""  # printed during the fixture

    def test_solve_with_refinement(self, tmp_path, workflow_path, capsys):
        path = tmp_path / "refined.json"
        code = main([
            "solve", "--workflow", str(workflow_path),
            "--heuristic", "DF-CkptPer", "--refine",
            "--output", str(path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "refinement" in out
        assert path.exists()

    def test_evaluate_outputs_json(self, schedule_path, capsys):
        code = main(["evaluate", "--schedule", str(schedule_path), "--failure-rate", "1e-3"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["expected_makespan"] >= payload["failure_free_work"]
        assert payload["overhead_ratio"] >= 1.0

    def test_analyse_report(self, schedule_path, capsys):
        code = main([
            "analyse", "--schedule", str(schedule_path),
            "--failure-rate", "1e-3", "--top", "3", "--utilities",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "expected makespan" in out
        assert "checkpoint utilities" in out

    def test_simulate_summary(self, schedule_path, capsys):
        code = main([
            "simulate", "--schedule", str(schedule_path),
            "--failure-rate", "1e-3", "--runs", "50", "--seed", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "simulated executions" in out
        assert "95% CI" in out


def _tiny_all_figures(*, preset, seed, jobs=1, cache=None, progress=None, backend=None):
    """Drop-in for repro.cli.all_figures with a fast single-figure config."""
    from repro.experiments import figure2

    return {
        "figure2": figure2(
            sizes=(20,), seed=seed, search_mode="geometric",
            jobs=jobs, cache=cache, progress=progress,
        )
    }


class TestFigures:
    def test_figures_smoke_writes_csv(self, tmp_path, capsys, monkeypatch):
        # Patch the figure runner to a tiny configuration to keep the test fast.
        import repro.cli as cli

        monkeypatch.setattr(cli, "all_figures", _tiny_all_figures)
        outdir = tmp_path / "figs"
        code = main(["figures", "--preset", "smoke", "--outdir", str(outdir)])
        assert code == 0
        assert (outdir / "figure2.csv").exists()
        assert "figure2" in capsys.readouterr().out

    def test_figures_fails_fast_on_unwritable_outdir(self, tmp_path, capsys, monkeypatch):
        import repro.cli as cli

        def sweep_must_not_run(**kwargs):
            raise AssertionError("sweep ran despite unwritable outdir")

        monkeypatch.setattr(cli, "all_figures", sweep_must_not_run)
        monkeypatch.setattr(cli.os, "access", lambda *a, **k: False)
        assert main(["figures", "--outdir", str(tmp_path / "figs")]) == 2
        assert "not writable" in capsys.readouterr().err
        assert not (tmp_path / "figs").exists()

    def test_figures_with_cache_reports_stats(self, tmp_path, capsys, monkeypatch):
        import repro.cli as cli

        monkeypatch.setattr(cli, "all_figures", _tiny_all_figures)
        cache_path = tmp_path / "cache.sqlite"
        args = [
            "figures", "--outdir", str(tmp_path / "figs"),
            "--jobs", "1", "--cache", str(cache_path),
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "misses" in first and cache_path.exists()

        assert main(args) == 0
        second = capsys.readouterr().out
        assert ", 0 misses" in second  # fully warm re-run


class TestPlatformAgreement:
    """Direct CLI platform paths and scenario paths must price identically."""

    def test_evaluate_downtime_matches_campaign_scenario(self, tmp_path, capsys):
        from repro.experiments import Scenario, run_heuristic

        seed, downtime = 3, 2.0
        wf_path = tmp_path / "wf.json"
        sched_path = tmp_path / "sched.json"
        assert main(["generate", "--family", "cybershake", "--tasks", "25",
                     "--seed", str(seed), "--output", str(wf_path)]) == 0
        assert main(["solve", "--workflow", str(wf_path), "--heuristic", "DF-CkptW",
                     "--failure-rate", "1e-3", "--downtime", str(downtime),
                     "--output", str(sched_path)]) == 0
        capsys.readouterr()
        assert main(["evaluate", "--schedule", str(sched_path),
                     "--failure-rate", "1e-3", "--downtime", str(downtime)]) == 0
        cli_makespan = json.loads(capsys.readouterr().out)["expected_makespan"]

        scenario = Scenario(
            family="cybershake", n_tasks=25, failure_rate=1e-3,
            downtime=downtime, heuristics=("DF-CkptW",), seed=seed,
        )
        row = run_heuristic(scenario, "DF-CkptW")
        assert cli_makespan == pytest.approx(row.expected_makespan, rel=1e-12)

    def test_evaluate_processors_scale_the_rate(self, tmp_path, capsys):
        from repro.experiments import Scenario, run_heuristic

        wf_path = tmp_path / "wf.json"
        sched_path = tmp_path / "sched.json"
        assert main(["generate", "--family", "montage", "--tasks", "20",
                     "--seed", "1", "--output", str(wf_path)]) == 0
        assert main(["solve", "--workflow", str(wf_path), "--heuristic", "DF-CkptW",
                     "--failure-rate", "2.5e-4", "--processors", "4",
                     "--output", str(sched_path)]) == 0
        capsys.readouterr()
        assert main(["evaluate", "--schedule", str(sched_path),
                     "--failure-rate", "2.5e-4", "--processors", "4"]) == 0
        cli_makespan = json.loads(capsys.readouterr().out)["expected_makespan"]
        scenario = Scenario(
            family="montage", n_tasks=20, failure_rate=2.5e-4, processors=4,
            heuristics=("DF-CkptW",), seed=1,
        )
        row = run_heuristic(scenario, "DF-CkptW")
        assert cli_makespan == pytest.approx(row.expected_makespan, rel=1e-12)


class TestCampaignCommand:
    CAMPAIGN_ARGS = [
        "campaign",
        "--families", "montage",
        "--sizes", "15",
        "--seeds", "0,1",
        "--heuristics", "DF-CkptW,DF-CkptNvr",
        "--max-candidates", "5",
    ]

    def test_campaign_prints_aggregation_and_writes_csv(self, tmp_path, capsys):
        out_csv = tmp_path / "rows.csv"
        code = main(self.CAMPAIGN_ARGS + ["--output", str(out_csv)])
        assert code == 0
        out = capsys.readouterr().out
        assert "DF-CkptW" in out and "montage" in out
        assert out_csv.exists()
        assert "heuristic" in out_csv.read_text()

    def test_campaign_fails_fast_on_missing_output_dir(self, tmp_path, capsys, monkeypatch):
        import repro.cli as cli

        def sweep_must_not_run(*args, **kwargs):
            raise AssertionError("sweep ran despite bad --output")

        monkeypatch.setattr(cli, "run_campaign", sweep_must_not_run)
        out = tmp_path / "missing" / "rows.csv"
        assert main(self.CAMPAIGN_ARGS + ["--output", str(out)]) == 2
        assert "does not exist" in capsys.readouterr().err

    PLATFORM_GRID_ARGS = [
        "campaign",
        "--families", "montage",
        "--sizes", "15",
        "--seeds", "0,1",
        "--heuristics", "DF-CkptW",
        "--max-candidates", "5",
        "--downtimes", "0,30",
        "--processors", "1,4",
    ]

    def test_campaign_platform_axes_render_distinct_points(self, tmp_path, capsys):
        out_csv = tmp_path / "rows.csv"
        assert main(self.PLATFORM_GRID_ARGS + ["--output", str(out_csv)]) == 0
        out = capsys.readouterr().out
        header = out.splitlines()[0].split()
        assert "D" in header and "p" in header
        from repro.experiments import load_rows_csv

        rows = load_rows_csv(out_csv)
        # 4 platform points x 2 seeds x 1 heuristic
        assert len(rows) == 8
        assert {(r.downtime, r.processors) for r in rows} == {
            (0.0, 1), (0.0, 4), (30.0, 1), (30.0, 4),
        }

    def test_sharded_campaign_merges_to_the_unsharded_report(self, tmp_path, capsys):
        """Acceptance: 2 shards + merge == unsharded, byte for byte."""
        full_report = tmp_path / "full.txt"
        merged_report = tmp_path / "merged.txt"
        assert main(self.PLATFORM_GRID_ARGS + ["--report", str(full_report)]) == 0
        for shard in ("1/2", "2/2"):
            assert main(
                self.PLATFORM_GRID_ARGS
                + ["--shard", shard, "--output", str(tmp_path / f"shard{shard[0]}.csv")]
            ) == 0
        capsys.readouterr()
        # Shards passed in reverse order: the merge must not care.
        assert main(["campaign", "merge", str(tmp_path / "shard2.csv"),
                     str(tmp_path / "shard1.csv"), "--report", str(merged_report),
                     "--output", str(tmp_path / "merged.csv")]) == 0
        assert merged_report.read_bytes() == full_report.read_bytes()
        out = capsys.readouterr().out
        assert "wrote" in out
        from repro.experiments import load_rows_csv

        merged_rows = load_rows_csv(tmp_path / "merged.csv")
        assert len(merged_rows) == 8

    def test_lambda_downtime_preset(self, capsys):
        assert main([
            "campaign", "--preset", "lambda-downtime",
            "--families", "montage", "--sizes", "15", "--seeds", "0",
            "--heuristics", "DF-CkptNvr", "--downtimes", "0,30",
        ]) == 0
        out = capsys.readouterr().out
        header = out.splitlines()[0].split()
        # The preset sweeps lambda at several downtimes: both are labelled.
        assert "lambda" in header and "D" in header

    def test_merge_options_work_before_the_subcommand(self, tmp_path, capsys):
        shards = []
        for designator in ("1/2", "2/2"):
            shard = tmp_path / f"shard{designator[0]}.csv"
            assert main(self.PLATFORM_GRID_ARGS + ["--shard", designator,
                                                   "--output", str(shard)]) == 0
            shards.append(str(shard))
        capsys.readouterr()
        out_csv = tmp_path / "merged.csv"
        # Parent-level -o before 'merge' must not be silently discarded.
        assert main(["campaign", "-o", str(out_csv), "merge", *shards]) == 0
        assert out_csv.exists()

    def test_merge_rejects_duplicate_shard(self, tmp_path, capsys):
        shard = tmp_path / "shard.csv"
        assert main(self.PLATFORM_GRID_ARGS + ["--shard", "1/2",
                                               "--output", str(shard)]) == 0
        capsys.readouterr()
        # The shard marker names the duplicated shard before any row-level
        # duplicate detection has to engage.
        assert main(["campaign", "merge", str(shard), str(shard)]) == 2
        assert "shard 1/2 appears twice" in capsys.readouterr().err

    def test_merge_rejects_duplicate_rows_in_unmarked_inputs(self, tmp_path, capsys):
        full = tmp_path / "full.csv"
        assert main(self.PLATFORM_GRID_ARGS + ["--output", str(full)]) == 0
        capsys.readouterr()
        # Unmarked (full-campaign) inputs skip the shard-set validation but
        # still trip the row-identity duplicate detector.
        assert main(["campaign", "merge", str(full), str(full)]) == 2
        assert "duplicate result row" in capsys.readouterr().err

    def test_merge_rejects_missing_shard_naming_the_gap(self, tmp_path, capsys):
        shard = tmp_path / "shard1.csv"
        assert main(self.PLATFORM_GRID_ARGS + ["--shard", "1/3",
                                               "--output", str(shard)]) == 0
        capsys.readouterr()
        assert main(["campaign", "merge", str(shard)]) == 2
        err = capsys.readouterr().err
        assert "missing shard(s) 2/3, 3/3" in err

    def test_merge_fails_fast_on_missing_output_dir(self, tmp_path, capsys):
        shard = tmp_path / "shard.csv"
        assert main(self.PLATFORM_GRID_ARGS + ["--shard", "1/2",
                                               "--output", str(shard)]) == 0
        capsys.readouterr()
        missing = tmp_path / "absent" / "out.csv"
        assert main(["campaign", "merge", str(shard), "--output", str(missing)]) == 2
        err = capsys.readouterr()
        assert "does not exist" in err.err
        # Nothing was printed or written before the rejection.
        assert err.out == ""
        assert not missing.exists()

    def test_merge_rejects_empty_and_foreign_csvs(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert main(["campaign", "merge", str(empty)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        foreign = tmp_path / "foreign.csv"
        foreign.write_text("a,b\n1,2\n")
        assert main(["campaign", "merge", str(foreign)]) == 2
        assert "unknown result-row column" in capsys.readouterr().err
        assert main(["campaign", "merge", str(tmp_path / "absent.csv")]) == 2

    def test_bad_shard_rejected_without_side_effects(self, tmp_path, capsys):
        cache_path = tmp_path / "cache.sqlite"
        assert main(self.CAMPAIGN_ARGS + ["--shard", "3/2",
                                          "--cache", str(cache_path)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not cache_path.exists()

    def test_campaign_with_jobs_and_cache(self, tmp_path, capsys):
        cache_path = tmp_path / "cache.sqlite"
        args = self.CAMPAIGN_ARGS + ["--jobs", "2", "--cache", str(cache_path)]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert "misses" in cold

        assert main(args) == 0
        warm = capsys.readouterr().out
        assert ", 0 misses" in warm
        # Aggregation tables of the cold and warm runs are identical.
        table = lambda text: [l for l in text.splitlines() if "montage" in l]
        assert table(warm) == table(cold)


class TestRobustnessCommand:
    ROBUSTNESS_ARGS = [
        "robustness",
        "--families", "montage",
        "--sizes", "20",
        "--laws", "exponential,weibull",
        "--shapes", "0.7",
        "--runs", "300",
        "--max-candidates", "5",
    ]

    def test_robustness_prints_table_and_writes_report(self, tmp_path, capsys):
        report_path = tmp_path / "robustness.json"
        code = main(self.ROBUSTNESS_ARGS + ["--output", str(report_path), "--check"])
        assert code == 0
        out = capsys.readouterr().out
        assert "exponential" in out and "weibull(k=0.7)" in out
        assert "PASS" in out
        payload = json.loads(report_path.read_text())
        assert payload["exponential_validated"] is True
        assert len(payload["rows"]) == 2

    def test_robustness_with_cache_is_warm_on_rerun(self, tmp_path, capsys):
        cache_path = tmp_path / "cache.sqlite"
        args = self.ROBUSTNESS_ARGS + ["--cache", str(cache_path)]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert "misses" in cold
        assert main(args) == 0
        warm = capsys.readouterr().out
        assert ", 0 misses" in warm

    def test_robustness_rejects_bad_law(self, capsys):
        assert main(["robustness", "--laws", "gamma", "--runs", "50"]) == 2
        assert "unknown failure law" in capsys.readouterr().err

    def test_robustness_check_requires_exponential(self, capsys):
        assert main(["robustness", "--laws", "weibull", "--check", "--runs", "50"]) == 2
        assert "must include 'exponential'" in capsys.readouterr().err

    def test_robustness_rejects_single_run(self, capsys):
        assert main(["robustness", "--runs", "1"]) == 2
        assert "at least 2" in capsys.readouterr().err


class TestCacheCommand:
    def test_stats_reports_entries(self, tmp_path, capsys):
        cache_path = tmp_path / "cache.sqlite"
        assert main([
            "campaign", "--families", "montage", "--sizes", "15",
            "--seeds", "0", "--heuristics", "DF-CkptNvr",
            "--cache", str(cache_path),
        ]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", str(cache_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"] == 1
        assert payload["puts"] == 1

    def test_stats_missing_file_fails(self, tmp_path, capsys):
        assert main(["cache", "stats", str(tmp_path / "absent.sqlite")]) == 1

    def test_stats_on_corrupt_file_reports_cleanly(self, tmp_path, capsys):
        path = tmp_path / "not-a-db.sqlite"
        path.write_text("this is not sqlite")
        assert main(["cache", "stats", str(path)]) == 2
        assert "error:" in capsys.readouterr().err


class TestErrorHandling:
    """Routine bad input exits with a one-line message, not a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["campaign", "--families", "bogus", "--sizes", "10", "--seeds", "0"],
            ["campaign", "--families", "montage", "--sizes", "10", "--seeds", ""],
            ["campaign", "--families", "", "--sizes", "10", "--seeds", "0"],
            ["campaign", "--families", "montage", "--sizes", "", "--seeds", "0"],
            ["campaign", "--families", "montage", "--sizes", "10", "--seeds", "0",
             "--heuristics", "DF-CkptWrong"],
            ["campaign", "--families", "montage", "--sizes", "10", "--seeds", "0",
             "--heuristics", "DF-CkptNvr", "--jobs", "-3"],
            ["campaign", "--families", "montage", "--sizes", "10", "--seeds", "0",
             "--heuristics", "DF-CkptW", "--search-mode", "geometric",
             "--max-candidates", "1"],
        ],
    )
    def test_bad_input_exits_2_with_message(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")

    def test_rejected_invocation_creates_no_cache_file(self, tmp_path, capsys, monkeypatch):
        cache_path = tmp_path / "new" / "cache.sqlite"
        assert main(["campaign", "--families", "montage", "--sizes", "10",
                     "--seeds", "", "--cache", str(cache_path)]) == 2
        assert not cache_path.exists()
        assert not cache_path.parent.exists()
        assert main(["campaign", "--families", "montage", "--sizes", "10",
                     "--seeds", "0", "--jobs", "-3",
                     "--cache", str(cache_path)]) == 2
        assert not cache_path.exists()
        assert main(["campaign", "--families", "montage", "--sizes", "10",
                     "--seeds", "0", "--heuristics", "DF-CkptWrong",
                     "--cache", str(cache_path)]) == 2
        assert not cache_path.exists()
        # Failure past the cheap checks (a unit cannot be planned, once the
        # cache is open) is also cleaned up, including the parent directory
        # the cache created.
        import repro.runtime.runner as runner

        def fail(unit):
            raise ValueError("unit cannot be planned")

        monkeypatch.setattr(runner, "plan_unit", fail)
        assert main(["campaign", "--families", "montage", "--sizes", "10",
                     "--seeds", "0", "--heuristics", "DF-CkptNvr",
                     "--cache", str(cache_path)]) == 2
        assert not cache_path.exists()
        assert not cache_path.parent.exists()

    def test_foreign_sqlite_file_refused_and_untouched(self, tmp_path, capsys):
        import sqlite3

        foreign = tmp_path / "someapp.db"
        conn = sqlite3.connect(foreign)
        conn.execute("CREATE TABLE app_data (id INTEGER PRIMARY KEY)")
        conn.commit()
        conn.close()
        before = foreign.read_bytes()
        assert main(["campaign", "--families", "montage", "--sizes", "15",
                     "--seeds", "0", "--heuristics", "DF-CkptNvr",
                     "--cache", str(foreign)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert foreign.read_bytes() == before

    def test_repro_debug_zero_means_off(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_DEBUG", "0")
        assert main(["campaign", "--families", "bogus", "--sizes", "10",
                     "--seeds", "0"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_repro_debug_one_reraises(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEBUG", "1")
        with pytest.raises(ValueError):
            main(["campaign", "--families", "bogus", "--sizes", "10",
                  "--seeds", "0"])

    def test_clear_empties_the_store(self, tmp_path, capsys):
        cache_path = tmp_path / "cache.sqlite"
        assert main([
            "campaign", "--families", "montage", "--sizes", "15",
            "--seeds", "0", "--heuristics", "DF-CkptNvr",
            "--cache", str(cache_path),
        ]) == 0
        capsys.readouterr()
        assert main(["cache", "clear", str(cache_path)]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert main(["cache", "stats", str(cache_path)]) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == 0


class TestVersionFlag:
    def test_version_prints_package_version(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out


class TestJsonErrorMode:
    """--json renders failures in the service daemon's error shape."""

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        missing = tmp_path / "absent.json"
        assert main(["--json", "evaluate", "--schedule", str(missing)]) == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"]["code"] == "io-error"
        assert "absent.json" in payload["error"]["message"]

    def test_bad_input_is_bad_request(self, capsys):
        assert main(["--json", "campaign", "--families", "bogus",
                     "--sizes", "10", "--seeds", "0"]) == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"]["code"] == "bad-request"

    def test_plain_mode_is_unchanged(self, tmp_path, capsys):
        missing = tmp_path / "absent.json"
        assert main(["evaluate", "--schedule", str(missing)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")


class TestServeParser:
    def test_serve_accepts_its_options(self):
        parser = build_parser()
        args = parser.parse_args([
            "serve", "--host", "0.0.0.0", "--port", "0", "--jobs", "2",
            "--workers", "4", "--cache", "/tmp/c.sqlite",
            "--batch-window", "0.05", "--queue-max", "64",
            "--backend", "python",
        ])
        assert args.command == "serve"
        assert args.port == 0
        assert args.cache_path == "/tmp/c.sqlite"
        assert args.batch_window == 0.05

    def test_serve_rejects_bad_jobs_before_binding(self, capsys):
        assert main(["serve", "--jobs", "-3", "--port", "0"]) == 2
        assert capsys.readouterr().err.startswith("error:")
