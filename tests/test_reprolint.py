"""reprolint: engine mechanics and one fixture suite per rule.

Each rule gets a true positive (synthetic violation is found), a true
negative (conforming code passes), and a pragma-suppression case.  The
capstone is the mutation test: re-introducing the PR-4 downtime-drop bug
on a *copy* of the real tree must trip RL001 — the linter analyses source
it never imports, so it can judge a mutated or historical snapshot.
"""

from __future__ import annotations

import json
import shutil
import textwrap
from pathlib import Path

import pytest

from repro.cli import main
from repro.devtools.reprolint import (
    RULES,
    LintError,
    load_baseline,
    render_json,
    render_text,
    run_lint,
    write_baseline,
    write_key_lock,
)
from repro.devtools.reprolint.rules.cache_keys import compute_lock_for_paths

REPO_ROOT = Path(__file__).resolve().parents[1]


def make_tree(tmp_path: Path, files: dict[str, str]) -> Path:
    """Materialise a synthetic source tree under ``tmp_path``."""
    root = tmp_path / "tree"
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text), encoding="utf-8")
    return root


def lint(root: Path, *rules: str, config: dict | None = None):
    return run_lint(
        [root], repo_root=root, only_rules=list(rules) or None, config=config
    )


def rule_ids(result) -> list[str]:
    return [f.rule_id for f in result.findings]


# ----------------------------------------------------------------------
# Engine mechanics
# ----------------------------------------------------------------------
def test_all_seven_rules_registered():
    assert sorted(RULES) == [
        "RL001", "RL002", "RL003", "RL004", "RL005", "RL006", "RL007",
    ]
    for rule in RULES.values():
        assert rule.invariant and rule.scope in ("file", "project")


def test_parse_error_reports_rl000(tmp_path):
    root = make_tree(tmp_path, {"broken.py": "def f(:\n"})
    result = lint(root)
    assert [f.rule_id for f in result.findings] == ["RL000"]
    assert "does not parse" in result.findings[0].message


def test_unknown_rule_id_is_a_lint_error(tmp_path):
    root = make_tree(tmp_path, {"ok.py": "x = 1\n"})
    with pytest.raises(LintError, match="unknown rule"):
        lint(root, "RL999")


def test_pragma_star_and_skip_file(tmp_path):
    root = make_tree(
        tmp_path,
        {
            "a.py": "import time\nt = sum({1.5, 2.5})  # reprolint: allow[*]\n",
            "b.py": "# reprolint: skip-file\nt = sum({1.5, 2.5})\n",
        },
    )
    result = lint(root, "RL004")
    assert result.findings == []
    # a.py's finding is pragma-suppressed; b.py is skipped before any rule
    # runs, so it contributes nothing at all
    assert len(result.suppressed) == 1
    assert result.suppressed[0].path.endswith("a.py")


def test_baseline_roundtrip_is_line_insensitive(tmp_path):
    root = make_tree(tmp_path, {"f.py": "t = sum({0.1, 0.2})\n"})
    result = lint(root, "RL004")
    assert rule_ids(result) == ["RL004"]
    baseline_path = tmp_path / "baseline.json"
    write_baseline(baseline_path, result)
    # shift the finding two lines down: the fingerprint must still match
    (root / "f.py").write_text("# one\n# two\nt = sum({0.1, 0.2})\n")
    again = run_lint(
        [root], repo_root=root, only_rules=["RL004"],
        baseline=load_baseline(baseline_path),
    )
    assert again.findings == [] and len(again.baselined) == 1


def test_reporters_render_findings(tmp_path):
    root = make_tree(tmp_path, {"f.py": "t = sum({0.1, 0.2})\n"})
    result = lint(root, "RL004")
    text = render_text(result)
    assert "f.py:1:" in text and "RL004" in text
    payload = json.loads(render_json(result))
    assert payload["clean"] is False and payload["version"] == 1
    assert payload["findings"][0]["rule"] == "RL004"
    assert payload["findings"][0]["fingerprint"].startswith("RL004::")


# ----------------------------------------------------------------------
# RL001 — cache-key completeness (synthetic package tree)
# ----------------------------------------------------------------------
_PKG_PLATFORM = """
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class Platform:
        processors: int
        failure_rate: float
        downtime: float

    @dataclass(frozen=True)
    class PlatformSpec:
        failure_rate: float
        downtime: float
        processors: int
"""

_PKG_KEYS_OK = """
    KEY_VERSION = 1
    ALGO_VERSION = 1

    def _platform_payload(platform):
        return {
            "kind": "platform",
            "v": KEY_VERSION,
            "processors": platform.processors,
            "failure_rate": platform.failure_rate,
            "downtime": platform.downtime,
        }

    def evaluation_key(schedule, platform):
        return {
            "kind": "evaluation",
            "v": KEY_VERSION,
            "schedule": schedule,
            "platform": _platform_payload(platform),
        }
"""


def test_rl001_platform_payload_missing_field(tmp_path):
    keys_missing = _PKG_KEYS_OK.replace(
        '            "downtime": platform.downtime,\n', ""
    )
    root = make_tree(
        tmp_path,
        {"pkg/core/platform.py": _PKG_PLATFORM, "pkg/runtime/keys.py": keys_missing},
    )
    result = lint(root, "RL001")
    assert any(
        "downtime" in f.message and "alias" in f.message
        for f in result.findings
    ), result.findings


def test_rl001_unused_key_builder_parameter(tmp_path):
    keys = textwrap.dedent(_PKG_KEYS_OK) + textwrap.dedent(
        """
        def scenario_unit_key(workflow, seed):
            return {"kind": "scenario", "v": KEY_VERSION, "workflow": workflow}
        """
    )
    root = make_tree(
        tmp_path,
        {"pkg/core/platform.py": _PKG_PLATFORM, "pkg/runtime/keys.py": keys},
    )
    result = lint(root, "RL001")
    assert any(
        "scenario_unit_key" in f.message and "'seed'" in f.message
        for f in result.findings
    ), result.findings


def test_rl001_spec_construction_drops_overlapping_field(tmp_path):
    root = make_tree(
        tmp_path,
        {
            "pkg/core/platform.py": _PKG_PLATFORM,
            "pkg/runtime/keys.py": _PKG_KEYS_OK,
            "pkg/scenarios.py": """
                from dataclasses import dataclass
                from .core.platform import PlatformSpec

                @dataclass(frozen=True)
                class Scenario:
                    failure_rate: float
                    downtime: float
                    processors: int

                    @property
                    def platform_spec(self):
                        return PlatformSpec(
                            failure_rate=self.failure_rate,
                            processors=self.processors,
                        )
            """,
        },
    )
    result = lint(root, "RL001")
    assert any(
        "'downtime'" in f.message and "PR-4" in f.message
        for f in result.findings
    ), result.findings


def test_rl001_failure_model_spec_omits_stored_attr(tmp_path):
    root = make_tree(
        tmp_path,
        {
            "pkg/core/platform.py": _PKG_PLATFORM,
            "pkg/runtime/keys.py": _PKG_KEYS_OK,
            "pkg/simulation/failures.py": """
                class ExponentialFailures:
                    def __init__(self, rate, jitter):
                        self.rate = rate
                        self.jitter = jitter
                        self._cursor = 0

                    def spec(self):
                        return {"law": "exponential", "rate": self.rate}
            """,
        },
    )
    result = lint(root, "RL001")
    assert any("'jitter'" in f.message for f in result.findings), result.findings
    assert not any("_cursor" in f.message for f in result.findings)


def test_rl001_clean_tree_passes(tmp_path):
    root = make_tree(
        tmp_path,
        {"pkg/core/platform.py": _PKG_PLATFORM, "pkg/runtime/keys.py": _PKG_KEYS_OK},
    )
    assert lint(root, "RL001").findings == []


# ----------------------------------------------------------------------
# RL001 — the capstone: re-introducing the PR-4 bug on a copy of the
# real tree must trip the linter (static analysis, no import involved)
# ----------------------------------------------------------------------
def _copy_real_tree(tmp_path: Path) -> Path:
    target = tmp_path / "repro"
    shutil.copytree(
        REPO_ROOT / "src" / "repro",
        target,
        ignore=shutil.ignore_patterns("__pycache__", "devtools"),
    )
    return target


def test_rl001_mutation_downtime_drop_is_caught(tmp_path):
    target = _copy_real_tree(tmp_path)
    clean = run_lint([target], repo_root=tmp_path, only_rules=["RL001"])
    assert clean.findings == [], "pristine copy must be RL001-clean"

    scenarios = target / "experiments" / "scenarios.py"
    text = scenarios.read_text(encoding="utf-8")
    assert "downtime=self.downtime,\n" in text
    scenarios.write_text(
        text.replace("downtime=self.downtime,\n", "", 1), encoding="utf-8"
    )

    mutated = run_lint([target], repo_root=tmp_path, only_rules=["RL001"])
    assert any(
        f.rule_id == "RL001"
        and "downtime" in f.message
        and f.path.endswith("scenarios.py")
        for f in mutated.findings
    ), f"the PR-4 downtime-drop mutation went undetected: {mutated.findings}"


# ----------------------------------------------------------------------
# RL002 — backend hygiene and the key-schema lock
# ----------------------------------------------------------------------
def test_rl002_backend_identifier_in_key_builder(tmp_path):
    keys = textwrap.dedent(_PKG_KEYS_OK) + textwrap.dedent(
        """
        def monte_carlo_key(seed, backend):
            return {"kind": "mc", "v": KEY_VERSION, "seed": seed, "backend": backend}
        """
    )
    root = make_tree(tmp_path, {"pkg/runtime/keys.py": keys})
    lock = tmp_path / "lock.json"
    _write_lock(root, lock)
    result = lint(root, "RL002", config={"key_lock_path": str(lock)})
    messages = " | ".join(f.message for f in result.findings)
    assert "backend" in messages and "backend-agnostic" in messages


def _write_lock(root: Path, lock: Path) -> None:
    ctx, schema = compute_lock_for_paths([root], root)
    assert schema is not None
    write_key_lock(ctx, lock)


def test_rl002_key_lock_lifecycle(tmp_path):
    root = make_tree(tmp_path, {"pkg/runtime/keys.py": _PKG_KEYS_OK})
    lock = tmp_path / "lock.json"
    config = {"key_lock_path": str(lock)}

    # 1. no lock yet: the rule demands one
    result = lint(root, "RL002", config=config)
    assert any("no key-schema lock" in f.message for f in result.findings)

    # 2. locked: clean
    _write_lock(root, lock)
    assert lint(root, "RL002", config=config).findings == []

    # 3. payload shape changes without a KEY_VERSION bump: violation
    keys_path = root / "pkg/runtime/keys.py"
    grown = keys_path.read_text().replace(
        '"schedule": schedule,', '"schedule": schedule,\n        "tag": 1,'
    )
    keys_path.write_text(grown)
    result = lint(root, "RL002", config=config)
    assert any("KEY_VERSION bump" in f.message for f in result.findings)

    # 4. bumping KEY_VERSION turns it into a stale-lock reminder...
    keys_path.write_text(grown.replace("KEY_VERSION = 1", "KEY_VERSION = 2"))
    result = lint(root, "RL002", config=config)
    assert any("stale" in f.message for f in result.findings)

    # 5. ...and refreshing the lock closes the loop
    _write_lock(root, lock)
    assert lint(root, "RL002", config=config).findings == []


# ----------------------------------------------------------------------
# RL003 — ambient entropy
# ----------------------------------------------------------------------
def test_rl003_flags_global_rng_and_wall_clock(tmp_path):
    root = make_tree(
        tmp_path,
        {
            "sim.py": """
                import random, time
                import numpy as np

                def sample():
                    a = random.random()
                    b = np.random.rand(3)
                    c = time.time()
                    return a, b, c
            """,
        },
    )
    result = lint(root, "RL003")
    messages = " | ".join(f.message for f in result.findings)
    assert "random.random()" in messages
    assert "np.random.rand()" in messages
    assert "time.time()" in messages
    assert len(result.findings) == 3


def test_rl003_seeded_generators_pass(tmp_path):
    root = make_tree(
        tmp_path,
        {
            "sim.py": """
                import random
                import numpy as np

                def sample(seed, rng):
                    local = random.Random(seed)
                    gen = np.random.default_rng(seed)
                    return local.random(), gen.random(), rng.normal()
            """,
        },
    )
    assert lint(root, "RL003").findings == []


def test_rl003_pragma_suppression(tmp_path):
    root = make_tree(
        tmp_path,
        {"sim.py": "import time\nt = time.time()  # reprolint: allow[RL003]\n"},
    )
    result = lint(root, "RL003")
    assert result.findings == [] and len(result.suppressed) == 1


# ----------------------------------------------------------------------
# RL004 — set iteration order
# ----------------------------------------------------------------------
def test_rl004_flags_ordered_consumption(tmp_path):
    root = make_tree(
        tmp_path,
        {
            "agg.py": """
                def f(costs):
                    chosen = {1, 5, 3}
                    total = sum(costs[i] for i in chosen)
                    listed = list(chosen)
                    for i in chosen:
                        total += costs[i]
                    return total, listed
            """,
        },
    )
    result = lint(root, "RL004")
    assert rule_ids(result) == ["RL004"] * 3


def test_rl004_sorted_and_order_free_uses_pass(tmp_path):
    root = make_tree(
        tmp_path,
        {
            "agg.py": """
                def f(costs, query):
                    chosen = {1, 5, 3}
                    total = sum(costs[i] for i in sorted(chosen))
                    hits = query in chosen
                    bound = max(chosen)
                    widened = chosen | {9}
                    return total, hits, bound, len(widened)
            """,
        },
    )
    assert lint(root, "RL004").findings == []


def test_rl004_known_set_attribute(tmp_path):
    root = make_tree(
        tmp_path,
        {
            "sched.py": """
                def cost(self, workflow):
                    return sum(
                        workflow.task(i).checkpoint_cost
                        for i in self.checkpointed
                    )
            """,
        },
    )
    assert rule_ids(lint(root, "RL004")) == ["RL004"]


# ----------------------------------------------------------------------
# RL005 — fsync discipline
# ----------------------------------------------------------------------
def test_rl005_write_without_fsync(tmp_path):
    root = make_tree(
        tmp_path,
        {
            "journal.py": """
                class Journal:
                    def append(self, record):
                        self._fh.write(record)
                        self._fh.flush()
            """,
        },
    )
    result = lint(root, "RL005")
    assert rule_ids(result) == ["RL005"]
    assert "os.fsync()" in result.findings[0].message


def test_rl005_flush_and_fsync_pass(tmp_path):
    root = make_tree(
        tmp_path,
        {
            "journal.py": """
                import os

                class Journal:
                    def append(self, record):
                        self._fh.write(record)
                        self._fh.flush()
                        os.fsync(self._fh.fileno())
            """,
        },
    )
    assert lint(root, "RL005").findings == []


def test_rl005_only_journal_scoped_files(tmp_path):
    root = make_tree(
        tmp_path,
        {"report.py": "def dump(fh, text):\n    fh.write(text)\n"},
    )
    assert lint(root, "RL005").findings == []


# ----------------------------------------------------------------------
# RL006 — fault-site registry (package-anchored fixture)
# ----------------------------------------------------------------------
_PKG_FAULTS = """
    KNOWN_FAULT_SITES = frozenset({"worker_crash", "cache_read"})

    def fault_point(site, default=None, **context):
        pass
"""


def _faults_tree(tmp_path, runner_body: str, faults: str = _PKG_FAULTS):
    return make_tree(
        tmp_path,
        {
            "pkg/runtime/keys.py": _PKG_KEYS_OK,
            "pkg/runtime/faults.py": faults,
            "pkg/runtime/runner.py": runner_body,
        },
    )


def test_rl006_unregistered_site_and_non_literal(tmp_path):
    # The pragma below silences the *repo-wide* scan (this very file is
    # under tests/); it is stripped before the fixture is written so the
    # fixture's own finding still fires.
    body = """
        from .faults import fault_point

        def run(site, unit):
            fault_point("worker_crsh", default="exit=137", unit=unit)  # reprolint: allow[RL006]
            fault_point(site, default="exit=1")
        """
    root = _faults_tree(tmp_path, body.replace("  # reprolint: allow[RL006]", ""))
    result = lint(root, "RL006")
    messages = " | ".join(f.message for f in result.findings)
    assert "'worker_crsh'" in messages
    assert "string literal" in messages


def test_rl006_registered_but_dead_site(tmp_path):
    root = _faults_tree(
        tmp_path,
        """
        from .faults import fault_point

        def run(unit):
            fault_point("worker_crash", default="exit=137", unit=unit)
        """,
    )
    result = lint(root, "RL006")
    assert any(
        "'cache_read'" in f.message and "no fault_point() call" in f.message
        for f in result.findings
    ), result.findings


def test_rl006_typo_in_test_spec_text(tmp_path):
    root = _faults_tree(
        tmp_path,
        """
        from .faults import fault_point

        def run(unit):
            fault_point("worker_crash", default="exit=137", unit=unit)
            fault_point("cache_read", default="raise=OSError")
        """,
    )
    tests_dir = root / "tests"
    tests_dir.mkdir()
    (tests_dir / "test_chaos.py").write_text(
        'monkeypatch.setenv("REPRO_FAULTS", "worker_crsh:unit=2")\n'  # reprolint: allow[RL006]
    )
    result = lint(root, "RL006")
    assert any(
        "'worker_crsh'" in f.message and "silently" in f.message
        for f in result.findings
    ), result.findings


def test_rl006_missing_registry(tmp_path):
    root = _faults_tree(
        tmp_path,
        "def run():\n    pass\n",
        faults="def fault_point(site, default=None, **context):\n    pass\n",
    )
    result = lint(root, "RL006")
    assert any("KNOWN_FAULT_SITES" in f.message for f in result.findings)


def test_rl006_real_tree_registry_matches():
    """The shipped registry, call sites, tests and CI specs all agree."""
    result = run_lint(
        [REPO_ROOT / "src" / "repro"], repo_root=REPO_ROOT,
        only_rules=["RL006"],
    )
    assert result.findings == [], result.findings


# ----------------------------------------------------------------------
# RL007 — backend kwargs coherence
# ----------------------------------------------------------------------
def test_rl007_dropped_backend_and_ad_hoc_combination(tmp_path):
    root = make_tree(
        tmp_path,
        {
            "api.py": """
                def solve(workflow, backend="auto"):
                    return workflow

                def search(workflow, order, backend=None, sweep=None):
                    if sweep is None:
                        sweep = SweepState(workflow, order, backend=backend)
                    return sweep.evaluate(frozenset())
            """,
        },
    )
    result = lint(root, "RL007")
    messages = " | ".join(f.message for f in result.findings)
    assert "solve() accepts 'backend' but never uses it" in messages
    assert "search() takes 'backend' and 'sweep' without calling instance_sweep" in messages
    assert len(result.findings) == 2


def test_rl007_instance_sweep_and_passthrough_pass(tmp_path):
    root = make_tree(
        tmp_path,
        {
            # The resolver itself combines the pair, and is exempt.
            "search.py": """
                def instance_sweep(workflow, order, backend=None, sweep=None):
                    if sweep is None:
                        return SweepState(workflow, order, backend=backend)
                    return sweep
            """,
            "api.py": """
                from . import search

                def solve(workflow, order, backend=None, sweep=None):
                    sweep = search.instance_sweep(
                        workflow, order, backend=backend, sweep=sweep
                    )
                    return sweep.evaluate(frozenset())

                def wrapper(workflow, order, backend=None, sweep=None):
                    return solve(workflow, order, backend=backend, sweep=sweep)
            """,
        },
    )
    assert lint(root, "RL007").findings == []


# ----------------------------------------------------------------------
# CLI surface: exit codes, JSON artifact, key-lock and baseline flows
# ----------------------------------------------------------------------
def test_cli_exit_codes_and_json(tmp_path, capsys):
    root = make_tree(tmp_path, {"f.py": "t = sum({0.1, 0.2})\n"})
    assert main(["lint", str(root), "--repo-root", str(root)]) == 1
    capsys.readouterr()

    report = tmp_path / "report.json"
    code = main(
        ["lint", str(root), "--repo-root", str(root), "--format", "json",
         "--output", str(report)]
    )
    assert code == 1
    payload = json.loads(report.read_text())
    assert payload["findings"][0]["rule"] == "RL004"

    (root / "f.py").write_text("t = sum(sorted({0.1, 0.2}))\n")
    assert main(["lint", str(root), "--repo-root", str(root)]) == 0
    capsys.readouterr()


def test_cli_usage_errors_exit_2(tmp_path, capsys):
    root = make_tree(tmp_path, {"f.py": "x = 1\n"})
    assert main(["lint", str(root), "--repo-root", str(root),
                 "--rules", "RL999"]) == 2
    assert main(["lint", str(tmp_path / "missing"), "--repo-root",
                 str(root)]) == 2
    assert main(["lint", str(root), "--repo-root", str(root),
                 "--write-baseline"]) == 2
    err = capsys.readouterr().err
    assert "repro lint: error:" in err


def test_cli_baseline_flow(tmp_path, capsys):
    root = make_tree(tmp_path, {"f.py": "t = sum({0.1, 0.2})\n"})
    baseline = tmp_path / "baseline.json"
    assert main(["lint", str(root), "--repo-root", str(root),
                 "--baseline", str(baseline), "--write-baseline"]) == 0
    assert main(["lint", str(root), "--repo-root", str(root),
                 "--baseline", str(baseline)]) == 0
    capsys.readouterr()


def test_cli_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in RULES:
        assert rule_id in out


def test_cli_write_key_lock_roundtrip(tmp_path, capsys):
    root = make_tree(tmp_path, {"pkg/runtime/keys.py": _PKG_KEYS_OK})
    lock = tmp_path / "lock.json"
    assert main(["lint", str(root), "--repo-root", str(root),
                 "--key-lock", str(lock), "--write-key-lock"]) == 0
    payload = json.loads(lock.read_text())
    assert payload["key_version"] == 1
    assert "evaluation_key" in payload["payloads"]
    assert main(["lint", str(root), "--repo-root", str(root),
                 "--key-lock", str(lock)]) == 0
    capsys.readouterr()


# ----------------------------------------------------------------------
# The repo itself must be clean (the CI gate in ci.yml pins the same)
# ----------------------------------------------------------------------
def test_shipped_tree_is_lint_clean():
    result = run_lint([REPO_ROOT / "src" / "repro"], repo_root=REPO_ROOT)
    assert result.findings == [], render_text(result)
