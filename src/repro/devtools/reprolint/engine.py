"""reprolint engine: file loading, pragmas, baselines and the lint driver.

reprolint is a project-specific static-analysis pass: where generic linters
check style, these rules check the *invariants this reproduction's
guarantees rest on* — cache-key completeness, backend-agnostic keys,
determinism of everything that feeds a cached or journaled result, fsync
discipline on durability paths, the fault-site registry, and the
``backend=`` / ``sweep=`` convention that ``instance_sweep`` enforces.
Each rule is the machine-checked form of a contract some PR established;
see the rule modules under :mod:`repro.devtools.reprolint.rules` and the
invariant catalog in ``EXPERIMENTS.md``.

Suppression
-----------
A finding on a line carrying the pragma ``# reprolint: allow[RLxxx]``
(several ids comma-separated, or ``allow[*]``) is *suppressed* — the
sanctioned way to mark a deliberate exception, reviewed where it lives.
``# reprolint: skip-file`` anywhere in a file exempts the whole file.

Baseline
--------
A baseline file (JSON list of finding fingerprints) grandfathers known
findings so the gate can be enabled before the backlog is empty; findings
whose fingerprint is listed are reported as ``baselined`` and do not fail
the run.  Fingerprints deliberately exclude line numbers, so unrelated
edits above a grandfathered finding do not resurrect it.

Exit codes (the CLI contract): 0 — clean, 1 — findings, 2 — usage or
internal error.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

__all__ = [
    "Finding",
    "LintContext",
    "LintError",
    "LintResult",
    "SourceFile",
    "run_lint",
]

#: Pragma grammar: ``# reprolint: allow[RL001]`` / ``allow[RL001,RL004]`` /
#: ``allow[*]`` / ``# reprolint: skip-file``.
_PRAGMA_RE = re.compile(r"#\s*reprolint:\s*allow\[([A-Za-z0-9*,\s]+)\]")
_SKIP_FILE_RE = re.compile(r"#\s*reprolint:\s*skip-file\b")


class LintError(RuntimeError):
    """A usage or internal error (maps to exit code 2 in the CLI)."""


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule_id: str
    path: str  # repo-root-relative, POSIX separators
    line: int
    col: int
    message: str

    @property
    def fingerprint(self) -> str:
        """Line-insensitive identity used by baseline files."""
        return f"{self.rule_id}::{self.path}::{self.message}"

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule_id, self.message)


class SourceFile:
    """One parsed python source file plus its suppression pragmas."""

    def __init__(self, path: Path, rel: str, text: str) -> None:
        self.path = path
        self.rel = rel
        self.text = text
        self.lines = text.splitlines()
        self.tree: ast.Module | None = None
        self.parse_error: SyntaxError | None = None
        try:
            self.tree = ast.parse(text, filename=rel)
        except SyntaxError as exc:
            self.parse_error = exc
        self.skip_file = bool(_SKIP_FILE_RE.search(text))
        self.allowed: dict[int, set[str]] = {}
        for number, line in enumerate(self.lines, start=1):
            match = _PRAGMA_RE.search(line)
            if match:
                ids = {part.strip() for part in match.group(1).split(",")}
                self.allowed[number] = {i for i in ids if i}

    def is_allowed(self, line: int, rule_id: str) -> bool:
        ids = self.allowed.get(line)
        if not ids:
            return False
        return rule_id in ids or "*" in ids


@dataclass
class LintResult:
    """Outcome of one lint run (what the reporters render)."""

    findings: list[Finding]
    suppressed: list[Finding]
    baselined: list[Finding]
    files_scanned: int
    rules_run: tuple[str, ...]

    @property
    def clean(self) -> bool:
        return not self.findings


class LintContext:
    """Everything a rule may look at: parsed files plus project lookups.

    ``package_root`` is the directory of the ``repro`` package being linted
    (detected as the directory containing ``runtime/keys.py``); project
    rules that cross-reference specific modules resolve them against it and
    skip quietly when linting a tree that does not carry them (fixture
    suites).  ``repo_root`` is where repo-level artifacts (``tests/``,
    ``.github/workflows``) are looked up for cross-file registries.
    """

    def __init__(
        self,
        files: list[SourceFile],
        *,
        package_root: Path | None,
        repo_root: Path,
    ) -> None:
        self.files = files
        self.package_root = package_root
        self.repo_root = repo_root
        self._by_rel: dict[str, SourceFile] = {f.rel: f for f in files}
        self.config: dict[str, object] = {}

    def package_file(self, rel_to_package: str) -> SourceFile | None:
        """The parsed file at ``<package_root>/<rel_to_package>``, if linted."""
        if self.package_root is None:
            return None
        target = (self.package_root / rel_to_package).resolve()
        for src in self.files:
            if src.path == target:
                return src
        return None

    def package_rel(self, src: SourceFile) -> str | None:
        """``src``'s path relative to the package root (POSIX), or ``None``."""
        if self.package_root is None:
            return None
        try:
            return src.path.relative_to(self.package_root).as_posix()
        except ValueError:
            return None


def _iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    seen: set[Path] = set()
    for path in paths:
        if path.is_file():
            candidates = [path] if path.suffix == ".py" else []
        elif path.is_dir():
            candidates = sorted(
                p
                for p in path.rglob("*.py")
                if "__pycache__" not in p.parts
            )
        else:
            raise LintError(f"no such file or directory: {path}")
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield resolved


def _detect_package_root(files: list[SourceFile]) -> Path | None:
    """The ``repro`` package dir: the one holding ``runtime/keys.py``."""
    for src in files:
        parts = src.path.parts
        if parts[-2:] == ("runtime", "keys.py"):
            return src.path.parents[1]
    return None


def load_files(paths: Iterable[Path], repo_root: Path) -> list[SourceFile]:
    files = []
    for path in _iter_python_files(paths):
        try:
            rel = path.relative_to(repo_root.resolve()).as_posix()
        except ValueError:
            rel = path.as_posix()
        files.append(SourceFile(path, rel, path.read_text(encoding="utf-8")))
    return files


def load_baseline(path: Path) -> set[str]:
    """Fingerprints grandfathered by a baseline file."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise LintError(f"baseline {path} is not valid JSON: {exc}") from exc
    entries = payload.get("findings") if isinstance(payload, dict) else payload
    if not isinstance(entries, list) or not all(
        isinstance(e, str) for e in entries
    ):
        raise LintError(
            f"baseline {path} must be a JSON list of fingerprints "
            '(or {"findings": [...]})'
        )
    return set(entries)


def write_baseline(path: Path, result: LintResult) -> None:
    """Grandfather every active finding of ``result`` into ``path``."""
    fingerprints = sorted({f.fingerprint for f in result.findings})
    path.write_text(
        json.dumps({"findings": fingerprints}, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def run_lint(
    paths: Iterable[Path | str],
    *,
    repo_root: Path | str | None = None,
    baseline: set[str] | None = None,
    only_rules: Iterable[str] | None = None,
    config: dict[str, object] | None = None,
) -> LintResult:
    """Lint ``paths`` and return the classified findings.

    ``only_rules`` restricts the run to a subset of rule ids (unknown ids
    raise :class:`LintError`).  ``config`` entries are made available to
    rules through ``ctx.config`` (the key-lock path travels this way).
    """
    from .registry import RULES

    path_objs = [Path(p) for p in paths]
    root = Path(repo_root).resolve() if repo_root is not None else Path.cwd().resolve()
    files = load_files(path_objs, root)
    ctx = LintContext(
        files,
        package_root=_detect_package_root(files),
        repo_root=root,
    )
    if config:
        ctx.config.update(config)

    if only_rules is not None:
        wanted = list(only_rules)
        unknown = [r for r in wanted if r not in RULES]
        if unknown:
            raise LintError(
                f"unknown rule id(s): {', '.join(unknown)}; "
                f"known: {', '.join(sorted(RULES))}"
            )
        active = {r: RULES[r] for r in wanted}
    else:
        active = dict(RULES)

    raw: list[Finding] = []
    for src in files:
        if src.parse_error is not None:
            raw.append(
                Finding(
                    rule_id="RL000",
                    path=src.rel,
                    line=src.parse_error.lineno or 1,
                    col=(src.parse_error.offset or 1) - 1,
                    message=f"file does not parse: {src.parse_error.msg}",
                )
            )
    for rule in active.values():
        if rule.scope == "file":
            for src in files:
                if src.tree is None or src.skip_file:
                    continue
                raw.extend(rule.check(ctx, src))
        else:
            raw.extend(rule.check(ctx))

    findings: list[Finding] = []
    suppressed: list[Finding] = []
    baselined: list[Finding] = []
    grandfathered = baseline or set()
    for finding in sorted(raw, key=Finding.sort_key):
        src = ctx._by_rel.get(finding.path)
        if src is not None and (
            src.skip_file or src.is_allowed(finding.line, finding.rule_id)
        ):
            suppressed.append(finding)
        elif finding.fingerprint in grandfathered:
            baselined.append(finding)
        else:
            findings.append(finding)
    return LintResult(
        findings=findings,
        suppressed=suppressed,
        baselined=baselined,
        files_scanned=len(files),
        rules_run=tuple(sorted(active)),
    )
