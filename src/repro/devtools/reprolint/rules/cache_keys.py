"""RL001 / RL002 — cache-key completeness and backend hygiene.

The result cache and the campaign journal are only trustworthy if two
things hold at all times:

* **completeness** — every quantity that affects an evaluation enters the
  key payload.  PR 4's downtime bug was exactly a violation: a
  ``PlatformSpec`` field (``downtime``) silently missing from the scenario
  path meant every cached row had been computed at ``D = 0`` while its key
  claimed otherwise.  RL001 is the machine-checked form of that contract,
  at three places where a field can fall out of the flow:

  1. the canonical platform payload in ``runtime/keys.py`` must read every
     field of ``core.platform.Platform``;
  2. every parameter of a ``*_key`` / ``*_fingerprint`` builder must be
     used by its body (an ignored parameter is a key that lies);
  3. any direct construction of a spec class (``Platform`` /
     ``PlatformSpec``) inside a class that itself carries fields of the
     same names must forward *all* of them — relying on a default is how
     the scenario layer silently dropped the downtime;
  4. every public attribute a ``FailureModel`` subclass stores must appear
     in its ``spec()`` payload (specs are the content that enters
     Monte-Carlo keys).

* **hygiene** — keys are backend-agnostic by design: the python, numpy
  and native backends agree within 1e-9 relative (not bit for bit; on each
  backend a sweep equals a one-shot bit for bit), and a cache warmed by
  one backend serves the others with the warming backend's values.  So no
  backend or evaluator identifier may ever reach a key payload (RL002),
  and any change to a payload's shape must come with a ``KEY_VERSION``
  bump, enforced through the committed key-schema lock file
  (``.reprolint-keys.json``; refresh with ``repro lint --write-key-lock``).
"""

from __future__ import annotations

import ast
import json
import re
from pathlib import Path
from typing import Iterator

from ..engine import Finding, LintContext, LintError, SourceFile, load_files
from ..projectmodel import (
    call_name,
    dataclass_fields,
    find_class,
    init_assigned_attrs,
    iter_functions,
    string_keys,
)
from ..registry import rule

__all__ = ["compute_key_schema", "key_lock_path", "load_key_lock", "write_key_lock"]

#: Spec classes whose construction must forward every same-named field of
#: the enclosing class (RL001 check 3).  Both live in ``core/platform.py``.
SPEC_CLASSES = ("Platform", "PlatformSpec")

_KEYS_REL = "runtime/keys.py"
_PLATFORM_REL = "core/platform.py"
_FAILURES_REL = "simulation/failures.py"

#: Identifier fragments that mark a backend/evaluator leak (RL002).
_BACKEND_RE = re.compile(r"backend|evaluator", re.IGNORECASE)

#: Default location of the key-schema lock, relative to the repo root.
KEY_LOCK_NAME = ".reprolint-keys.json"


# ----------------------------------------------------------------------
# Shared extraction helpers
# ----------------------------------------------------------------------
def _payload_dicts(func: ast.FunctionDef | ast.AsyncFunctionDef) -> list[ast.Dict]:
    """Key payload dict literals in ``func``: dicts with a ``"kind"`` key."""
    return [
        node
        for node in ast.walk(func)
        if isinstance(node, ast.Dict) and "kind" in string_keys(node)
    ]


def _is_key_builder(name: str) -> bool:
    return name.endswith("_key") or name.endswith("_fingerprint") or (
        name.endswith("_payload")
    )


def compute_key_schema(ctx: LintContext) -> dict | None:
    """The key-schema summary of the linted tree's ``runtime/keys.py``.

    ``{"key_version": int, "algo_version": int, "payloads": {function:
    sorted payload keys}}`` — the content the lock file pins.  ``None``
    when the linted tree carries no ``runtime/keys.py`` (fixture suites).
    """
    src = ctx.package_file(_KEYS_REL)
    if src is None or src.tree is None:
        return None
    versions: dict[str, int] = {}
    for node in src.tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if (
                isinstance(target, ast.Name)
                and target.id in ("KEY_VERSION", "ALGO_VERSION")
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, int)
            ):
                versions[target.id] = node.value.value
    payloads: dict[str, list[str]] = {}
    for func in iter_functions(src.tree):
        dicts = _payload_dicts(func)
        if dicts:
            keys: set[str] = set()
            for node in dicts:
                keys.update(string_keys(node))
            payloads[func.name] = sorted(keys)
    return {
        "key_version": versions.get("KEY_VERSION"),
        "algo_version": versions.get("ALGO_VERSION"),
        "payloads": payloads,
    }


def key_lock_path(ctx: LintContext) -> Path:
    configured = ctx.config.get("key_lock_path")
    if configured:
        return Path(str(configured))
    return ctx.repo_root / KEY_LOCK_NAME


def load_key_lock(path: Path) -> dict | None:
    if not path.is_file():
        return None
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise LintError(f"key lock {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or "payloads" not in payload:
        raise LintError(f"key lock {path} has an unexpected shape")
    return payload


def write_key_lock(ctx: LintContext, path: Path | None = None) -> Path:
    """Record the current key schema as the accepted one."""
    schema = compute_key_schema(ctx)
    if schema is None:
        raise LintError(
            "cannot write a key lock: the linted tree has no runtime/keys.py"
        )
    target = path or key_lock_path(ctx)
    target.write_text(
        json.dumps(schema, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return target


# ----------------------------------------------------------------------
# RL001 — cache-key completeness
# ----------------------------------------------------------------------
def _spec_class_fields(ctx: LintContext) -> dict[str, list[str]]:
    """Fields of every spec class found anywhere in the linted tree."""
    table: dict[str, list[str]] = {}
    for src in ctx.files:
        if src.tree is None:
            continue
        for name in SPEC_CLASSES:
            node = find_class(src, name)
            if node is not None and name not in table:
                fields = dataclass_fields(node)
                if fields:
                    table[name] = fields
    return table


def _check_platform_payload(
    ctx: LintContext, spec_fields: dict[str, list[str]]
) -> Iterator[Finding]:
    keys_src = ctx.package_file(_KEYS_REL)
    platform_fields = spec_fields.get("Platform")
    if keys_src is None or keys_src.tree is None or not platform_fields:
        return
    for func in iter_functions(keys_src.tree):
        if func.name != "_platform_payload":
            continue
        params = [a.arg for a in func.args.args + func.args.kwonlyargs]
        if not params:
            continue
        platform_param = params[0]
        read = {
            node.attr
            for node in ast.walk(func)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == platform_param
        }
        for field_name in platform_fields:
            if field_name not in read:
                yield Finding(
                    rule_id="RL001",
                    path=keys_src.rel,
                    line=func.lineno,
                    col=func.col_offset,
                    message=(
                        f"platform key payload never reads "
                        f"Platform.{field_name}: a platform differing only "
                        f"in {field_name!r} would alias a cached result"
                    ),
                )


def _check_builder_params(ctx: LintContext) -> Iterator[Finding]:
    keys_src = ctx.package_file(_KEYS_REL)
    if keys_src is None or keys_src.tree is None:
        return
    for func in iter_functions(keys_src.tree):
        if not _is_key_builder(func.name):
            continue
        params = [
            a.arg
            for a in func.args.args + func.args.kwonlyargs + func.args.posonlyargs
            if a.arg not in ("self", "cls")
        ]
        used = {
            node.id for node in ast.walk(func) if isinstance(node, ast.Name)
        }
        for param in params:
            if param not in used:
                yield Finding(
                    rule_id="RL001",
                    path=keys_src.rel,
                    line=func.lineno,
                    col=func.col_offset,
                    message=(
                        f"key builder {func.name}() accepts {param!r} but "
                        f"never uses it: the parameter does not reach the "
                        f"key payload"
                    ),
                )


def _enclosing_classes(tree: ast.Module) -> Iterator[tuple[ast.ClassDef, ast.Call]]:
    """(class, spec-construction call) pairs, innermost class wins."""

    class Visitor(ast.NodeVisitor):
        def __init__(self) -> None:
            self.stack: list[ast.ClassDef] = []
            self.hits: list[tuple[ast.ClassDef, ast.Call]] = []

        def visit_ClassDef(self, node: ast.ClassDef) -> None:
            self.stack.append(node)
            self.generic_visit(node)
            self.stack.pop()

        def visit_Call(self, node: ast.Call) -> None:
            if self.stack and call_name(node) in SPEC_CLASSES:
                self.hits.append((self.stack[-1], node))
            self.generic_visit(node)

    visitor = Visitor()
    visitor.visit(tree)
    yield from visitor.hits


def _check_spec_constructions(
    ctx: LintContext, spec_fields: dict[str, list[str]]
) -> Iterator[Finding]:
    for src in ctx.files:
        if src.tree is None:
            continue
        for cls, call in _enclosing_classes(src.tree):
            constructed = call_name(call)
            target_fields = spec_fields.get(constructed or "")
            if not target_fields:
                continue
            own_fields = set(dataclass_fields(cls))
            overlap = [f for f in target_fields if f in own_fields]
            if not overlap:
                continue
            passed = {kw.arg for kw in call.keywords if kw.arg is not None}
            passed.update(target_fields[: len(call.args)])  # positional args
            if any(kw.arg is None for kw in call.keywords):
                continue  # **kwargs forwarding: assume complete
            for field_name in overlap:
                if field_name not in passed:
                    yield Finding(
                        rule_id="RL001",
                        path=src.rel,
                        line=call.lineno,
                        col=call.col_offset,
                        message=(
                            f"{cls.name} constructs {constructed} without "
                            f"forwarding its own {field_name!r} field — the "
                            f"default silently replaces the carried value "
                            f"(the PR-4 downtime-drop bug class)"
                        ),
                    )


def _check_failure_specs(ctx: LintContext) -> Iterator[Finding]:
    src = ctx.package_file(_FAILURES_REL)
    if src is None or src.tree is None:
        return
    for node in src.tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        spec_method = next(
            (
                item
                for item in node.body
                if isinstance(item, ast.FunctionDef) and item.name == "spec"
            ),
            None,
        )
        if spec_method is None:
            continue
        returned_keys: set[str] = set()
        has_dict_return = False
        for stmt in ast.walk(spec_method):
            if isinstance(stmt, ast.Return) and isinstance(stmt.value, ast.Dict):
                has_dict_return = True
                returned_keys.update(string_keys(stmt.value))
        if not has_dict_return:
            continue  # abstract declaration or computed payload: not checkable
        if "law" not in returned_keys:
            yield Finding(
                rule_id="RL001",
                path=src.rel,
                line=spec_method.lineno,
                col=spec_method.col_offset,
                message=(
                    f"{node.name}.spec() payload has no 'law' entry; "
                    f"failure_model_from_spec and the Monte-Carlo keys "
                    f"require one"
                ),
            )
        stored = set(init_assigned_attrs(node)) | set(dataclass_fields(node))
        for attr in sorted(stored):
            if attr not in returned_keys:
                yield Finding(
                    rule_id="RL001",
                    path=src.rel,
                    line=spec_method.lineno,
                    col=spec_method.col_offset,
                    message=(
                        f"{node.name}.spec() omits stored parameter "
                        f"{attr!r}: two models differing only in {attr!r} "
                        f"would share a Monte-Carlo cache key"
                    ),
                )


@rule(
    "RL001",
    "cache-key-completeness",
    "every Scenario/PlatformSpec/FailureModel field flows into its key payload",
    scope="project",
)
def check_cache_key_completeness(ctx: LintContext) -> Iterator[Finding]:
    spec_fields = _spec_class_fields(ctx)
    yield from _check_platform_payload(ctx, spec_fields)
    yield from _check_builder_params(ctx)
    yield from _check_spec_constructions(ctx, spec_fields)
    yield from _check_failure_specs(ctx)


# ----------------------------------------------------------------------
# RL002 — backend hygiene + KEY_VERSION lock
# ----------------------------------------------------------------------
def _identifiers(node: ast.AST) -> Iterator[tuple[str, ast.AST]]:
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id, child
        elif isinstance(child, ast.Attribute):
            yield child.attr, child
        elif isinstance(child, ast.arg):
            yield child.arg, child


@rule(
    "RL002",
    "backend-hygiene",
    "no backend identifier reaches a key payload; shape changes bump KEY_VERSION",
    scope="project",
)
def check_backend_hygiene(ctx: LintContext) -> Iterator[Finding]:
    keys_src = ctx.package_file(_KEYS_REL)
    if keys_src is None or keys_src.tree is None:
        return

    # 1. No backend/evaluator identifier anywhere in a key builder.
    for func in iter_functions(keys_src.tree):
        if not (_is_key_builder(func.name) or _payload_dicts(func)):
            continue
        for name, node in _identifiers(func):
            if _BACKEND_RE.search(name):
                yield Finding(
                    rule_id="RL002",
                    path=keys_src.rel,
                    line=getattr(node, "lineno", func.lineno),
                    col=getattr(node, "col_offset", func.col_offset),
                    message=(
                        f"identifier {name!r} inside key builder "
                        f"{func.name}(): keys are backend-agnostic by "
                        f"design, so backends must stay out of them"
                    ),
                )
        for payload in _payload_dicts(func):
            for key in string_keys(payload):
                if _BACKEND_RE.search(key):
                    yield Finding(
                        rule_id="RL002",
                        path=keys_src.rel,
                        line=payload.lineno,
                        col=payload.col_offset,
                        message=(
                            f"payload key {key!r} in {func.name}() names a "
                            f"backend: keys must be backend-agnostic"
                        ),
                    )

    # 2. The payload schema must match the committed lock, or KEY_VERSION
    #    must have moved (and the lock refreshed) in the same change.
    schema = compute_key_schema(ctx)
    if schema is None:
        return
    lock_path = key_lock_path(ctx)
    lock = load_key_lock(lock_path)
    anchor = keys_src
    if lock is None:
        yield Finding(
            rule_id="RL002",
            path=anchor.rel,
            line=1,
            col=0,
            message=(
                f"no key-schema lock at {lock_path.name}; record the "
                f"current schema with 'repro lint --write-key-lock'"
            ),
        )
        return
    shape_changed = lock.get("payloads") != schema["payloads"]
    version_moved = (
        lock.get("key_version") != schema["key_version"]
        or lock.get("algo_version") != schema["algo_version"]
    )
    if shape_changed and not version_moved:
        changed = sorted(
            set(lock.get("payloads", {})) ^ set(schema["payloads"])
        ) or sorted(
            name
            for name, keys in schema["payloads"].items()
            if lock.get("payloads", {}).get(name) != keys
        )
        yield Finding(
            rule_id="RL002",
            path=anchor.rel,
            line=1,
            col=0,
            message=(
                f"key payload shape changed ({', '.join(changed)}) without a "
                f"KEY_VERSION bump: stale cache entries would alias the new "
                f"schema — bump KEY_VERSION and refresh the lock with "
                f"'repro lint --write-key-lock'"
            ),
        )
    elif shape_changed or version_moved:
        if lock != schema:
            yield Finding(
                rule_id="RL002",
                path=anchor.rel,
                line=1,
                col=0,
                message=(
                    f"key-schema lock {lock_path.name} is stale (recorded "
                    f"KEY_VERSION={lock.get('key_version')}/"
                    f"ALGO_VERSION={lock.get('algo_version')}, tree has "
                    f"{schema['key_version']}/{schema['algo_version']}): "
                    f"refresh it with 'repro lint --write-key-lock'"
                ),
            )


def compute_lock_for_paths(
    paths: list[Path], repo_root: Path, *, key_lock_path_override: str | None = None
) -> tuple[LintContext, dict | None]:
    """Build a context and schema for the CLI's ``--write-key-lock``."""
    from ..engine import LintContext as _Ctx, _detect_package_root

    files = load_files(paths, repo_root)
    ctx = _Ctx(files, package_root=_detect_package_root(files), repo_root=repo_root)
    if key_lock_path_override:
        ctx.config["key_lock_path"] = key_lock_path_override
    return ctx, compute_key_schema(ctx)
