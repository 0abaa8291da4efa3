"""RL007 — backend keyword arguments are threaded, not dropped.

A solve picks how it prices checkpoint sets in one of two ways:
``backend=`` names the backend of a fresh
:class:`~repro.core.sweep.SweepState`, or ``sweep=`` passes one the caller
already built, which fixes its own backend.
:func:`repro.heuristics.search.instance_sweep` is the one place that
resolves the pair: it builds the sweep, or checks the given one against
the instance and refuses it together with ``backend=``.  Two drift modes
this rule catches:

* a function accepts ``backend`` and never reads it — callers believe
  they selected the native backend while the python one silently runs
  (worse than an error: the results are right, the performance claim and
  any backend-specific coverage are not);
* a function accepts both ``backend`` and ``sweep`` but combines them
  ad hoc instead of through ``instance_sweep`` — a caller that passes
  both then sees one of them silently win.

Pure pass-through wrappers that forward both keywords to a conforming
callee in a single call are accepted, and ``instance_sweep`` itself is
exempt.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..engine import Finding, LintContext, SourceFile
from ..projectmodel import call_name, iter_functions
from ..registry import rule

#: The one function that resolves ``backend=`` against ``sweep=``.
_RESOLVER = "instance_sweep"


def _param_names(func: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    args = func.args
    return [
        a.arg
        for a in args.posonlyargs + args.args + args.kwonlyargs
        if a.arg not in ("self", "cls")
    ]


def _is_backend_param(name: str) -> bool:
    return name == "backend" or name.endswith("_backend")


def _names_loaded(func: ast.AST) -> set[str]:
    return {
        node.id
        for node in ast.walk(func)
        if isinstance(node, ast.Name)
        and isinstance(node.ctx, (ast.Load, ast.Del))
    }


def _forwards_together(
    func: ast.FunctionDef | ast.AsyncFunctionDef, names: set[str]
) -> bool:
    """True if one call in ``func`` receives every name in ``names`` as a
    keyword (or via ``**kwargs``) — the pass-through wrapper shape."""
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        passed = {kw.arg for kw in node.keywords if kw.arg is not None}
        if any(kw.arg is None for kw in node.keywords):
            return True
        if names <= passed:
            return True
    return False


def _calls(func: ast.FunctionDef | ast.AsyncFunctionDef, name: str) -> bool:
    """True if ``func`` calls ``name`` (bare or as an attribute)."""
    return any(
        isinstance(node, ast.Call)
        and (call_name(node) or "").rsplit(".", 1)[-1] == name
        for node in ast.walk(func)
    )


@rule(
    "RL007",
    "backend-kwargs-coherence",
    "backend= is never dropped, and backend=/sweep= resolve through instance_sweep",
    scope="file",
)
def check_backend_kwargs(ctx: LintContext, src: SourceFile) -> Iterator[Finding]:
    assert src.tree is not None
    for func in iter_functions(src.tree):
        params = _param_names(func)
        backend_params = [p for p in params if _is_backend_param(p)]
        if not backend_params:
            continue
        loaded = _names_loaded(func)
        for param in backend_params:
            if param not in loaded:
                yield Finding(
                    rule_id="RL007",
                    path=src.rel,
                    line=func.lineno,
                    col=func.col_offset,
                    message=(
                        f"{func.name}() accepts {param!r} but never uses it: "
                        f"callers select a backend that silently does not "
                        f"apply"
                    ),
                )
        if "sweep" not in params or func.name == _RESOLVER:
            continue
        if _calls(func, _RESOLVER) or _forwards_together(
            func, {backend_params[0], "sweep"}
        ):
            continue
        yield Finding(
            rule_id="RL007",
            path=src.rel,
            line=func.lineno,
            col=func.col_offset,
            message=(
                f"{func.name}() takes {backend_params[0]!r} and 'sweep' without "
                f"calling {_RESOLVER}: a caller that passes both sees one "
                f"silently win (resolve them through {_RESOLVER}, or forward "
                f"both kwargs to a conforming callee)"
            ),
        )
