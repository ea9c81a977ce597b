"""Fork-safety rule: writes to module globals are reviewed decisions.

Campaign cells execute in forked pool workers; the ROADMAP's
campaign-service work will add threads and long-lived processes on top.
Module-level mutable state written at run time is the classic hazard in
both worlds: a value computed pre-fork is silently shared, a value
written post-fork silently diverges between workers, and neither shows
up in a test that runs single-process.

``fork-global-write`` flags every function that declares ``global X``
and then binds ``X``. The legitimate patterns in this codebase — the
idempotent lazy-load latches (``registry._ensure_loaded``), the
context-scoped engine default (``engine.base.use_engine``) and the
per-process observability runtime — each carry a waiver stating *why* the write is fork-safe
(idempotent, recomputable, or process-local by design). A new
unwaivered site is exactly what the campaign-service PRs need to see in
review before it ships.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set, Tuple

from repro.checks.base import CheckRule, FileChecker, register_checker

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def _scope_statements(func) -> Iterator[ast.stmt]:
    """Statements of ``func``'s own scope (nested defs are their own
    scopes with their own ``global`` declarations)."""
    stack: List[ast.stmt] = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, _FUNCTION_NODES + (ast.Lambda, ast.ClassDef)):
            continue
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                stack.append(child)


def _bound_names(stmt: ast.stmt) -> Set[str]:
    """Names ``stmt`` binds (assignment targets, for targets, with-as,
    aug-assign) — attribute/subscript writes do not rebind the global."""
    bound: Set[str] = set()
    targets: List[ast.expr] = []
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        targets = [stmt.target]
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        targets = [stmt.target]
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        targets = [
            item.optional_vars for item in stmt.items if item.optional_vars is not None
        ]
    for target in targets:
        for sub in ast.walk(target):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
                bound.add(sub.id)
    return bound


@register_checker
class ForkGlobalWrite(FileChecker):
    rule = CheckRule(
        name="fork-global-write",
        family="fork-safety",
        summary="functions that rebind module globals (`global X` + "
        "assignment) need a waiver stating why the write is fork-safe "
        "(idempotent latch, process-local by design, ...)",
    )

    def check(self, file) -> Iterator[Tuple[int, str]]:
        for node in ast.walk(file.tree):
            if not isinstance(node, _FUNCTION_NODES):
                continue
            declared: List[Tuple[ast.Global, Set[str]]] = []
            bound: Set[str] = set()
            for stmt in _scope_statements(node):
                if isinstance(stmt, ast.Global):
                    declared.append((stmt, set(stmt.names)))
                else:
                    bound |= _bound_names(stmt)
            for global_stmt, names in declared:
                written = sorted(names & bound)
                if written:
                    yield global_stmt.lineno, (
                        f"{node.name}() rebinds module global(s) "
                        f"{written} at run time — forked workers and the "
                        "future campaign service share or diverge on this "
                        "state invisibly; make it parameter/instance state, "
                        "or waive with the reason it is fork-safe"
                    )
