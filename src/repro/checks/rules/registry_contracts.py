"""Registry-contract rules: self-registration stays complete and honest.

The registries are how a new algorithm/kernel becomes a CLI choice, a
campaign cell and a parity subject in one step — but a registration with
missing metadata can fail *silently* (the lazy kernel loader simply
never finds the module). These rules make the contracts mechanical:

* ``reg-spec-invariants`` — every ``AlgorithmSpec(...)`` construction
  passes ``invariants=`` explicitly. ``invariants`` has no default, so
  an omission also fails when the spec is built; the rule names it
  without importing anything, and an algorithm that declares no oracles
  says so visibly (``invariants=()`` with a waiver), never by accident.
* ``reg-kernel-module`` — the lazy kernel registry
  (``kernels/__init__._KERNEL_MODULES``) and the registrations in the
  kernel modules describe the same mapping: every registering module is
  reachable, every mapped name is actually registered by the module it
  routes to. A registration is a ``register_program(Program())`` call,
  whose name is the program class's ``name = "..."`` attribute. A
  program outside the map is dead code neither the vector engine nor
  the sharded runtime will ever dispatch.
* ``reg-compact-parity`` — every ``AlgorithmSpec(...)`` registration
  requires the compact-parity suite (``tests/engine/test_compact_parity.py``)
  to exist and to enumerate ``registry.names()``, so a newly registered
  algorithm is parity-tested on CompactGraph and networkx inputs by
  construction rather than by remembering to add it to a hand-written
  list.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Tuple

from repro.checks.base import CheckRule, FileChecker, ProjectChecker, register_checker

#: Root-relative path of the suite that proves CompactGraph inputs and
#: networkx inputs produce identical runs.
COMPACT_PARITY_SUITE = "tests/engine/test_compact_parity.py"


def _is_algorithm_spec(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id == "AlgorithmSpec"
    return isinstance(func, ast.Attribute) and func.attr == "AlgorithmSpec"


def _keyword(call: ast.Call, name: str):
    for kw in call.keywords:
        if kw.arg == name:
            return kw
    return None


@register_checker
class SpecInvariants(FileChecker):
    rule = CheckRule(
        name="reg-spec-invariants",
        family="registry",
        summary="every AlgorithmSpec(...) declares invariants= "
        "explicitly (the verify-layer oracles its output must satisfy)",
    )

    def check(self, file) -> Iterator[Tuple[int, str]]:
        for node in ast.walk(file.tree):
            if not (isinstance(node, ast.Call) and _is_algorithm_spec(node)):
                continue
            if _keyword(node, "invariants") is None:
                name_kw = _keyword(node, "name")
                label = ""
                if name_kw is not None and isinstance(name_kw.value, ast.Constant):
                    label = f" ({name_kw.value.value!r})"
                yield node.lineno, (
                    f"AlgorithmSpec{label} does not declare invariants= — "
                    "name the verify-layer oracles its output must satisfy "
                    "(or an explicit empty tuple with a waiver)"
                )


def _kernel_modules_map(init_file) -> Tuple[Dict[str, str], int]:
    """``_KERNEL_MODULES`` as a dict plus its assignment line, extracted
    from the AST of ``kernels/__init__.py``."""
    for node in init_file.tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(
                isinstance(t, ast.Name) and t.id == "_KERNEL_MODULES"
                for t in node.targets
            )
        ) or (
            isinstance(node, ast.AnnAssign)
            and isinstance(node.target, ast.Name)
            and node.target.id == "_KERNEL_MODULES"
            and node.value is not None
        ):
            value = node.value if isinstance(node, (ast.Assign, ast.AnnAssign)) else None
            try:
                mapping = ast.literal_eval(value)
            except ValueError:
                return {}, node.lineno
            if isinstance(mapping, dict):
                return {str(k): str(v) for k, v in mapping.items()}, node.lineno
            return {}, node.lineno
    return {}, 1


def _program_classes(file) -> Dict[str, str]:
    """Class name -> the literal ``name = "..."`` class attribute, for
    every class in ``file`` that declares one."""
    out: Dict[str, str] = {}
    for node in ast.walk(file.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for stmt in node.body:
            if (
                isinstance(stmt, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "name" for t in stmt.targets)
                and isinstance(stmt.value, ast.Constant)
                and isinstance(stmt.value.value, str)
            ):
                out[node.name] = stmt.value.value
    return out


def _registered_programs(file) -> List[Tuple[str, int]]:
    """(program name, line) for every ``register_program(Cls())`` call
    on a class of ``file`` with a literal ``name``."""
    programs = _program_classes(file)
    out: List[Tuple[str, int]] = []
    for node in ast.walk(file.tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        func = node.func
        called = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None
        )
        first = node.args[0]
        if (
            called == "register_program"
            and isinstance(first, ast.Call)
            and isinstance(first.func, ast.Name)
            and first.func.id in programs
        ):
            out.append((programs[first.func.id], node.lineno))
    return out


@register_checker
class KernelModuleRegistered(ProjectChecker):
    rule = CheckRule(
        name="reg-kernel-module",
        family="registry",
        summary="register_program calls and the lazy _KERNEL_MODULES "
        "map in kernels/__init__.py describe the same mapping (no dead or "
        "unreachable programs)",
    )

    def check(self, project) -> Iterator[Tuple[str, int, str]]:
        init_file = project.file("kernels/__init__.py")
        if init_file is None:
            return
        mapping, map_line = _kernel_modules_map(init_file)
        registered: Dict[str, Tuple[str, int]] = {}  # name -> (module, line)
        for file in project.files:
            if not file.pkg_rel.startswith("kernels/") or file.pkg_rel.endswith(
                "__init__.py"
            ):
                continue
            module = "repro.kernels." + file.pkg_rel[len("kernels/"):-len(".py")]
            for name, line in _registered_programs(file):
                registered[name] = (module, line)
                if module not in mapping.values():
                    yield file.pkg_rel, line, (
                        f"program {name!r} is registered by {module}, but that "
                        "module is not reachable through "
                        "_KERNEL_MODULES in kernels/__init__.py — the lazy "
                        "loader will never import it"
                    )
                elif mapping.get(name) != module:
                    routed = mapping.get(name)
                    target = (
                        f"routes it to {routed!r}" if routed
                        else "does not map it at all"
                    )
                    yield file.pkg_rel, line, (
                        f"program {name!r} is registered by {module}, but "
                        f"_KERNEL_MODULES {target} — get_program({name!r}) "
                        "cannot resolve it lazily"
                    )
        for name, module in sorted(mapping.items()):
            if name not in registered:
                yield "kernels/__init__.py", map_line, (
                    f"_KERNEL_MODULES maps {name!r} to {module}, but no "
                    "scanned kernel module registers that name"
                )
            elif registered[name][0] != module:
                # already reported from the registering module's side
                continue


def _calls_registry_names(tree: ast.AST) -> bool:
    """True when ``tree`` calls ``registry.names()`` (any qualified
    ``...registry.names`` attribute)."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        owner = node.func.value
        if node.func.attr == "names" and (
            (isinstance(owner, ast.Name) and owner.id == "registry")
            or (isinstance(owner, ast.Attribute) and owner.attr == "registry")
        ):
            return True
    return False


@register_checker
class CompactParityCoverage(ProjectChecker):
    rule = CheckRule(
        name="reg-compact-parity",
        family="registry",
        summary="every AlgorithmSpec(...) registration requires the "
        "compact-parity suite to exist and enumerate registry.names(), so "
        "coverage cannot silently go stale",
    )

    def check(self, project) -> Iterator[Tuple[str, int, str]]:
        sites: List[Tuple[str, int, str]] = []
        for file in project.files:
            for node in ast.walk(file.tree):
                if not (isinstance(node, ast.Call) and _is_algorithm_spec(node)):
                    continue
                name_kw = _keyword(node, "name")
                label = (
                    repr(name_kw.value.value)
                    if name_kw is not None and isinstance(name_kw.value, ast.Constant)
                    else "<unnamed>"
                )
                sites.append((file.pkg_rel, node.lineno, label))
        if not sites:
            return
        suite = project.read_outside(COMPACT_PARITY_SUITE)
        if suite is None:
            for pkg_rel, line, label in sites:
                yield pkg_rel, line, (
                    f"algorithm {label} is registered but the "
                    f"compact-parity suite ({COMPACT_PARITY_SUITE}) is "
                    "missing — nothing proves CSR and networkx inputs agree"
                )
            return
        if not _calls_registry_names(ast.parse(suite)):
            for pkg_rel, line, label in sites:
                yield pkg_rel, line, (
                    f"algorithm {label} is registered but "
                    f"{COMPACT_PARITY_SUITE} never calls registry.names() — "
                    "the suite must enumerate the algorithms from the live "
                    "registry, not a hand-written list"
                )
