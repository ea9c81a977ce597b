"""Dead-code guards over ``src/repro``: no unused module-level import and
no module-level function that nothing in the project references."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "repro"

#: Where a reference to a ``src/repro`` function may live.
REFERENCE_DIRS = ("src", "tests", "tools", "examples", "perfbench")


def _trees(*dirs):
    for name in dirs:
        for path in sorted((ROOT / name).rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _read_names(tree):
    """Every name the module reads: bare names, names inside string
    annotations (``-> "RunResult"``) and the ``__all__`` entries."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            annotations = [node.annotation]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations = [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        else:
            continue
        for annotation in filter(None, annotations):
            for const in ast.walk(annotation):
                if isinstance(const, ast.Constant) and isinstance(const.value, str):
                    parsed = ast.parse(const.value, mode="eval")
                    names |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
        ):
            names |= set(ast.literal_eval(stmt.value))
    return names


def test_no_unused_top_level_imports():
    unused = []
    for path, tree in _trees("src/repro"):
        read = _read_names(tree)
        for stmt in tree.body:
            if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            for alias in stmt.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in read:
                    unused.append(f"{path.relative_to(ROOT)}:{stmt.lineno}: {bound}")
    assert unused == []


def test_every_module_level_function_is_referenced():
    defined = []
    for path, tree in _trees("src/repro"):
        defined += [
            (path, stmt)
            for stmt in tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (stmt.name.startswith("__") and stmt.name.endswith("__"))
        ]
    referenced = set()
    for _path, tree in _trees(*REFERENCE_DIRS):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                # dotted paths in monkeypatch targets and __all__ entries
                referenced.update(node.value.split("."))
    dead = [
        f"{path.relative_to(ROOT)}:{stmt.lineno}: {stmt.name}"
        for path, stmt in defined
        if stmt.name not in referenced
    ]
    assert dead == []
