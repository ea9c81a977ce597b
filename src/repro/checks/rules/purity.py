"""Hot-path purity rules: the kernel layer stays array-shaped.

The whole-round kernels exist because a per-node Python dispatch over a
million-node CSR graph costs minutes where one fused numpy pass costs
milliseconds (PR 6 measured ~69x). That property erodes one innocuous
loop at a time, so it is enforced mechanically inside ``kernels/``:

* ``pure-kernel-networkx`` — no module-level ``import networkx``.
  Kernels consume ``indptr``/``indices`` arrays only; a top-level nx
  import both advertises an object-graph dependency and taxes every
  importer of the package (the vector engine imports kernels on its hot
  dispatch path). Function-local imports in explicit nx fallbacks remain
  legal.
* ``pure-kernel-node-loop`` — no unwaivered per-node/per-edge Python
  loops. Detection is a deliberate heuristic: a ``for`` statement or
  comprehension whose iterable mentions the CSR/node vocabulary
  (``graph``, ``nodes``, ``neighbors``, ``edges``, ``indptr``,
  ``indices``, ``order``, ``.n``, ``.size``). Loops over rounds,
  palette points or digit planes do not trip it. Legitimate sequential
  sweeps (greedy first-fit, where each pick depends on every earlier
  pick) carry a waiver naming that justification — the rule's job is to
  make "Python loop in a kernel" a reviewed decision.
* ``pure-csr-mutation`` — no in-place writes to ``indptr``/``indices``
  (subscript assignment or mutating method calls). Kernel inputs may be
  memory-mapped read-only files shared across workers; a kernel that
  mutates its input corrupts every subsequent run on the same graph.

One rule guards the pipeline glue around the kernels (``core/``,
``substrates/``, ``baselines/``, ``verify/oracles.py``,
``graphs/linegraph.py`` and ``graphs/orientation.py``):

* ``pure-glue-cached-view`` — no ``.degree(...)``, ``.edges(...)`` or
  zero-argument ``.number_of_edges()`` call. On a networkx graph each
  caches a view that points back at the graph, so every transient
  subgraph or line graph read that way lives until the cyclic collector
  runs. ``repro.graphs.properties`` has the cycle-free readers
  (``max_degree``, ``iter_edges``, ``number_of_edges``).
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

from repro.checks.base import CheckRule, FileChecker, register_checker

#: Identifiers that mark an iterable as per-node/per-edge shaped.
_NODE_NAMES = frozenset(
    {"graph", "nodes", "neighbors", "edges", "indptr", "indices", "order"}
)
_NODE_ATTRS = frozenset(
    {"n", "size", "nodes", "neighbors", "edges", "indptr", "indices"}
)

#: CSR input arrays that must never be written.
_CSR_ARRAYS = frozenset({"indptr", "indices"})

#: numpy ndarray methods that mutate in place.
_MUTATING_METHODS = frozenset({"sort", "fill", "put", "partition", "resize", "itemset"})


#: Pipeline glue that must read graphs without caching nx views.
_GLUE_DIRS = ("core/", "substrates/", "baselines/")
_GLUE_FILES = frozenset(
    {"verify/oracles.py", "graphs/linegraph.py", "graphs/orientation.py"}
)

#: Calls that cache a view pointing back at an nx graph, with the
#: cycle-free reader to use instead.
_CACHED_VIEW_CALLS = {
    "degree": "max_degree(graph)",
    "edges": "iter_edges(graph)",
    "number_of_edges": "number_of_edges(graph)",
}


def _in_kernels(file) -> bool:
    return file.pkg_rel.startswith("kernels/")


def _mentions_node_vocabulary(node: ast.expr) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id in _NODE_NAMES:
            return True
        if isinstance(sub, ast.Attribute) and sub.attr in _NODE_ATTRS:
            return True
    return False


def _csr_base(node: ast.expr) -> str:
    """'indptr'/'indices' when ``node`` resolves to one of the CSR
    arrays (bare name or attribute), else ''."""
    if isinstance(node, ast.Name) and node.id in _CSR_ARRAYS:
        return node.id
    if isinstance(node, ast.Attribute) and node.attr in _CSR_ARRAYS:
        return node.attr
    return ""


@register_checker
class KernelNetworkx(FileChecker):
    rule = CheckRule(
        name="pure-kernel-networkx",
        family="purity",
        summary="no module-level networkx import inside kernels/ "
        "(kernels consume CSR arrays; nx fallbacks import locally)",
    )

    def select(self, file) -> bool:
        return _in_kernels(file)

    def check(self, file) -> Iterator[Tuple[int, str]]:
        for node in file.tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "networkx":
                        yield node.lineno, (
                            "module-level `import networkx` in a kernel "
                            "module — import inside the fallback function "
                            "that actually needs the nx surface"
                        )
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if (node.module or "").split(".")[0] == "networkx":
                    yield node.lineno, (
                        "module-level `from networkx import ...` in a "
                        "kernel module — import inside the fallback "
                        "function that actually needs the nx surface"
                    )


@register_checker
class KernelNodeLoop(FileChecker):
    rule = CheckRule(
        name="pure-kernel-node-loop",
        family="purity",
        summary="per-node/per-edge Python loops inside kernels/ need a "
        "waiver naming their justification (sequential sweep, output "
        "materialization, nx fallback)",
    )

    def select(self, file) -> bool:
        return _in_kernels(file)

    def check(self, file) -> Iterator[Tuple[int, str]]:
        iters = []
        for node in ast.walk(file.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                iters.extend(gen.iter for gen in node.generators)
        for it in iters:
            if _mentions_node_vocabulary(it):
                yield it.lineno, (
                    "Python loop over per-node/per-edge data in a kernel — "
                    "vectorize it as a numpy segment operation, or waive it "
                    "with the reason the loop is irreducible "
                    "(sequential-dependency sweep, output dict "
                    "materialization, nx fallback)"
                )


@register_checker
class CsrMutation(FileChecker):
    rule = CheckRule(
        name="pure-csr-mutation",
        family="purity",
        summary="no in-place mutation of the CSR input arrays "
        "(indptr/indices) inside kernels/ — inputs may be shared, "
        "memory-mapped, and reused across runs",
    )

    def select(self, file) -> bool:
        return _in_kernels(file)

    def check(self, file) -> Iterator[Tuple[int, str]]:
        for node in ast.walk(file.tree):
            targets = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                elts = target.elts if isinstance(target, ast.Tuple) else [target]
                for elt in elts:
                    if isinstance(elt, ast.Subscript):
                        base = _csr_base(elt.value)
                        if base:
                            yield elt.lineno, (
                                f"writes {base}[...] in place — CSR inputs "
                                "are read-only; work on a copy"
                            )
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in _MUTATING_METHODS:
                    base = _csr_base(node.func.value)
                    if base:
                        yield node.lineno, (
                            f"calls {base}.{node.func.attr}() — an in-place "
                            "ndarray mutation of a CSR input; use the "
                            "copying variant (np.sort, np.full, ...)"
                        )


@register_checker
class GlueCachedView(FileChecker):
    rule = CheckRule(
        name="pure-glue-cached-view",
        family="purity",
        summary="no .degree()/.edges()/.number_of_edges() call in the "
        "pipeline glue — they cache a view that keeps a transient nx graph "
        "alive until the cyclic collector; use repro.graphs.properties",
    )

    def select(self, file) -> bool:
        return file.pkg_rel.startswith(_GLUE_DIRS) or file.pkg_rel in _GLUE_FILES

    def check(self, file) -> Iterator[Tuple[int, str]]:
        for node in ast.walk(file.tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            attr = node.func.attr
            if attr not in _CACHED_VIEW_CALLS:
                continue
            if attr == "number_of_edges" and (node.args or node.keywords):
                continue  # the (u, v) form reads the adjacency directly
            yield node.lineno, (
                f"calls .{attr}() — on an nx graph it caches a view that "
                "points back at the graph, so a transient graph waits for "
                f"the cyclic collector; use {_CACHED_VIEW_CALLS[attr]} from "
                "repro.graphs.properties"
            )
