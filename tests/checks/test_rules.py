"""Planted-violation fixtures: every rule fires on the shape it bans and
stays quiet on the idiomatic alternative."""

from repro.checks import run_checks, write_baseline


def _hits(report, rule):
    return [
        (v.path, v.line) for v in report.violations if v.rule == rule and not v.waived
    ]


# -- determinism ----------------------------------------------------------


def test_det_unseeded_rng_fires_on_module_state_calls(make_project):
    root = make_project(
        {
            "substrates/bad.py": """\
            import random
            import numpy as np


            def pick(xs):
                np.random.seed(0)
                return random.choice(xs)
            """
        }
    )
    hits = _hits(run_checks(root), "det-unseeded-rng")
    assert ("src/repro/substrates/bad.py", 6) in hits  # np.random.seed
    assert ("src/repro/substrates/bad.py", 7) in hits  # random.choice


def test_det_unseeded_rng_fires_on_from_import(make_project):
    root = make_project({"workloads/bad.py": "from random import shuffle\n"})
    assert _hits(run_checks(root), "det-unseeded-rng") == [
        ("src/repro/workloads/bad.py", 1)
    ]


def test_det_unseeded_rng_allows_seeded_generators(make_project):
    root = make_project(
        {
            "workloads/good.py": """\
            import random

            import numpy as np


            def build(seed):
                rng = np.random.Generator(np.random.PCG64(int(seed)))
                alt = np.random.default_rng(seed)
                py = random.Random(seed)
                return rng, alt, py
            """
        }
    )
    assert _hits(run_checks(root), "det-unseeded-rng") == []


def test_det_set_iteration_fires_in_order_sensitive_dirs(make_project):
    root = make_project(
        {
            "kernels/bad.py": """\
            def load(mods):
                for m in set(mods.values()):
                    use(m)
                return [x for x in {1, 2, 3}]
            """
        }
    )
    hits = _hits(run_checks(root), "det-set-iteration")
    assert ("src/repro/kernels/bad.py", 2) in hits
    assert ("src/repro/kernels/bad.py", 4) in hits


def test_det_set_iteration_allows_sorted_and_out_of_scope(make_project):
    root = make_project(
        {
            "kernels/good.py": """\
            def load(mods):
                for m in sorted(set(mods.values())):
                    use(m)
                if "x" in {"x", "y"}:
                    return True
            """,
            # analysis/ is not order-sensitive scope
            "analysis/elsewhere.py": """\
            def f(xs):
                for x in set(xs):
                    use(x)
            """,
        }
    )
    assert _hits(run_checks(root), "det-set-iteration") == []


def test_det_wallclock_fires_in_run_paths_allows_monotonic(make_project):
    root = make_project(
        {
            "engine/bad.py": """\
            import time
            import uuid


            def run():
                started = time.perf_counter()
                stamp = time.time()
                tag = uuid.uuid4()
                return stamp, tag, time.perf_counter() - started
            """,
            # cli-ish top-level module: wall clock is legal outside run paths
            "cli_like.py": "import time\nNOW = time.time()\n",
        }
    )
    hits = _hits(run_checks(root), "det-wallclock")
    assert ("src/repro/engine/bad.py", 7) in hits  # time.time
    assert ("src/repro/engine/bad.py", 8) in hits  # uuid.uuid4
    assert all(path != "src/repro/cli_like.py" for path, _ in hits)
    assert all(line != 6 for _, line in hits)  # perf_counter stays legal


# -- registry contracts ---------------------------------------------------


def test_reg_spec_invariants_fires_on_missing_keyword(make_project):
    root = make_project(
        {
            "substrates/algo.py": """\
            from repro.registry import AlgorithmSpec, register


            register(AlgorithmSpec(name="demo", family="f", kind="vertex",
                                   summary="s", color_bound="3", runner=None))
            """
        }
    )
    hits = _hits(run_checks(root), "reg-spec-invariants")
    assert hits == [("src/repro/substrates/algo.py", 4)]


def test_reg_spec_invariants_allows_explicit_declaration(make_project):
    root = make_project(
        {
            "substrates/algo.py": """\
            from repro.registry import AlgorithmSpec, register


            register(AlgorithmSpec(name="demo", family="f", kind="vertex",
                                   summary="s", color_bound="3", runner=None,
                                   invariants=("proper-coloring",)))
            """
        }
    )
    assert _hits(run_checks(root), "reg-spec-invariants") == []


def _program_module(name):
    """A kernel module registering one program called ``name`` (the
    registration is on line 9)."""
    return f"""\
from repro.kernels import register_program
from repro.kernels.program import ShardProgram


class Program(ShardProgram):
    name = "{name}"


register_program(Program())
"""


def test_reg_kernel_module_fires_on_unmapped_and_unregistered(make_project):
    root = make_project(
        {
            "kernels/__init__.py": """\
            _KERNEL_MODULES = {
                "mapped": "repro.kernels.mod_a",
                "ghost": "repro.kernels.mod_a",
            }
            """,
            "kernels/mod_a.py": _program_module("mapped"),
            "kernels/mod_b.py": _program_module("orphan"),
        }
    )
    hits = _hits(run_checks(root), "reg-kernel-module")
    # mod_b registers a kernel but is unreachable through the map
    assert ("src/repro/kernels/mod_b.py", 9) in hits
    # "ghost" is mapped but never registered
    assert ("src/repro/kernels/__init__.py", 1) in hits
    assert len(hits) == 2


def test_reg_kernel_module_fires_on_unreachable_program(make_project):
    root = make_project(
        {
            "kernels/__init__.py": """\
            _KERNEL_MODULES = {"mapped": "repro.kernels.mod_a"}
            """,
            "kernels/mod_a.py": _program_module("mapped"),
            "kernels/mod_p.py": _program_module("peel"),
        }
    )
    hits = _hits(run_checks(root), "reg-kernel-module")
    # the program's single registration is what the lazy loader must reach
    assert hits == [("src/repro/kernels/mod_p.py", 9)]


def test_reg_kernel_module_mapped_program_passes(make_project):
    root = make_project(
        {
            "kernels/__init__.py": """\
            _KERNEL_MODULES = {"peel": "repro.kernels.mod_p"}
            """,
            "kernels/mod_p.py": _program_module("peel"),
        }
    )
    assert _hits(run_checks(root), "reg-kernel-module") == []


def test_reg_kernel_module_clean_mapping_passes(make_project):
    # two programs registered by one module, both mapped to it
    two_programs = _program_module("first") + (
        "\n\nclass Second(ShardProgram):\n"
        "    name = \"second\"\n\n\n"
        "register_program(Second())\n"
    )
    root = make_project(
        {
            "kernels/__init__.py": """\
            _KERNEL_MODULES = {
                "first": "repro.kernels.mod_a",
                "second": "repro.kernels.mod_a",
            }
            """,
            "kernels/mod_a.py": two_programs,
        }
    )
    assert _hits(run_checks(root), "reg-kernel-module") == []


_COMPACT_SPEC = """\
from repro.registry import AlgorithmSpec, register


register(AlgorithmSpec(name="demo", family="f", kind="vertex",
                       summary="s", color_bound="3", runner=None,
                       invariants=(), compact_ok=True))
"""


def test_reg_compact_parity_fires_without_suite(make_project):
    root = make_project({"substrates/algo.py": _COMPACT_SPEC})
    hits = _hits(run_checks(root), "reg-compact-parity")
    assert hits == [("src/repro/substrates/algo.py", 4)]


def test_reg_compact_parity_fires_on_hand_written_case_list(make_project):
    root = make_project(
        {"substrates/algo.py": _COMPACT_SPEC},
        outside={
            "tests/engine/test_compact_parity.py": """\
            CASES = ["demo"]  # hand-written, goes stale silently


            def test_parity():
                assert CASES
            """
        },
    )
    assert len(_hits(run_checks(root), "reg-compact-parity")) == 1


def test_reg_compact_parity_registry_driven_suite_passes(make_project):
    root = make_project(
        {"substrates/algo.py": _COMPACT_SPEC},
        outside={
            "tests/engine/test_compact_parity.py": """\
            from repro import registry


            def cases():
                return [n for n in registry.names() if registry.get(n).compact_ok]
            """
        },
    )
    assert _hits(run_checks(root), "reg-compact-parity") == []


# -- hot-path purity ------------------------------------------------------


def test_pure_kernel_networkx_fires_on_module_level_import(make_project):
    root = make_project(
        {
            "kernels/bad.py": "import networkx as nx\n",
            "kernels/good.py": """\
            def fallback(graph):
                import networkx as nx

                return nx.Graph(graph)
            """,
            # outside kernels/ a top-level import is legal
            "substrates/fine.py": "import networkx as nx\n",
        }
    )
    assert _hits(run_checks(root), "pure-kernel-networkx") == [
        ("src/repro/kernels/bad.py", 1)
    ]


def test_pure_kernel_node_loop_fires_and_waives(make_project):
    root = make_project(
        {
            "kernels/bad.py": """\
            def sweep(graph, indptr):
                for v in range(graph.n):
                    touch(v)
                return [indices[i] for i in range(len(indptr) - 1)]
            """,
            "kernels/waived.py": """\
            # repro-check: file ok pure-kernel-node-loop — sequential sweep
            def sweep(graph):
                for v in range(graph.n):
                    touch(v)
            """,
            "kernels/rounds_ok.py": """\
            def schedule(q, d):
                for r in range(q):
                    for c in range(d + 1):
                        emit(r, c)
            """,
        }
    )
    report = run_checks(root)
    hits = _hits(report, "pure-kernel-node-loop")
    assert ("src/repro/kernels/bad.py", 2) in hits
    assert ("src/repro/kernels/bad.py", 4) in hits
    assert all(path == "src/repro/kernels/bad.py" for path, _ in hits)
    waived = [
        v for v in report.violations if v.rule == "pure-kernel-node-loop" and v.waived
    ]
    assert waived and waived[0].path == "src/repro/kernels/waived.py"
    assert waived[0].rationale == "sequential sweep"


def test_pure_csr_mutation_fires_on_writes_allows_reads(make_project):
    root = make_project(
        {
            "kernels/bad.py": """\
            def corrupt(indptr, indices):
                indptr[0] = 5
                indices.sort()
                indices[1:] += 1
            """,
            "kernels/good.py": """\
            import numpy as np


            def respectful(indptr, indices, colors):
                degrees = np.diff(indptr)
                colors[indices[0]] = 1
                local = np.sort(indices)
                return degrees, local
            """,
        }
    )
    hits = _hits(run_checks(root), "pure-csr-mutation")
    assert ("src/repro/kernels/bad.py", 2) in hits
    assert ("src/repro/kernels/bad.py", 3) in hits
    assert ("src/repro/kernels/bad.py", 4) in hits
    assert all(path == "src/repro/kernels/bad.py" for path, _ in hits)


def test_pure_glue_cached_view_fires_in_glue_only(make_project):
    root = make_project(
        {
            "substrates/bad.py": """\
            def delta(graph, line):
                d = max(d for _, d in graph.degree())
                pairs = [e for e in line.edges()]
                return d, pairs, graph.number_of_edges(), graph.degree(0)
            """,
            "graphs/linegraph.py": """\
            def build(graph):
                return list(graph.edges(data=True))
            """,
            "verify/oracles.py": "def m(graph):\n    return graph.number_of_edges()\n",
            "graphs/orientation.py": "def f(g):\n    return list(g.edges())\n",
            "core/good.py": """\
            from repro.graphs.properties import iter_edges, max_degree, number_of_edges


            def delta(graph, hypergraph, node):
                edges = hypergraph.edges
                return (
                    max_degree(graph), list(iter_edges(graph)),
                    number_of_edges(graph), graph.number_of_edges(0, 1),
                    node.degree, edges,
                )
            """,
            # outside the glue the nx views are legal
            "graphs/generators.py": "def f(g):\n    return list(g.edges())\n",
            "verify/checkers.py": "def f(g):\n    return g.degree()\n",
        }
    )
    assert sorted(_hits(run_checks(root), "pure-glue-cached-view")) == [
        ("src/repro/graphs/linegraph.py", 2),
        ("src/repro/graphs/orientation.py", 2),
        ("src/repro/substrates/bad.py", 2),
        ("src/repro/substrates/bad.py", 3),
        ("src/repro/substrates/bad.py", 4),
        ("src/repro/substrates/bad.py", 4),
        ("src/repro/verify/oracles.py", 2),
    ]


# -- exception hygiene ----------------------------------------------------


def test_exc_blind_except_fires_without_rationale(make_project):
    root = make_project(
        {
            "analysis/bad.py": """\
            def f():
                try:
                    work()
                except Exception:
                    pass
                try:
                    work()
                except Exception:  # noqa: BLE001
                    pass
                try:
                    work()
                except (ValueError, Exception):
                    pass
            """
        }
    )
    hits = _hits(run_checks(root), "exc-blind-except")
    assert [line for _, line in hits] == [4, 8, 12]


def test_exc_blind_except_rationale_and_narrow_types_pass(make_project):
    root = make_project(
        {
            "analysis/good.py": """\
            def f():
                try:
                    work()
                except Exception:  # noqa: BLE001 - isolation boundary: row must land
                    pass
                try:
                    work()
                except ValueError:
                    pass
            """
        }
    )
    assert _hits(run_checks(root), "exc-blind-except") == []


# -- schema freeze --------------------------------------------------------

_STORE = """\
SCHEMA_VERSION = 3

STABLE_COLUMNS = (
    "run_key",
    "algorithm",
)
"""


def test_schema_freeze_missing_baseline_fails_closed(make_project):
    root = make_project({"store/store.py": _STORE})
    hits = _hits(run_checks(root), "schema-freeze")
    assert hits == [("src/repro/store/store.py", 1)]


def test_schema_freeze_clean_after_update_baseline(make_project):
    root = make_project({"store/store.py": _STORE})
    write_baseline(root)
    assert _hits(run_checks(root), "schema-freeze") == []


def test_schema_freeze_shape_change_without_bump_fires(make_project):
    root = make_project({"store/store.py": _STORE})
    write_baseline(root)
    store_py = root / "src" / "repro" / "store" / "store.py"
    store_py.write_text(_STORE.replace('"algorithm",', '"algorithm",\n    "sneaky",'))
    report = run_checks(root)
    hits = [v for v in report.violations if v.rule == "schema-freeze"]
    assert len(hits) == 1
    assert "without a version bump" in hits[0].message
    assert hits[0].line == 3  # anchored at the mutated shape constant


def test_schema_freeze_version_bump_requires_baseline_refresh(make_project):
    root = make_project({"store/store.py": _STORE})
    write_baseline(root)
    store_py = root / "src" / "repro" / "store" / "store.py"
    store_py.write_text(_STORE.replace("SCHEMA_VERSION = 3", "SCHEMA_VERSION = 4"))
    report = run_checks(root)
    hits = [v for v in report.violations if v.rule == "schema-freeze"]
    assert len(hits) == 1
    assert "--update-baseline" in hits[0].message
    write_baseline(root)
    assert _hits(run_checks(root), "schema-freeze") == []


# -- fork safety ----------------------------------------------------------


def test_fork_global_write_fires_on_rebinding(make_project):
    root = make_project(
        {
            "obs/state.py": """\
            _CACHE = None


            def reset():
                global _CACHE
                _CACHE = {}
            """
        }
    )
    assert _hits(run_checks(root), "fork-global-write") == [
        ("src/repro/obs/state.py", 5)
    ]


def test_fork_global_write_read_only_and_waived_pass(make_project):
    root = make_project(
        {
            "obs/state.py": """\
            _CACHE = {}


            def read():
                global _CACHE
                return _CACHE


            def latch():
                # repro-check: ok fork-global-write — idempotent lazy-load latch
                global _CACHE
                _CACHE = {}
            """
        }
    )
    assert _hits(run_checks(root), "fork-global-write") == []


# -- waiver syntax (engine-owned meta rule) -------------------------------


def test_waiver_syntax_fires_on_missing_rationale_and_unknown_rule(make_project):
    root = make_project(
        {
            "analysis/bad.py": """\
            x = 1  # repro-check: ok det-wallclock
            y = 2  # repro-check: ok not-a-real-rule — sure
            """
        }
    )
    hits = _hits(run_checks(root), "waiver-syntax")
    assert ("src/repro/analysis/bad.py", 1) in hits
    assert ("src/repro/analysis/bad.py", 2) in hits
