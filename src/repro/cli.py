"""Command-line interface: ``python -m repro <subcommand>``.

Subcommands:

* ``info --graph FILE`` — structural parameters (n, m, Delta, arboricity
  bounds, degeneracy) of an edge-list or ``.csrg`` graph.
* ``algorithms`` — the unified algorithm registry: every runnable
  algorithm with its family, kind, color bound and parameters
  (compact-capable algorithms carry a ``[compact]`` marker).
* ``kernels`` — the whole-round CSR kernel layer: which per-node
  algorithms have a registered kernel (each a shard program, so each
  also runs sharded under ``run --shards``), and which registry
  algorithms consume ``CompactGraph`` natively vs. through the
  conversion fallback.
* ``run`` — run any registered algorithm on a graph file or a named
  workload; ``--seeds`` + ``--jobs`` fan a seed batch across processes,
  ``--engine`` picks the execution engine.
* ``color --graph FILE --algorithm NAME`` — the original edge-coloring
  front-end (kept for compatibility; now registry-resolved).
* ``sweep`` — a Delta ladder for one algorithm across random regular
  graphs, with per-point engine/jobs control.
* ``campaign cells`` — streams the (algorithm x workload x seed) cell
  grid across a process pool with bounded in-flight submission, optionally
  against a content-addressed experiment store (``--store runs.db``) that
  persists every cell the instant it completes, so already-computed cells
  are served from SQLite and a killed campaign resumes with ``--resume``.
  ``--retries N`` re-runs failing cells, ``--progress`` repaints a stderr
  status line (done/total, hit/miss/error counts, ETA).
* ``graph`` — the compact graph store front-end: ``build`` streams a
  named workload into a ``.csrg`` CSR file (the xl family never touches
  networkx), ``info`` prints a file's header and shape, ``convert``
  moves between edge-list / METIS / ``.csrg`` representations. Saved
  graphs feed back into ``run --graph FILE.csrg`` (memory-mapped open).
* ``workloads`` — the declarative workload registry: every named graph
  scenario with its family and default parameters (``--family`` filters
  by prefix; scale/xl rows are marked as excluded from the default
  campaign grid).
* ``query`` — filter and print rows of an experiment store
  (``--unverified`` / ``--verdict`` select on verification state).
* ``gc`` — drop unreachable store rows (stale code versions, errors,
  ``--failed`` verdicts).
* ``verify`` — re-execute and re-verify persisted store rows against the
  invariant oracles (:mod:`repro.verify`), and ``--diff``: run sampled
  cells under every engine and compare the outputs field by field.
* ``tables`` / ``figures`` / ``experiments`` — the paper-reproduction
  harnesses; ``experiments PATH`` regenerates only the marked block of
  PATH (the committed paper tables in ``EXPERIMENTS.md``).

Engine selection (``--engine {reference,vector}``) routes every simulated
round through :mod:`repro.engine`; ``--jobs N`` parallelizes across worker
processes wherever the subcommand has more than one unit of work
(defaulting to one worker per CPU).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro import io as repro_io
from repro import registry
from repro.engine import available_engines, use_engine
from repro.errors import ColoringError
from repro.graphs.properties import arboricity_bounds, degeneracy, max_degree

#: Edge-coloring algorithms exposed by ``color`` (registry-resolved; kept
#: as a module constant for backwards compatibility).
EDGE_ALGORITHMS = tuple(registry.names(kind="edge-coloring"))


def _algorithm_params(spec: registry.AlgorithmSpec, args: argparse.Namespace) -> Dict[str, Any]:
    """Map recognized CLI flags onto the parameters the algorithm accepts."""
    params: Dict[str, Any] = {}
    if "x" in spec.params and getattr(args, "x", None) is not None:
        params["x"] = args.x
    if "arboricity" in spec.params and getattr(args, "arboricity", None) is not None:
        params["arboricity"] = args.arboricity
    if "seed" in spec.params and getattr(args, "algo_seed", None) is not None:
        params["seed"] = args.algo_seed
    return params


def _verify_run(graph, run: registry.AlgorithmRun, params=None) -> None:
    """Run the algorithm's declared invariant oracles; a ``fail`` verdict
    aborts the command (single-run front-ends never print unverified
    results)."""
    from repro.verify import verify_run

    verdict = verify_run(graph, run, params=params)
    if verdict.status == "fail":
        raise ColoringError(f"{run.name}: {verdict.violation}")


def _read_graph_file(path: str):
    """A graph from disk: ``.csrg`` files open memory-mapped through the
    graph core, anything else parses as a whitespace edge list."""
    if str(path).endswith(".csrg"):
        from repro import graphcore

        return graphcore.load(path, mmap=True)
    return repro_io.read_edge_list(path)


def cmd_info(args: argparse.Namespace) -> int:
    graph = _read_graph_file(args.graph)
    bounds = arboricity_bounds(graph)
    print(f"n          = {graph.number_of_nodes()}")
    print(f"m          = {graph.number_of_edges()}")
    print(f"Delta      = {max_degree(graph)}")
    print(f"degeneracy = {degeneracy(graph)}")
    print(f"arboricity in [{bounds.lower}, {bounds.upper}]")
    return 0


def cmd_algorithms(args: argparse.Namespace) -> int:
    specs = registry.specs(family=args.family, kind=args.kind)
    if not specs:
        print("no algorithms match the filter")
        return 1
    width = max(len(spec.name) for spec in specs)
    for spec in specs:
        params = f" params: {', '.join(spec.params)}" if spec.params else ""
        requires = f" requires: {', '.join(spec.requires)}" if spec.requires else ""
        compact = " [compact]" if spec.compact_ok else ""
        print(
            f"{spec.name:<{width}}  [{spec.family}/{spec.kind}] "
            f"{spec.color_bound} colors, {spec.rounds_bound}{params}{requires}{compact}"
        )
        if args.verbose:
            print(f"{'':<{width}}  {spec.summary}")
    return 0


def cmd_kernels(args: argparse.Namespace) -> int:
    """The kernel layer's introspection surface: which per-node algorithms
    have a whole-round CSR kernel (every kernel is a shard program), and
    which registry algorithms consume CompactGraph natively."""
    from repro import kernels

    compact_specs = [spec for spec in registry.specs() if spec.compact_ok]
    payload = {
        "kernels": kernels.kernel_names(),
        "compact_ok": sorted(spec.name for spec in compact_specs),
        "compact_fallback": sorted(
            spec.name for spec in registry.specs() if not spec.compact_ok
        ),
    }
    if args.json:
        json.dump(payload, sys.stdout, indent=1)
        print()
        return 0
    print("whole-round CSR kernels (VectorEngine, CompactGraph input, --shards):")
    for name in payload["kernels"]:
        print(f"  {name}")
    print(
        f"compact-capable algorithms ({len(payload['compact_ok'])}"
        f"/{len(registry.names())}): {', '.join(payload['compact_ok'])}"
    )
    if payload["compact_fallback"]:
        print(
            "conversion fallback (PerformanceWarning on CompactGraph input): "
            + ", ".join(payload["compact_fallback"])
        )
    return 0


def cmd_color(args: argparse.Namespace) -> int:
    graph = repro_io.read_edge_list(args.graph)
    spec = registry.get(args.algorithm)
    params = _algorithm_params(spec, args)
    run = registry.run(args.algorithm, graph, engine=args.engine, **params)
    _verify_run(graph, run, params=params)
    delta = max_degree(graph)
    print(f"algorithm      = {args.algorithm}")
    print(f"Delta          = {delta}")
    print(f"colors         = {run.colors_used}")
    if run.rounds_actual is not None:
        print(f"rounds         = {run.rounds_actual:.0f}")
    if run.rounds_modeled is not None:
        print(f"rounds modeled = {run.rounds_modeled:.0f}")
    if args.output:
        repro_io.save_edge_coloring(run.coloring, args.output)
        print(f"wrote {args.output}")
    return 0


def _enter_cli_sharding(stack, graph, args: argparse.Namespace):
    """Install a sharded-execution scope for ``repro run --graph ...
    --shards N``: reuse a valid bundle from ``--shard-dir`` (same parent
    digest, same shard count) or partition one — into the shard dir if
    given, a temporary directory otherwise. Workers run as processes;
    ``--checkpoint`` makes the round loop resumable."""
    import tempfile

    from repro import graphcore
    from repro.shard import ShardBundle, partition, sharding

    if not isinstance(graph, graphcore.CompactGraph):
        raise SystemExit(
            "--shards needs a .csrg graph (partitioning works on CSR "
            "arrays; convert first with: repro graph convert)"
        )
    # the .csrg header already carries the content digest — don't re-hash
    # a memory-mapped multi-million-node array set.
    if str(args.graph).endswith(".csrg"):
        digest = graphcore.read_info(args.graph)["digest"]
    else:
        digest = graph.digest()
    bundle = None
    if args.shard_dir and (Path(args.shard_dir) / "manifest.json").exists():
        candidate = ShardBundle.open(args.shard_dir)
        if (
            candidate.parent_digest == digest
            and candidate.num_shards == args.shards
        ):
            bundle = candidate
        else:
            print(
                f"shard dir {args.shard_dir} holds a different partition "
                f"({candidate.num_shards} shards of "
                f"{candidate.parent_digest[:12]}); repartitioning"
            )
    if bundle is None:
        out = args.shard_dir or stack.enter_context(
            tempfile.TemporaryDirectory(prefix="repro-shards-")
        )
        bundle = partition(graph, args.shards, out)
    return stack.enter_context(
        sharding(
            graph,
            bundle,
            checkpoint=args.checkpoint,
            parent_digest=digest,
        )
    )


def cmd_run(args: argparse.Namespace) -> int:
    from repro import workloads
    from repro.analysis.campaign import CampaignCell, CampaignRunner

    spec = registry.get(args.algorithm)
    params = _algorithm_params(spec, args)

    if args.graph:
        import contextlib

        graph = _read_graph_file(args.graph)
        shard_stats = None
        with contextlib.ExitStack() as stack:
            scope = (
                _enter_cli_sharding(stack, graph, args)
                if getattr(args, "shards", None)
                else None
            )
            run = registry.run(args.algorithm, graph, engine=args.engine, **params)
            if scope is not None:
                shard_stats = scope.last_stats
        _verify_run(graph, run, params=params)
        rows = [
            {
                "algorithm": args.algorithm,
                "workload": args.graph,
                "seed": None,
                "n": graph.number_of_nodes(),
                "m": graph.number_of_edges(),
                "colors_used": run.colors_used,
                "rounds_actual": run.rounds_actual,
                "rounds_modeled": run.rounds_modeled,
                "engine": args.engine,
                "error": None,
            }
        ]
        if shard_stats is not None:
            rows[0]["shards"] = shard_stats["shards"]
            rows[0]["shard_stats"] = shard_stats
            print(
                f"sharded: {shard_stats['shards']} shards "
                f"({shard_stats['pool']} pool), "
                f"{shard_stats['rounds_executed']} exchange rounds, "
                f"worker peak rss {shard_stats['worker_peak_rss_kb']} KB"
                + (" [resumed]" if shard_stats["resumed"] else "")
            )
        elif getattr(args, "shards", None):
            print(
                "sharded: requested but the run fell back to the engine "
                "path (no shard program for this algorithm/input — see the "
                "shard.fallback counter)"
            )
    else:
        if args.workload not in workloads.names():
            raise SystemExit(
                f"unknown workload {args.workload!r}; choose from {workloads.names()}"
            )
        workload_params = dict(args.workload_param or ())
        seeds = args.seeds
        cells = [
            CampaignCell(
                algorithm=args.algorithm,
                workload=args.workload,
                workload_params=workload_params,
                seed=seed,
                algo_params=params,
                shards=getattr(args, "shards", None),
            )
            for seed in seeds
        ]
        with _trace_env(getattr(args, "trace", None)):
            rows = CampaignRunner(
                cells, engine=args.engine, jobs=_resolve_jobs(args)
            ).run()

    failures = 0
    for row in rows:
        if row["error"]:
            failures += 1
            print(f"FAILED seed={row['seed']}: {row['error']}")
            continue
        rounds = (
            f" rounds={row['rounds_actual']:.0f}"
            if row.get("rounds_actual") is not None
            else ""
        )
        wall = f" wall={row['wall_ms']:.1f}ms" if "wall_ms" in row else ""
        seed = f" seed={row['seed']}" if row["seed"] is not None else ""
        print(
            f"{args.algorithm} on {row['workload']}{seed}: "
            f"n={row['n']} m={row['m']} colors={row['colors_used']}{rounds}{wall}"
        )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(rows, handle, indent=1)
        print(f"wrote {args.out}")
    return 1 if failures else 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.analysis.campaign import CampaignCell, CampaignRunner

    spec = registry.get(args.algorithm)
    params = _algorithm_params(spec, args)
    cells = []
    for delta in args.deltas:
        nodes = args.n if (args.n * delta) % 2 == 0 else args.n + 1
        cells.append(
            CampaignCell(
                algorithm=args.algorithm,
                workload="random-regular",
                workload_params={"n": nodes, "d": delta},
                seed=args.seed,
                algo_params=params,
            )
        )
    rows = CampaignRunner(cells, engine=args.engine, jobs=_resolve_jobs(args)).run()
    print(f"# {args.algorithm} Delta sweep (engine={args.engine or 'default'})")
    print("| Delta | n | m | colors | rounds | modeled | wall_ms |")
    print("|---|---|---|---|---|---|---|")
    failures = 0
    for delta, row in zip(args.deltas, rows):
        if row["error"]:
            failures += 1
            print(f"| {delta} | FAILED: {row['error']} |")
            continue
        actual = (
            f"{row['rounds_actual']:.0f}" if row.get("rounds_actual") is not None else "—"
        )
        modeled = (
            f"{row['rounds_modeled']:.0f}" if row.get("rounds_modeled") is not None else "—"
        )
        print(
            f"| {delta} | {row['n']} | {row['m']} | {row['colors_used']} "
            f"| {actual} | {modeled} | {row['wall_ms']:.1f} |"
        )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(rows, handle, indent=1)
        print(f"wrote {args.out}")
    return 1 if failures else 0


def cmd_tables(args: argparse.Namespace) -> int:
    from repro.analysis.tables import main as tables_main

    with use_engine(args.engine):
        tables_main()
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    from repro.analysis.figures import main as figures_main

    figures_main()
    return 0


def cmd_experiments(args: argparse.Namespace) -> int:
    from repro.analysis.experiments import main as experiments_main

    with use_engine(args.engine):
        return experiments_main([args.output] if args.output else [])


def _trace_env(path: Optional[str]):
    """Scope ``REPRO_TRACE`` to one command: set it before any worker
    pool forks (children inherit the env and append to the same JSONL
    file), restore the previous value on exit so repeated ``main()``
    calls (tests) cannot leak a trace gate into each other."""
    import contextlib

    from repro.obs import TRACE_ENV

    if not path:
        return contextlib.nullcontext()

    @contextlib.contextmanager
    def scope():
        previous = os.environ.get(TRACE_ENV)
        os.environ[TRACE_ENV] = str(path)
        try:
            yield
        finally:
            if previous is None:
                os.environ.pop(TRACE_ENV, None)
            else:
                os.environ[TRACE_ENV] = previous

    return scope()


def _progress_printer(min_interval_s: float = 0.1):
    """A ``CampaignRunner`` progress callback that repaints one stderr
    status line (cells done/total, hit/computed/error counts, ETA).

    Repaints are rate-limited to one per ``min_interval_s`` (the final
    snapshot always prints), so an all-hits warm run over a 100k-cell
    grid is not dominated by flushed terminal writes."""
    import time

    last = [0.0]

    def emit(progress) -> None:
        now = time.monotonic()
        if progress.done < progress.total and now - last[0] < min_interval_s:
            return
        last[0] = now
        # rate/eta extrapolate from *computed* cells only (cache hits are
        # effectively free, and mixing them in would collapse the ETA of
        # a warm resume toward zero).
        rate = progress.rate
        rate_text = f" rate={rate:.1f}/s" if rate is not None else ""
        eta = progress.eta_s
        eta_text = f" eta={eta:.0f}s" if eta is not None else ""
        print(
            f"\r[{progress.done}/{progress.total}] hits={progress.hits} "
            f"computed={progress.computed} errors={progress.errors} "
            f"retried={progress.retried}{rate_text}{eta_text} ",
            end="",
            file=sys.stderr,
            flush=True,
        )

    return emit


def cmd_campaign(args: argparse.Namespace) -> int:
    from repro.analysis.campaign import (
        CampaignRunner,
        default_cells,
        grid_cells,
        save_cell_results,
    )

    if not args.out and not args.store:
        raise SystemExit("campaign cells requires --out and/or --store")
    if args.resume and args.fresh:
        raise SystemExit("--resume and --fresh are mutually exclusive")
    if (args.resume or args.fresh) and not args.store:
        raise SystemExit("--resume/--fresh require --store")
    if args.resume and not Path(args.store).exists():
        raise SystemExit(
            f"--resume: no store at {args.store} (run once without --resume first)"
        )

    if args.algorithms or args.workloads or args.seeds is not None:
        from repro import registry as algo_registry
        from repro import workloads as workload_registry

        cells = grid_cells(
            algorithms=args.algorithms or algo_registry.names(),
            # The scale/xl tiers (>= 50k / >= 1M-node instances) only run
            # when named explicitly — the unfiltered default grid must
            # stay cheap. `repro workloads` marks the excluded rows.
            workloads=args.workloads or workload_registry.default_grid_names(),
            seeds=args.seeds if args.seeds is not None else [0],
        )
    else:
        cells = default_cells()

    store = None
    cache = None
    try:
        if args.store:
            from repro.store import ExperimentStore, RunCache

            store = ExperimentStore(args.store)
            cache = RunCache(store, refresh=args.fresh)
        runner = CampaignRunner(
            cells,
            engine=args.engine,
            jobs=_resolve_jobs(args),
            cache=cache,
            retries=args.retries,
            progress=_progress_printer() if args.progress else None,
        )
        with _trace_env(getattr(args, "trace", None)):
            results = runner.run()
    finally:
        if store is not None:
            store.close()
        if args.progress:
            print(file=sys.stderr)

    failed = [r for r in results if r["error"]]
    bad_verdicts = [r for r in results if r.get("verdict") == "fail"]
    # runner counters, so the summary agrees with --progress: in-run
    # duplicates (one computation shared across cells) count as hits
    served = runner.last_progress.hits
    if args.out:
        save_cell_results(results, args.out)
        print(f"saved {len(results)} cell results to {args.out}")
    if args.store:
        print(
            f"campaign: {len(results)} cells, {served} from cache, "
            f"{len(results) - served} computed, {len(failed)} failed, "
            f"{len(bad_verdicts)} invariant violations (store: {args.store})"
        )
    else:
        print(
            f"completed {len(results)} cells ({len(failed)} failed, "
            f"{len(bad_verdicts)} invariant violations)"
        )
    for row in failed:
        print(f"FAILED {row['algorithm']} on {row['workload']}: {row['error']}")
    for row in bad_verdicts:
        print(
            f"VIOLATION {row['algorithm']} on {row['workload']} "
            f"seed={row['seed']}: {row.get('violation')}"
        )
    return 1 if failed or bad_verdicts else 0


def cmd_workloads(args: argparse.Namespace) -> int:
    from repro import workloads

    # --family is a *prefix* filter, so e.g. `--family s` selects scale
    # and `--family x` the xl tier without spelling full family names.
    specs = [
        spec
        for spec in workloads.specs()
        if args.family is None or spec.family.startswith(args.family)
    ]
    if not specs:
        print("no workloads match the filter")
        return 1
    excluded = workloads.EXCLUDED_FROM_DEFAULT_GRID
    if args.json:
        payload = [
            {
                "name": spec.name,
                "family": spec.family,
                "seeded": spec.seeded,
                "compact": spec.compact,
                "default_grid": spec.family not in excluded,
                "defaults": dict(spec.defaults),
                "summary": spec.summary,
            }
            for spec in specs
        ]
        print(json.dumps(payload, indent=1, sort_keys=True))
        return 0
    width = max(len(spec.name) for spec in specs)
    for spec in specs:
        defaults = ", ".join(f"{k}={v}" for k, v in sorted(spec.defaults.items()))
        seeded = "seeded" if spec.seeded else "deterministic"
        mark = "  [excluded from default grid]" if spec.family in excluded else ""
        print(f"{spec.name:<{width}}  [{spec.family}/{seeded}] {defaults}{mark}")
        if args.verbose:
            print(f"{'':<{width}}  {spec.summary}")
    return 0


def _graph_build(args: argparse.Namespace) -> int:
    from repro import graphcore, workloads

    if not args.out:
        raise SystemExit("graph build requires --out")
    if not args.workload:
        raise SystemExit("graph build requires --workload")
    if args.workload not in workloads.names():
        raise SystemExit(
            f"unknown workload {args.workload!r}; choose from {workloads.names()}"
        )
    graph = workloads.build(
        args.workload, dict(args.workload_param or ()), seed=args.seed
    )
    if not isinstance(graph, graphcore.CompactGraph):
        graph = graphcore.CompactGraph.from_networkx(graph)
    digest = graphcore.save(graph, args.out)
    print(
        f"wrote {args.out}: n={graph.n} m={graph.m} "
        f"Delta={graph.max_degree} digest={digest}"
    )
    return 0


def _graph_info(args: argparse.Namespace) -> int:
    from repro import graphcore

    if not args.graph:
        raise SystemExit("graph info requires --graph")
    info = graphcore.read_info(args.graph)
    graph = graphcore.load(args.graph, mmap=True)
    n = info["n"]
    print(f"path        = {info['path']}")
    print(f"format      = csrg v{info['version']}")
    print(f"n           = {n}")
    print(f"m           = {info['m']}")
    print(f"Delta       = {graph.max_degree}")
    print(f"avg degree  = {2 * info['m'] / n if n else 0:.3f}")
    print(f"digest      = {info['digest']}")
    print(f"file bytes  = {info['file_bytes']}")
    print(f"indices     = int{8 * info['indices_itemsize']}")
    print(f"labels      = {'yes' if info['has_labels'] else 'no'}")
    print(f"node attrs  = {'yes' if info['has_node_attrs'] else 'no'}")
    return 0


def _graph_convert(args: argparse.Namespace) -> int:
    from repro import graphcore

    src, dst = args.input, args.out
    if not src or not dst:
        raise SystemExit("graph convert requires --in and --out")
    if src.endswith(".csrg"):
        graph = graphcore.load(src, mmap=False, verify=True)
    elif src.endswith((".metis", ".graph")):
        graph = graphcore.read_metis(src)
    else:
        graph = graphcore.read_edge_list(src)
    if dst.endswith(".csrg"):
        digest = graphcore.save(graph, dst)
    elif dst.endswith((".metis", ".graph")):
        raise SystemExit("graph convert: METIS export is not supported (read-only format)")
    else:
        if graph.labels is not None:
            raise SystemExit(
                "graph convert: edge-list export needs dense integer nodes "
                "(this graph carries a label sideband)"
            )
        if graph.node_attrs:
            raise SystemExit(
                "graph convert: edge-list export would drop this graph's "
                "node attributes (keep it in .csrg form)"
            )
        graphcore.write_edge_list(graph, dst)
        digest = graph.digest()
    print(f"wrote {dst}: n={graph.n} m={graph.m} digest={digest}")
    return 0


def _graph_partition(args: argparse.Namespace) -> int:
    from repro import graphcore
    from repro.shard import partition

    if not args.graph:
        raise SystemExit("graph partition requires --graph FILE.csrg")
    if not args.out:
        raise SystemExit("graph partition requires --out DIR")
    if not args.shards or args.shards < 1:
        raise SystemExit("graph partition requires --shards N (N >= 1)")
    graph = graphcore.load(args.graph, mmap=True)
    bundle = partition(graph, args.shards, args.out)
    total_halo = sum(
        bundle.shard(s).n_halo for s in range(bundle.num_shards)
    )
    total_boundary = sum(
        int(bundle.shard(s).boundary.size) for s in range(bundle.num_shards)
    )
    print(
        f"wrote {args.out}: {bundle.num_shards} shards of n={graph.n} "
        f"m={graph.m} (parent digest {bundle.parent_digest[:12]})"
    )
    for s in range(bundle.num_shards):
        shard = bundle.shard(s)
        print(
            f"  shard {s:>3}: own [{shard.lo}, {shard.hi}) "
            f"({shard.n_own} nodes, {int(shard.indices.size)} directed edges, "
            f"halo {shard.n_halo}, boundary {int(shard.boundary.size)})"
        )
    print(f"cut surface: {total_boundary} boundary / {total_halo} halo nodes")
    return 0


def cmd_graph(args: argparse.Namespace) -> int:
    return {
        "build": _graph_build,
        "info": _graph_info,
        "convert": _graph_convert,
        "partition": _graph_partition,
    }[args.action](args)


def _open_store(path: str):
    from repro.store import ExperimentStore

    if not Path(path).exists():
        raise SystemExit(
            f"no experiment store at {path} "
            f"(create one with: repro campaign cells --store {path})"
        )
    return ExperimentStore(path)


def cmd_query(args: argparse.Namespace) -> int:
    from repro.store import stable_row

    filters = {
        "algorithm": args.algorithm,
        "family": args.family,
        "workload": args.workload,
        "engine": args.query_engine,
        "seed": args.seed,
        "kind": args.kind,
        "verdict": args.verdict,
    }
    with _open_store(args.store) as store:
        rows = store.query(
            include_errors=not args.no_errors,
            unverified=args.unverified,
            **{k: v for k, v in filters.items() if v is not None},
        )
    if args.slowest is not None:
        return _query_slowest(rows, args.slowest)
    if args.format == "json":
        text = json.dumps([stable_row(r) for r in rows], indent=1, sort_keys=True)
    elif args.format == "markdown":
        from repro.analysis.tables import cell_rows_markdown

        text = cell_rows_markdown(rows)
    else:
        from repro.analysis.dataframes import cell_frame
        from repro.analysis.tables import CELL_ROW_COLUMNS

        header = " ".join(f"{c:>14}" for c in CELL_ROW_COLUMNS)
        body = [
            " ".join(f"{str(r.get(c, '')):>14}" for c in CELL_ROW_COLUMNS)
            for r in cell_frame(rows)
        ]
        text = "\n".join([header, *body, f"({len(rows)} rows)"])
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {len(rows)} rows to {args.out}")
    else:
        print(text)
    return 0


def _query_slowest(rows: List[Dict[str, Any]], top: int) -> int:
    """``repro query --slowest N``: rank stored rows by the ``wall_ms``
    column — the one timing present for every schema version — so one
    ranking never orders the v3 metrics blob's ``compute_ms`` against
    another row's ``wall_ms``. Each line labels its source; v3 rows also
    show the metrics compute-phase timing as detail."""
    from repro.obs import campaign_stats

    stats = campaign_stats(rows, top=top)
    if not stats["slowest"]:
        print("(no timed rows — the store has no wall_ms data)")
        return 0
    for item in stats["slowest"]:
        key = item.get("run_key") or ""
        key_text = f"  [{key[:12]}]" if key else ""
        print(f"{item['ms']:>12.1f}ms  {item['cell']}  ({item['source']}){key_text}")
    if stats["pre_v3"]:
        print(
            f"note: {stats['pre_v3']} of {stats['cells']} rows predate the "
            "metrics column (schema v3); they rank by wall_ms like every "
            "row but carry no per-phase detail — re-run their cells with "
            "--fresh to backfill metrics"
        )
    if stats.get("untimed"):
        print(
            f"note: {stats['untimed']} rows have no wall_ms column and are "
            "excluded from the ranking"
        )
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Aggregate stored per-cell metrics into the campaign report:
    slowest cells, fallback/warning counters, cache-hit rate of the last
    campaign, per-algorithm round/time distributions."""
    from repro.obs import campaign_stats, render_stats

    filters = {
        "algorithm": args.algorithm,
        "workload": args.workload,
        "engine": args.query_engine,
    }
    with _open_store(args.store) as store:
        rows = store.query(**{k: v for k, v in filters.items() if v is not None})
        summary = store.get_meta("last_campaign")
    stats = campaign_stats(rows, top=args.top)
    print(render_stats(stats, summary=summary if isinstance(summary, dict) else None))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Render the campaign report (frontier tables, verdict ledger,
    campaign breakdown, optional span timeline) from a store into a
    self-contained HTML/markdown/CSV bundle."""
    from repro.analysis.report import build_report, write_report

    with _open_store(args.store) as store:
        rows = store.query()
        summary = store.get_meta("last_campaign")
    events = None
    if args.trace:
        from repro.obs import load_events

        if not Path(args.trace).exists():
            raise SystemExit(f"no trace file at {args.trace}")
        events = load_events(args.trace)
    if args.timestamp is not None:
        timestamp = args.timestamp
    else:
        import datetime as _dt

        timestamp = _dt.datetime.now(_dt.timezone.utc).isoformat(timespec="seconds")
    report = build_report(
        rows,
        summary=summary if isinstance(summary, dict) else None,
        events=events,
        timestamp=timestamp,
        store_label=Path(args.store).name,
    )
    written = write_report(report, args.out, fmt=args.format)
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Inspect a JSONL trace file: ``show`` renders the per-process
    timeline, ``validate`` checks every line against the event schema."""
    from repro.obs import (
        load_events,
        render_events,
        summarize_events,
        validate_trace_file,
    )

    if not Path(args.file).exists():
        raise SystemExit(f"no trace file at {args.file}")
    if args.action == "validate":
        count, problems = validate_trace_file(args.file)
        for problem in problems:
            print(problem)
        print(f"{args.file}: {count} events, {len(problems)} problems")
        return 1 if problems else 0
    events = load_events(args.file)
    summary = summarize_events(events)
    total_span = sum(summary["span_ms"].values())
    print(
        f"{args.file}: {summary['events']} events across "
        f"{len(summary['pids'])} process(es), "
        f"{len(summary['names'])} distinct names, "
        f"{total_span:.1f}ms total span time"
    )
    print(render_events(events, max_events=args.max_events, name_prefix=args.name or ""))
    return 0


def cmd_gc(args: argparse.Namespace) -> int:
    import repro
    from repro import workloads

    # Migration: run keys normalize the seed of unseeded (deterministic-
    # topology) workloads to 0. Rows such workloads stored under nonzero
    # seeds predate that normalization and can never be addressed again,
    # so gc treats them like rows from a stale code version.
    unseeded = [spec.name for spec in workloads.specs() if not spec.seeded]
    with _open_store(args.store) as store:
        before = len(store)
        stale_seeds = store.gc(
            unseeded_workloads=unseeded, drop_errors=False, dry_run=True
        )
        affected = store.gc(
            keep_code_version=None if args.all_versions else repro.__version__,
            drop_errors=not args.keep_errors,
            drop_failed=args.failed,
            dry_run=args.dry_run,
            unseeded_workloads=unseeded,
        )
        remaining = before - (0 if args.dry_run else affected)
    verb = "would delete" if args.dry_run else "deleted"
    print(f"{verb} {affected} of {before} rows ({remaining} remain)")
    if stale_seeds:
        print(
            f"note: {stale_seeds} rows held unseeded workloads under a "
            "nonzero seed — unreachable since run keys normalized those "
            "seeds to 0 (pre-normalization stores recomputed identical "
            "deterministic topologies once per seed)"
        )
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    """Run the project-native static-analysis pass (see repro.checks)."""
    from pathlib import Path

    from repro import checks

    root = Path(args.root) if args.root else None

    if args.list:
        catalogue = {r.name: r for r in checks.rule_catalogue()}
        catalogue[checks.engine.WAIVER_SYNTAX_RULE.name] = (
            checks.engine.WAIVER_SYNTAX_RULE
        )
        for name in sorted(catalogue):
            rule = catalogue[name]
            print(f"{name}  [{rule.family}]\n    {rule.summary}")
        return 0

    if args.update_baseline:
        path = checks.write_baseline(root)
        print(f"wrote {path}")

    report = checks.run_checks(root=root, rules=args.rule or None)
    if args.json:
        print(checks.render_json(report))
    else:
        print(report.render())
    return 1 if report.fired else 0


def cmd_verify(args: argparse.Namespace) -> int:
    """Re-verify persisted store rows and/or run differential
    cross-engine checks."""
    import repro
    from repro.verify import default_diff_cells, differential_check, recheck_row

    if not args.store and not args.diff:
        raise SystemExit("verify requires --store and/or --diff")

    exit_code = 0

    if args.store:
        filters = {
            "algorithm": args.algorithm,
            "workload": args.workload,
            "engine": args.query_engine,
            "seed": args.seed,
        }
        if not args.all_versions:
            # Rows from other builds legitimately diverge from a re-run
            # under this build; their keys are unreachable anyway (gc
            # territory), so recheck only current-version rows by default.
            filters["code_version"] = repro.__version__
        with _open_store(args.store) as store:
            rows = store.query(
                unverified=args.unverified,
                **{k: v for k, v in filters.items() if v is not None},
            )
            if args.limit is not None:
                rows = rows[: args.limit]
            rechecked = flagged = skipped = 0
            for row in rows:
                if row.get("error"):
                    skipped += 1  # errored cells are retried by campaigns
                    continue
                result = recheck_row(row)
                rechecked += 1
                if not args.dry_run:
                    store.set_verdict(row["run_key"], result.status, result.violation)
                # 'skip' (no oracle applies) is a healthy outcome, same as
                # in campaigns; only genuine failures flag the store.
                if result.status in ("fail", "error"):
                    flagged += 1
                    print(
                        f"FLAGGED {row['algorithm']} on {row['workload']} "
                        f"seed={row['seed']} [{row['run_key'][:12]}]: "
                        f"{result.status}: {result.violation}"
                    )
            print(
                f"verify: {rechecked} rows re-checked, {flagged} flagged, "
                f"{skipped} skipped (errored) in {args.store}"
            )
            if flagged:
                exit_code = 1

    if args.diff:
        cells = default_diff_cells()
        if args.algorithms:
            cells = [c for c in cells if c["algorithm"] in args.algorithms]
        if args.workloads:
            cells = [c for c in cells if c["workload"] in args.workloads]
        if not cells:
            raise SystemExit(
                "verify --diff: no differential cells match the filters "
                "(the sample covers: "
                + ", ".join(sorted({c["algorithm"] for c in default_diff_cells()}))
                + " x "
                + ", ".join(sorted({c["workload"] for c in default_diff_cells()}))
                + ")"
            )
        diverged = 0
        for cell in cells:
            result = differential_check(**cell)
            if not result.ok:
                diverged += 1
                print(f"DIVERGED {result.describe()}")
            elif args.verbose:
                print(result.describe())
        print(
            f"differential: {len(cells)} cells x engines (reference, vector), "
            f"{diverged} diverged"
        )
        if diverged:
            exit_code = 1

    return exit_code


class _WorkloadParam(argparse.Action):
    """Parse repeated ``--workload-param key=value`` pairs (ints when they
    look like ints, floats when they look like floats)."""

    def __call__(self, parser, namespace, values, option_string=None):
        key, _, raw = values.partition("=")
        if not key or not raw:
            raise argparse.ArgumentError(self, f"expected key=value, got {values!r}")
        value: Any = raw
        try:
            value = int(raw)
        except ValueError:
            try:
                value = float(raw)
            except ValueError:
                pass
        existing = list(getattr(namespace, self.dest) or [])
        existing.append((key, value))
        setattr(namespace, self.dest, existing)


def _int_list(raw: str) -> List[int]:
    try:
        values = [int(part) for part in raw.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints, got {raw!r}")
    if not values:
        raise argparse.ArgumentTypeError("expected at least one integer")
    return values


def _str_list(raw: str) -> List[str]:
    values = [part.strip() for part in raw.split(",") if part.strip()]
    if not values:
        raise argparse.ArgumentTypeError("expected at least one name")
    return values


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {raw!r}")
    return value


def _nonnegative_int(raw: str) -> int:
    value = int(raw)
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {raw!r}"
        )
    return value


def _engine_name(raw: str) -> str:
    """Validate an engine name against the live engine registry, with the
    available choices in the error instead of a traceback."""
    engines = available_engines()
    if raw not in engines:
        raise argparse.ArgumentTypeError(
            f"unknown engine {raw!r}; available engines: {', '.join(engines)}"
        )
    return raw


def _default_jobs() -> int:
    return max(1, os.cpu_count() or 1)


def _add_engine_jobs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--engine",
        type=_engine_name,
        metavar="{" + ",".join(available_engines()) + "}",
        default=None,
        help="execution engine for every simulated round (default: reference; "
        "vector is the CSR/event-driven engine, identical results, faster at scale)",
    )
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=None,
        help="worker processes for multi-cell work "
        f"(default: one per CPU, {_default_jobs()} here)",
    )


def _resolve_jobs(args: argparse.Namespace) -> int:
    jobs = getattr(args, "jobs", None)
    return jobs if jobs is not None else _default_jobs()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of Barenboim-Elkin-Maimon (PODC 2017)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    info = sub.add_parser("info", help="structural parameters of a graph")
    info.add_argument("--graph", required=True, help="edge-list file")
    info.set_defaults(func=cmd_info)

    algorithms = sub.add_parser(
        "algorithms", help="list the unified algorithm registry"
    )
    algorithms.add_argument("--family", choices=registry.FAMILIES, default=None)
    algorithms.add_argument("--kind", choices=registry.KINDS, default=None)
    algorithms.add_argument("-v", "--verbose", action="store_true")
    algorithms.set_defaults(func=cmd_algorithms)

    kernels = sub.add_parser(
        "kernels",
        help="the whole-round CSR kernel layer: registered kernels "
        "(each also runs sharded) and compact-capable algorithms",
    )
    kernels.add_argument("--json", action="store_true")
    kernels.set_defaults(func=cmd_kernels)

    run = sub.add_parser(
        "run",
        help="run any registered algorithm on a graph file or named workload",
    )
    source = run.add_mutually_exclusive_group(required=True)
    source.add_argument("--graph", help="edge-list file")
    source.add_argument("--workload", help="named workload generator")
    run.add_argument(
        "--workload-param",
        action=_WorkloadParam,
        metavar="KEY=VALUE",
        default=None,
        help="workload generator parameter (repeatable), e.g. --workload-param n=96",
    )
    run.add_argument("--algorithm", required=True, choices=registry.names())
    run.add_argument("--x", type=int, default=None, help="recursion depth")
    run.add_argument("--arboricity", type=int, default=None, help="arboricity bound")
    run.add_argument("--algo-seed", type=int, default=None, help="algorithm RNG seed")
    run.add_argument(
        "--seeds",
        type=_int_list,
        default=[0],
        help="comma-separated workload seeds (each is one cell), e.g. 0,1,2,3",
    )
    run.add_argument("--out", help="write structured JSON results")
    run.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="execute sharded out-of-core: partition the graph into N "
        "id-range shards, one mmap-backed worker each, one bulk-"
        "synchronous exchange per round — bit-identical results at "
        "bounded per-worker memory (algorithms without a shard program "
        "fall back to the engine path, disclosed)",
    )
    run.add_argument(
        "--shard-dir",
        default=None,
        metavar="DIR",
        help="persistent shard bundle directory (with --graph): reused "
        "when it already holds this graph's partition, written otherwise "
        "(default: a temporary directory)",
    )
    run.add_argument(
        "--checkpoint",
        default=None,
        metavar="DIR",
        help="checkpoint sharded round state into DIR after every "
        "exchange; a killed run resumes from the last completed round",
    )
    run.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="stream schema-versioned JSONL trace events (spans, engine "
        "rounds, kernel dispatches) to FILE while the cells execute "
        "(equivalent to setting REPRO_TRACE=FILE)",
    )
    _add_engine_jobs(run)
    run.set_defaults(func=cmd_run)

    color = sub.add_parser("color", help="edge-color a graph")
    color.add_argument("--graph", required=True, help="edge-list file")
    color.add_argument("--algorithm", default="star4", choices=EDGE_ALGORITHMS)
    color.add_argument("--x", type=int, default=1, help="recursion depth")
    color.add_argument("--output", help="write the coloring as JSON")
    color.add_argument("--engine", choices=available_engines(), default=None)
    color.set_defaults(func=cmd_color)

    sweep = sub.add_parser(
        "sweep", help="Delta ladder for one algorithm on random regular graphs"
    )
    sweep.add_argument("--algorithm", default="star", choices=registry.names())
    sweep.add_argument(
        "--deltas", type=_int_list, default=[8, 16, 24], help="comma-separated degrees"
    )
    sweep.add_argument("--n", type=int, default=80, help="vertices per point")
    sweep.add_argument("--seed", type=int, default=5, help="workload seed")
    sweep.add_argument("--x", type=int, default=None, help="recursion depth")
    sweep.add_argument("--arboricity", type=int, default=None)
    sweep.add_argument("--out", help="write structured JSON results")
    _add_engine_jobs(sweep)
    sweep.set_defaults(func=cmd_sweep)

    tables = sub.add_parser("tables", help="print the table reproductions")
    tables.add_argument("--engine", choices=available_engines(), default=None)
    tables.set_defaults(func=cmd_tables)

    figures = sub.add_parser("figures", help="print the figure bound checks")
    figures.set_defaults(func=cmd_figures)

    experiments = sub.add_parser(
        "experiments", help="regenerate the paper tables in EXPERIMENTS.md"
    )
    experiments.add_argument(
        "output",
        nargs="?",
        help="markdown file whose generated block (between the marker "
        "comments) is rewritten; without it the block is printed",
    )
    experiments.add_argument("--engine", choices=available_engines(), default=None)
    experiments.set_defaults(func=cmd_experiments)

    campaign = sub.add_parser(
        "campaign", help="fan (algorithm x workload x seed) cells across --jobs"
    )
    campaign.add_argument(
        "action",
        choices=("cells",),
        help="fan the cell grid across --jobs",
    )
    campaign.add_argument("--out", help="where to save the cell results")
    campaign.add_argument(
        "--store",
        help="experiment store (SQLite): cache hits skip recomputation and "
        "every finished cell is persisted immediately",
    )
    campaign.add_argument(
        "--resume",
        action="store_true",
        help="continue a killed campaign against an existing --store",
    )
    campaign.add_argument(
        "--fresh",
        action="store_true",
        help="ignore cached cells and overwrite them in --store",
    )
    campaign.add_argument(
        "--algorithms",
        type=_str_list,
        default=None,
        help="comma-separated algorithm names for the cell grid "
        "(default: the compact builtin grid)",
    )
    campaign.add_argument(
        "--workloads",
        type=_str_list,
        default=None,
        help="comma-separated workload names for the cell grid (default: "
        "every registered workload except the scale family, which only "
        "runs when named explicitly)",
    )
    campaign.add_argument(
        "--retries",
        type=_nonnegative_int,
        default=0,
        help="re-execute a failing cell up to N extra times before "
        "recording its error row (transient failures heal; deterministic "
        "ones just repeat)",
    )
    campaign.add_argument(
        "--progress",
        action="store_true",
        help="repaint a stderr status line per resolved cell: "
        "done/total, hit/computed/error counts, ETA",
    )
    campaign.add_argument(
        "--seeds",
        type=_int_list,
        default=None,
        help="comma-separated seeds for the cell grid, e.g. 0,1,2",
    )
    campaign.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="stream schema-versioned JSONL trace events to FILE while "
        "cells execute — worker processes inherit the gate and append to "
        "the same file (equivalent to setting REPRO_TRACE=FILE)",
    )
    _add_engine_jobs(campaign)
    campaign.set_defaults(func=cmd_campaign)

    graph = sub.add_parser(
        "graph",
        help="build/inspect/convert compact graph files (.csrg)",
    )
    graph.add_argument(
        "action",
        choices=("build", "info", "convert", "partition"),
        help="build a workload into a .csrg file, print a file's header, "
        "convert between edge-list/METIS/.csrg, or partition a .csrg "
        "into a shard bundle for out-of-core execution",
    )
    graph.add_argument(
        "--workload", default=None, help="named workload to build (build)"
    )
    graph.add_argument(
        "--workload-param",
        action=_WorkloadParam,
        metavar="KEY=VALUE",
        default=None,
        help="workload generator parameter (repeatable, build)",
    )
    graph.add_argument(
        "--seed", type=int, default=0, help="workload seed (build)"
    )
    graph.add_argument(
        "--graph",
        default=None,
        help=".csrg file to inspect (info) or partition (partition)",
    )
    graph.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="number of contiguous id-range shards (partition)",
    )
    graph.add_argument(
        "--in",
        dest="input",
        default=None,
        help="source file: .csrg, .metis/.graph, or edge list (convert)",
    )
    graph.add_argument(
        "--out",
        default=None,
        help="destination: .csrg target for build, .csrg or edge list "
        "for convert, bundle directory for partition",
    )
    graph.set_defaults(func=cmd_graph)

    workloads = sub.add_parser(
        "workloads", help="list the declarative workload registry"
    )
    workloads.add_argument(
        "--family", default=None, help="filter by family name prefix"
    )
    workloads.add_argument(
        "--json", action="store_true", help="emit machine-readable spec JSON"
    )
    workloads.add_argument("-v", "--verbose", action="store_true")
    workloads.set_defaults(func=cmd_workloads)

    query = sub.add_parser(
        "query", help="filter and print rows of an experiment store"
    )
    query.add_argument("--store", required=True, help="experiment store path")
    query.add_argument("--algorithm", default=None)
    query.add_argument("--family", default=None, help="algorithm family")
    query.add_argument("--workload", default=None)
    query.add_argument(
        "--engine", dest="query_engine", default=None, help="filter by engine"
    )
    query.add_argument("--seed", type=int, default=None)
    query.add_argument("--kind", default=None, help="output kind filter")
    query.add_argument(
        "--no-errors", action="store_true", help="exclude errored cells"
    )
    query.add_argument(
        "--verdict",
        choices=("ok", "fail", "skip", "error"),
        default=None,
        help="filter by verification verdict",
    )
    query.add_argument(
        "--unverified",
        action="store_true",
        help="only rows without a verdict (pre-migration rows, "
        "verify-disabled campaigns) — the `repro verify` work queue",
    )
    query.add_argument(
        "--format",
        choices=("table", "json", "markdown"),
        default="table",
        help="json is deterministic (stable columns, sorted keys) — "
        "use it for resume/diff comparisons",
    )
    query.add_argument(
        "--slowest",
        type=_positive_int,
        default=None,
        metavar="N",
        help="print the N slowest stored cells ranked by the wall_ms column "
        "(consistent across schema versions; v3 metrics compute_ms shown "
        "as per-line detail) instead of a row dump",
    )
    query.add_argument("--out", help="write the result to a file")
    query.set_defaults(func=cmd_query)

    stats = sub.add_parser(
        "stats",
        help="aggregate stored per-cell metrics: slowest cells, fallback "
        "counters, cache-hit rate, per-algorithm distributions",
    )
    stats.add_argument("--store", required=True, help="experiment store path")
    stats.add_argument("--algorithm", default=None, help="filter rows")
    stats.add_argument("--workload", default=None, help="filter rows")
    stats.add_argument(
        "--engine", dest="query_engine", default=None, help="filter rows"
    )
    stats.add_argument(
        "--top",
        type=_positive_int,
        default=5,
        help="how many slowest cells to list (default 5)",
    )
    stats.set_defaults(func=cmd_stats)

    report = sub.add_parser(
        "report",
        help="render the campaign report (frontier vs palette bounds, "
        "verdict ledger, breakdowns) as self-contained "
        "HTML / markdown / CSV",
    )
    report.add_argument("--store", required=True, help="experiment store path")
    report.add_argument(
        "--out", default="report", help="output directory (default: report/)"
    )
    report.add_argument(
        "--format",
        choices=("html", "md", "csv", "all"),
        default="all",
        help="which rendering(s) to write (default: all)",
    )
    report.add_argument(
        "--trace",
        default=None,
        help="JSONL trace file to embed as the span-timeline figure",
    )
    report.add_argument(
        "--timestamp",
        default=None,
        help="inject the generation timestamp — same store + same "
        "timestamp renders byte-identically (CI byte-compares this)",
    )
    report.set_defaults(func=cmd_report)

    trace = sub.add_parser(
        "trace",
        help="inspect a JSONL trace file written by --trace / REPRO_TRACE",
    )
    trace.add_argument(
        "action", choices=("show", "validate"),
        help="show renders the per-process timeline; validate checks "
        "every line against the event schema",
    )
    trace.add_argument("file", help="JSONL trace file")
    trace.add_argument(
        "--max-events",
        type=_positive_int,
        default=200,
        help="events rendered per process before truncating (show)",
    )
    trace.add_argument(
        "--name",
        default=None,
        help="only render events whose name starts with this prefix, "
        "e.g. engine. or kernel. (show)",
    )
    trace.set_defaults(func=cmd_trace)

    gc = sub.add_parser(
        "gc", help="drop unreachable experiment-store rows"
    )
    gc.add_argument("--store", required=True, help="experiment store path")
    gc.add_argument(
        "--all-versions",
        action="store_true",
        help="keep rows from other code versions (only drop errors)",
    )
    gc.add_argument(
        "--keep-errors", action="store_true", help="keep errored cells"
    )
    gc.add_argument(
        "--failed",
        action="store_true",
        help="also drop rows whose verification verdict is 'fail' "
        "(the next campaign recomputes them)",
    )
    gc.add_argument(
        "--dry-run", action="store_true", help="report without deleting"
    )
    gc.set_defaults(func=cmd_gc)

    verify = sub.add_parser(
        "verify",
        help="re-check stored rows against recomputation and run "
        "differential cross-engine checks",
    )
    verify.add_argument(
        "--store", default=None, help="experiment store to re-verify"
    )
    verify.add_argument("--algorithm", default=None, help="filter rows")
    verify.add_argument("--workload", default=None, help="filter rows")
    verify.add_argument(
        "--engine", dest="query_engine", default=None, help="filter rows"
    )
    verify.add_argument("--seed", type=int, default=None, help="filter rows")
    verify.add_argument(
        "--unverified",
        action="store_true",
        help="only re-check rows without a verdict",
    )
    verify.add_argument(
        "--all-versions",
        action="store_true",
        help="also re-check rows recorded by other code versions",
    )
    verify.add_argument(
        "--limit", type=_positive_int, default=None, help="re-check at most N rows"
    )
    verify.add_argument(
        "--dry-run",
        action="store_true",
        help="report flagged rows without updating stored verdicts",
    )
    verify.add_argument(
        "--diff",
        action="store_true",
        help="run the differential sample: each cell executed under every "
        "engine, runs compared field by field (includes a size-reduced "
        "scale-family instance)",
    )
    verify.add_argument(
        "--algorithms",
        type=_str_list,
        default=None,
        help="restrict --diff to these algorithms (comma-separated)",
    )
    verify.add_argument(
        "--workloads",
        type=_str_list,
        default=None,
        help="restrict --diff to these workloads (comma-separated)",
    )
    verify.add_argument("-v", "--verbose", action="store_true")
    verify.set_defaults(func=cmd_verify)

    check = sub.add_parser(
        "check",
        help="static-analysis pass: determinism, registry contracts, "
        "hot-path purity, exception hygiene, schema freeze, fork safety",
    )
    check.add_argument(
        "--json", action="store_true", help="machine-readable report"
    )
    check.add_argument(
        "--rule",
        action="append",
        default=None,
        metavar="RULE",
        help="run only this rule (repeatable; see --list)",
    )
    check.add_argument(
        "--list", action="store_true", help="list the rule catalogue and exit"
    )
    check.add_argument(
        "--root",
        default=None,
        help="checkout to scan (default: the repo this package runs from)",
    )
    check.add_argument(
        "--update-baseline",
        action="store_true",
        help="refresh checks/schema_baseline.json from the current tree "
        "before checking (commit the result together with the version bump)",
    )
    check.set_defaults(func=cmd_check)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
