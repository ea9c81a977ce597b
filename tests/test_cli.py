"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest

from repro import graphcore, registry
from repro.cli import main
from repro.graphs import random_regular

SRC = Path(__file__).resolve().parents[1] / "src"


def _write_edge_list(graph, path):
    graphcore.write_edge_list(graphcore.CompactGraph.from_networkx(graph), path)


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "g.edges"
    _write_edge_list(random_regular(16, 4, seed=1), path)
    return path


@pytest.fixture(scope="module")
def sparse_files(tmp_path_factory):
    """Two edge lists over the sparse ids ``v -> 3v + 5`` (a 60-node,
    300-edge G(n, m) graph and a 40-node tree) and the ``.csrg`` twin of
    each, made by ``graph convert``."""
    root = tmp_path_factory.mktemp("sparse")
    files = {}
    for name, graph in (
        ("sp", nx.gnm_random_graph(60, 300, seed=7)),
        ("forest", nx.random_labeled_tree(40, seed=3)),
    ):
        text = root / f"{name}.txt"
        text.write_text("".join(f"{3 * u + 5} {3 * v + 5}\n" for u, v in graph.edges()))
        csrg = root / f"{name}.csrg"
        assert main(["graph", "convert", "--in", str(text), "--out", str(csrg)]) == 0
        files[name] = (text, csrg)
    return files


class TestInfo:
    def test_prints_parameters(self, graph_file, capsys):
        assert main(["info", "--graph", str(graph_file)]) == 0
        out = capsys.readouterr().out
        assert "n          = 16" in out
        assert "Delta      = 4" in out
        assert "arboricity" in out

    @pytest.mark.parametrize(
        "graph",
        [random_regular(16, 4, seed=1), nx.gnp_random_graph(30, 0.3, seed=4)],
        ids=["regular", "gnp"],
    )
    def test_csrg_matches_edge_list_twin(self, tmp_path, capsys, graph):
        edges = tmp_path / "g.edges"
        _write_edge_list(graph, edges)
        compact = tmp_path / "g.csrg"
        graphcore.save(graphcore.read_edge_list(edges), compact)
        assert main(["info", "--graph", str(edges)]) == 0
        from_edges = capsys.readouterr().out
        assert main(["info", "--graph", str(compact)]) == 0
        assert capsys.readouterr().out == from_edges


def _run_line(path, algorithm, capsys, *extra):
    """The result line of ``run --graph path``, its path blanked; an
    algorithm that refuses the graph answers with its error instead."""
    try:
        assert main(["run", "--graph", str(path), "--algorithm", algorithm, *extra]) == 0
    except Exception as exc:  # noqa: BLE001 - the refusal is the answer compared
        return ("raised", type(exc), str(exc))
    return capsys.readouterr().out.splitlines()[-1].replace(str(path), "FILE")


class TestRunGraphFile:
    @pytest.mark.parametrize("algorithm", registry.names())
    def test_one_answer_per_file_format(self, sparse_files, capsys, algorithm):
        # one reader assigns a file's ids, so the edge list and the .csrg
        # converted from it run as the same graph
        for text, csrg in sparse_files.values():
            assert _run_line(text, algorithm, capsys) == _run_line(csrg, algorithm, capsys)

    def test_sharded_sparse_edge_list(self, sparse_files, capsys):
        text, _ = sparse_files["sp"]
        assert main(
            ["run", "--graph", str(text), "--algorithm", "linial", "--shards", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "sharded: 2 shards" in out and "fell back" not in out

    def test_fallback_line_only_without_a_sharded_run(self, sparse_files, capsys):
        _, csrg = sparse_files["sp"]
        argv = ["run", "--graph", str(csrg), "--shards", "2", "--algorithm"]
        # linial finishes inside the shard plan: zero exchange rounds,
        # but the sharded engine ran
        assert main(argv + ["linial"]) == 0
        out = capsys.readouterr().out
        assert "sharded: 2 shards, 0 exchange rounds" in out
        assert "fell back" not in out
        # cd has no shard program: the engine path answers
        assert main(argv + ["cd"]) == 0
        assert "sharded: requested but the run fell back" in capsys.readouterr().out


def _cli(*argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True,
        text=True,
        env=env,
    )


class TestGraphFileErrors:
    """A missing or malformed graph file ends a graph-file verb with one
    line that names the file, never a traceback."""

    VERBS = {
        "run": ("run", "--algorithm", "greedy", "--graph"),
        "info": ("info", "--graph"),
        "graph-info": ("graph", "info", "--graph"),
        "graph-convert": ("graph", "convert", "--out", "OUT.csrg", "--in"),
        "graph-partition": ("graph", "partition", "--shards", "2", "--out", "OUT", "--graph"),
    }

    @pytest.mark.parametrize("problem", ["missing", "malformed"])
    @pytest.mark.parametrize("verb", list(VERBS))
    def test_one_line_naming_the_file(self, tmp_path, verb, problem):
        if problem == "missing":
            path = tmp_path / "absent.txt"
        elif verb == "graph-info":
            path = tmp_path / "bad.csrg"
            path.write_bytes(b"not a csrg file")
        else:
            path = tmp_path / "bad.metis"
            path.write_text("3 x\n")
        argv = [a.replace("OUT", str(tmp_path / "out")) for a in self.VERBS[verb]]
        done = _cli(*argv, str(path))
        assert done.returncode != 0
        assert str(path) in done.stderr
        assert "Traceback" not in done.stderr
        assert len(done.stderr.strip().splitlines()) == 1, done.stderr


class TestWorkloadsCommand:
    def test_lists_registry(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "random-regular" in out and "power-law" in out
        assert "[arboricity" in out

    def test_family_filter(self, capsys):
        assert main(["workloads", "--family", "adversarial"]) == 0
        out = capsys.readouterr().out
        assert "shared-cliques" in out and "random-regular" not in out

    def test_no_match(self, capsys):
        assert main(["workloads", "--family", "imaginary"]) == 1

    def test_json_output(self, capsys):
        import json

        assert main(["workloads", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        by_name = {spec["name"]: spec for spec in payload}
        assert by_name["random-regular"]["defaults"] == {"n": 64, "d": 8}
        assert by_name["torus"]["seeded"] is False


class TestKernelsCommand:
    def test_lists_kernels(self, capsys):
        assert main(["kernels"]) == 0
        out = capsys.readouterr().out
        assert "linial" in out and "cole-vishkin" in out
        # the registry no longer splits algorithms by input representation
        assert "compact-capable" not in out
        # kernels run on every graph form, not on CompactGraph input only
        header = out.splitlines()[0]
        assert "CompactGraph input" not in header and "networkx" in header

    def test_json_output(self, capsys):
        import json

        assert main(["kernels", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "linial" in payload["kernels"]
        # every kernel is a shard program, so no separate sharded list
        assert list(payload) == ["kernels"]
        assert len(payload["kernels"]) == 7

    def test_algorithms_lists_every_algorithm_without_a_compact_marker(self, capsys):
        assert main(["algorithms"]) == 0
        out = capsys.readouterr().out
        assert all(name in out for name in registry.names())
        assert "[compact]" not in out


class TestEngineJobsDefaults:
    RUN = ["run", "--algorithm", "greedy", "--workload", "torus"]

    def test_unknown_engine_is_actionable(self, capsys):
        with pytest.raises(SystemExit):
            main(self.RUN + ["--engine", "warp-drive"])
        err = capsys.readouterr().err
        assert "unknown engine 'warp-drive'" in err
        assert "reference" in err and "vector" in err

    def test_jobs_rejects_nonpositive(self, capsys):
        with pytest.raises(SystemExit):
            main(self.RUN + ["--jobs", "0"])
        assert "positive integer" in capsys.readouterr().err

    def test_jobs_defaults_to_cpu_count(self):
        import os

        from repro.cli import _resolve_jobs, build_parser

        args = build_parser().parse_args(self.RUN)
        assert args.jobs is None
        assert _resolve_jobs(args) == max(1, os.cpu_count() or 1)
        args = build_parser().parse_args(self.RUN + ["--jobs", "3"])
        assert _resolve_jobs(args) == 3


class TestVerifyCommand:
    @pytest.fixture
    def small_store(self, tmp_path):
        path = tmp_path / "runs.db"
        assert main([
            "campaign", "cells", "--store", str(path),
            "--algorithms", "star4,greedy", "--workloads", "random-regular",
            "--seeds", "0", "--jobs", "1",
        ]) == 0
        return path

    def test_requires_store_or_diff(self):
        with pytest.raises(SystemExit, match="--store and/or --diff"):
            main(["verify"])

    def test_clean_store_passes(self, small_store, capsys):
        assert main(["verify", "--store", str(small_store)]) == 0
        out = capsys.readouterr().out
        assert "2 rows re-checked, 0 flagged" in out

    def test_corrupted_row_flagged_and_recorded(self, small_store, capsys):
        import sqlite3

        conn = sqlite3.connect(small_store)
        key = conn.execute(
            "SELECT run_key FROM runs WHERE algorithm='star4'"
        ).fetchone()[0]
        conn.execute(
            "UPDATE runs SET colors_used = colors_used + 9 WHERE run_key = ?",
            (key,),
        )
        conn.commit()
        conn.close()
        assert main(["verify", "--store", str(small_store)]) == 1
        out = capsys.readouterr().out
        assert out.count("FLAGGED") == 1
        assert key[:12] in out
        # the verdict landed in the store: query --verdict fail finds it,
        # gc --failed collects it
        assert main([
            "query", "--store", str(small_store), "--verdict", "fail",
        ]) == 0
        assert "(1 rows)" in capsys.readouterr().out
        assert main([
            "gc", "--store", str(small_store), "--failed", "--keep-errors",
        ]) == 0
        assert "deleted 1 of 2 rows" in capsys.readouterr().out

    def test_errored_rows_are_skipped_and_keep_no_verdict(self, small_store, capsys):
        import sqlite3

        from repro.store import ExperimentStore

        conn = sqlite3.connect(small_store)
        key = conn.execute(
            "SELECT run_key FROM runs WHERE algorithm='greedy'"
        ).fetchone()[0]
        conn.execute(
            "UPDATE runs SET error = 'Boom', verdict = NULL, violation = NULL, "
            "verified = NULL WHERE run_key = ?",
            (key,),
        )
        conn.commit()
        conn.close()
        assert main(["verify", "--store", str(small_store)]) == 0
        out = capsys.readouterr().out
        assert "1 rows re-checked, 0 flagged, 1 skipped (errored)" in out
        with ExperimentStore(small_store) as store:
            assert store.get(key)["verdict"] is None

    def test_diff_filters_and_runs(self, capsys):
        assert main([
            "verify", "--diff", "--algorithms", "star4",
            "--workloads", "random-regular",
        ]) == 0
        out = capsys.readouterr().out
        assert "1 cells x engines (reference, vector), 0 diverged" in out

    def test_diff_unknown_filter_rejected(self):
        with pytest.raises(SystemExit, match="no differential cells match"):
            main(["verify", "--diff", "--algorithms", "nope"])
