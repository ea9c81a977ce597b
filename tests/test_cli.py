"""Tests for the command-line interface."""

import networkx as nx
import pytest

from repro import io as repro_io
from repro.cli import EDGE_ALGORITHMS, main
from repro.graphs import random_regular


@pytest.fixture
def graph_file(tmp_path):
    g = random_regular(16, 4, seed=1)
    path = tmp_path / "g.edges"
    repro_io.write_edge_list(g, path)
    return path


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
        # a .csrg is read as the CompactGraph it is, never converted to nx
        from repro import graphcore

        edges = tmp_path / "g.edges"
        repro_io.write_edge_list(graph, edges)
        compact = tmp_path / "g.csrg"
        graphcore.save(
            graphcore.CompactGraph.from_networkx(repro_io.read_edge_list(edges)), compact
        )
        assert main(["info", "--graph", str(edges)]) == 0
        from_edges = capsys.readouterr().out
        assert main(["info", "--graph", str(compact)]) == 0
        assert capsys.readouterr().out == from_edges


class TestColor:
    @pytest.mark.parametrize("algorithm", ["star4", "vizing", "greedy", "forest"])
    def test_algorithms_run(self, graph_file, capsys, algorithm):
        assert main(["color", "--graph", str(graph_file), "--algorithm", algorithm]) == 0
        out = capsys.readouterr().out
        assert "colors" in out

    def test_writes_output(self, graph_file, tmp_path, capsys):
        out_path = tmp_path / "coloring.json"
        assert (
            main(
                [
                    "color",
                    "--graph",
                    str(graph_file),
                    "--algorithm",
                    "greedy",
                    "--output",
                    str(out_path),
                ]
            )
            == 0
        )
        coloring = repro_io.load_edge_coloring(out_path)
        graph = repro_io.read_edge_list(graph_file)
        assert len(coloring) == graph.number_of_edges()

    def test_x_parameter(self, graph_file, capsys):
        assert (
            main(["color", "--graph", str(graph_file), "--algorithm", "star", "--x", "2"])
            == 0
        )

    def test_all_algorithms_are_wired(self, graph_file, capsys):
        for algorithm in EDGE_ALGORITHMS:
            assert (
                main(["color", "--graph", str(graph_file), "--algorithm", algorithm])
                == 0
            ), algorithm


class TestFigures:
    def test_figures_command(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "figure-1-clique-connector" in out
        assert "OK" in out


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
    def test_lists_kernels_and_compact_split(self, capsys):
        assert main(["kernels"]) == 0
        out = capsys.readouterr().out
        assert "linial" in out and "cole-vishkin" in out
        assert "compact-capable algorithms" in out
        assert "split" in out  # compact-capable since PR 9
        assert "conversion fallback" not in out  # no holdouts remain

    def test_json_output(self, capsys):
        import json

        assert main(["kernels", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "linial" in payload["kernels"]
        assert len(payload["compact_ok"]) == 21
        assert payload["compact_fallback"] == []
        # every kernel is a shard program, so no separate sharded list
        assert "sharded" not in payload
        assert len(payload["kernels"]) == 6

    def test_algorithms_shows_compact_marker(self, capsys):
        assert main(["algorithms"]) == 0
        out = capsys.readouterr().out
        assert "[compact]" in out


class TestEngineJobsDefaults:
    def test_unknown_engine_is_actionable(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--algorithm", "greedy", "--engine", "warp-drive"])
        err = capsys.readouterr().err
        assert "unknown engine 'warp-drive'" in err
        assert "reference" in err and "vector" in err

    def test_jobs_rejects_nonpositive(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--algorithm", "greedy", "--jobs", "0"])
        assert "positive integer" in capsys.readouterr().err

    def test_jobs_defaults_to_cpu_count(self):
        import os

        from repro.cli import _resolve_jobs, build_parser

        args = build_parser().parse_args(["sweep", "--algorithm", "greedy"])
        assert args.jobs is None
        assert _resolve_jobs(args) == max(1, os.cpu_count() or 1)
        args = build_parser().parse_args(
            ["sweep", "--algorithm", "greedy", "--jobs", "3"]
        )
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

    def test_unverified_queue(self, small_store, capsys):
        import sqlite3

        conn = sqlite3.connect(small_store)
        conn.execute("UPDATE runs SET verdict = NULL, violation = NULL")
        conn.commit()
        conn.close()
        assert main([
            "query", "--store", str(small_store), "--unverified",
        ]) == 0
        assert "(2 rows)" in capsys.readouterr().out
        assert main([
            "verify", "--store", str(small_store), "--unverified",
        ]) == 0
        capsys.readouterr()
        # the backlog is now empty
        assert main([
            "query", "--store", str(small_store), "--unverified",
        ]) == 0
        assert "(0 rows)" in capsys.readouterr().out

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
