"""The sharded runtime: process-pool execution, checkpoint/resume (and
the SIGKILL-mid-run drill), scope guards, and stats disclosure."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import workloads
from repro.errors import InvalidParameterError, RoundLimitExceeded
from repro.local.network import run_on_graph
from repro.shard import partition, sharding
from repro.substrates.hpartition import _Peeler
from repro.substrates.linial import LinialAlgorithm


@pytest.fixture
def grid():
    return workloads.build("xl-grid", {"rows": 30, "cols": 21}, seed=0)


def _linial_extras(graph):
    return {
        "initial_coloring": {v: v for v in range(graph.n)},
        "m0": graph.n,
    }


class TestProcessPool:
    """Inline parity is covered exhaustively in test_parity; these pin
    down the real process pool: persistent workers, isolated RSS."""

    def test_process_pool_matches_inline(self, grid, tmp_path):
        extras = _linial_extras(grid)
        bundle = partition(grid, 4, tmp_path / "bundle")
        with sharding(grid, bundle, inline=True) as scope:
            inline = run_on_graph(grid, LinialAlgorithm(), extras=extras)
            assert scope.last_stats["pool"] == "inline"
        with sharding(grid, bundle, inline=False) as scope:
            process = run_on_graph(grid, LinialAlgorithm(), extras=extras)
            stats = scope.last_stats
        assert stats["pool"] == "process"
        assert stats["worker_peak_rss_kb"] > 0
        assert process.outputs == inline.outputs
        assert process.round_messages == inline.round_messages

    def test_pool_persists_across_runs_in_one_scope(self, grid, tmp_path):
        bundle = partition(grid, 3, tmp_path / "bundle")
        with sharding(grid, bundle, inline=False) as scope:
            first = run_on_graph(grid, _Peeler(), extras={"threshold": 2})
            pool = scope._pool
            second = run_on_graph(
                grid, LinialAlgorithm(), extras=_linial_extras(grid)
            )
            assert scope._pool is pool  # same worker processes, re-inited
        assert first.rounds > 0 and second.rounds > 0

    def test_authentic_errors_cross_the_scope(self, grid, tmp_path):
        # RoundLimitExceeded must surface as itself, not as a pool error
        bundle = partition(grid, 3, tmp_path / "bundle")
        plain = pytest.raises(
            RoundLimitExceeded,
            run_on_graph,
            grid,
            _Peeler(),
            extras={"threshold": 0},
            engine="vector",
        )
        with sharding(grid, bundle, inline=True):
            sharded = pytest.raises(
                RoundLimitExceeded,
                run_on_graph,
                grid,
                _Peeler(),
                extras={"threshold": 0},
                engine="vector",
            )
        assert str(sharded.value) == str(plain.value)


class TestScopeGuards:
    def test_digest_mismatch_rejected_at_install(self, grid, tmp_path):
        other = workloads.build("xl-grid", {"rows": 21, "cols": 30}, seed=0)
        bundle = partition(grid, 3, tmp_path / "bundle")
        with pytest.raises(InvalidParameterError, match="repartition"):
            with sharding(other, bundle):
                pass  # pragma: no cover

    def test_precomputed_digest_skips_rehash(self, grid, tmp_path):
        bundle = partition(grid, 3, tmp_path / "bundle")
        with sharding(grid, bundle, parent_digest=bundle.parent_digest):
            pass  # accepted without calling graph.digest()

    def test_scope_uninstalled_after_exit(self, grid, tmp_path):
        from repro.shard.context import active

        bundle = partition(grid, 3, tmp_path / "bundle")
        with sharding(grid, bundle, inline=True):
            assert active() is not None
        assert active() is None


class TestCheckpointResume:
    def _run(self, grid, bundle, ckpt, extras=None, algo=None):
        with sharding(grid, bundle, inline=True, checkpoint=ckpt) as scope:
            result = run_on_graph(
                grid,
                algo or _Peeler(),
                extras=extras or {"threshold": 2},
                engine="vector",
            )
            return result, scope.last_stats

    def test_completed_checkpoint_resumes_to_identical_result(
        self, grid, tmp_path
    ):
        bundle = partition(grid, 4, tmp_path / "bundle")
        ckpt = tmp_path / "ckpt"
        fresh, stats = self._run(grid, bundle, ckpt)
        assert not stats["resumed"]
        assert (ckpt / "meta.json").exists()
        # second run resumes from the final committed round and must
        # reproduce the exact same RunResult
        resumed, stats = self._run(grid, bundle, ckpt)
        assert stats["resumed"]
        assert resumed.outputs == fresh.outputs
        assert resumed.rounds == fresh.rounds
        assert resumed.messages == fresh.messages
        assert resumed.round_messages == fresh.round_messages

    def test_foreign_checkpoint_ignored(self, grid, tmp_path):
        # same directory, different plan (threshold changed): the
        # fingerprint mismatch forces a fresh run, not a bogus resume
        bundle = partition(grid, 4, tmp_path / "bundle")
        ckpt = tmp_path / "ckpt"
        self._run(grid, bundle, ckpt, extras={"threshold": 3})
        plain = run_on_graph(
            grid, _Peeler(), extras={"threshold": 2}, engine="vector"
        )
        result, stats = self._run(grid, bundle, ckpt, extras={"threshold": 2})
        assert not stats["resumed"]
        assert result.outputs == plain.outputs

    @pytest.mark.parametrize(
        "algorithm,extras",
        [
            ("hpartition import _Peeler as Algo", "{'threshold': 2}"),
            # ten color classes on the grid (ids mod 10 is proper: row
            # and column neighbors differ by 1 and 21): the five classes
            # above the target re-pick in five steps, so step 3 is mid-run
            (
                "reduction import BasicReductionAlgorithm as Algo",
                "{'coloring': {v: v % 10 for v in range(g.n)}, 'm': 10, 'target': 5}",
            ),
        ],
        ids=["h-partition", "basic-reduction"],
    )
    def test_sigkill_mid_run_then_resume_is_byte_identical(
        self, algorithm, extras, tmp_path
    ):
        """The drill the checkpoint exists for: a coordinator SIGKILLed
        right after committing round 3 (workers still live mid-exchange)
        must resume to the bit-identical result."""
        workdir = tmp_path / "drill"
        workdir.mkdir()
        script = (
            "import json, os, sys\n"
            "from repro import workloads\n"
            "from repro.local.network import run_on_graph\n"
            "from repro.shard import ShardBundle, partition, sharding\n"
            f"from repro.substrates.{algorithm}\n"
            "workdir = sys.argv[1]\n"
            "g = workloads.build('xl-grid', {'rows': 30, 'cols': 21}, seed=0)\n"
            "bdir = os.path.join(workdir, 'bundle')\n"
            "if os.path.exists(os.path.join(bdir, 'manifest.json')):\n"
            "    bundle = ShardBundle.open(bdir)\n"
            "else:\n"
            "    bundle = partition(g, 4, bdir)\n"
            "ck = os.path.join(workdir, 'ckpt')\n"
            "with sharding(g, bundle, checkpoint=ck) as scope:\n"
            f"    got = run_on_graph(g, Algo(), extras={extras}, engine='vector')\n"
            "    resumed = scope.last_stats['resumed']\n"
            "print(json.dumps({'rounds': got.rounds, 'messages': got.messages,"
            " 'round_messages': got.round_messages,"
            " 'outputs': sorted(got.outputs.items()), 'resumed': resumed}))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path("src").resolve())] + env.get("PYTHONPATH", "").split(os.pathsep)
        )

        def run_once(extra_env=None):
            return subprocess.run(
                [sys.executable, "-c", script, str(workdir)],
                env=dict(env, **(extra_env or {})),
                capture_output=True,
                text=True,
                timeout=120,
            )

        # crash run: killed by the injection hook after committing round 3
        crashed = run_once({"REPRO_SHARD_CRASH_AFTER_ROUND": "3"})
        assert crashed.returncode == -9, crashed.stderr
        meta = json.loads((workdir / "ckpt" / "meta.json").read_text())
        assert meta["completed"] == 3
        assert meta["next_arg"] is not None  # killed mid-run, not at the end
        # resume run completes and reports resumption
        finished = run_once()
        assert finished.returncode == 0, finished.stderr
        resumed = json.loads(finished.stdout)
        assert resumed["resumed"] is True
        resumed_meta = (workdir / "ckpt" / "meta.json").read_bytes()
        # a never-interrupted control run in a fresh checkpoint dir
        import shutil

        shutil.rmtree(workdir / "ckpt")
        control_proc = run_once()
        assert control_proc.returncode == 0, control_proc.stderr
        control = json.loads(control_proc.stdout)
        assert control["resumed"] is False
        for key in ("rounds", "messages", "round_messages", "outputs"):
            assert resumed[key] == control[key]
        # the coordinator's accumulated state (for the class sweep, the
        # message profile the shards report at init) came back from
        # meta.json: the resumed run commits the same final checkpoint,
        # byte for byte, as the uninterrupted one
        assert (workdir / "ckpt" / "meta.json").read_bytes() == resumed_meta
