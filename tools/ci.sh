#!/usr/bin/env bash
# CI entry point: byte-compile everything (so import-time registry errors
# fail fast, before any test runs), then run the tier-1 suite.
#
# Usage: tools/ci.sh [extra pytest args...]
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== compileall (import-time registry safety) =="
python -m compileall -q src tests examples tools

echo "== registry loads and is populated =="
python -c "
from repro import registry
names = registry.names()
assert len(names) >= 20, f'registry unexpectedly small: {names}'
print(f'{len(names)} algorithms registered')
"

echo "== repro check (static analysis, fail fast before pytest) =="
python -m repro check

echo "== tier-1 pytest =="
python -m pytest -x -q "$@"

echo "== store smoke: run, kill, resume, compare =="
SMOKE_DIR=$(mktemp -d)
trap 'rm -rf "$SMOKE_DIR"' EXIT

echo "== check smoke: planted violations are caught with file:line =="
# Copy the scannable tree, plant one nondeterminism bug and one cached-view
# read in the pipeline glue, and require the checker to fail naming exactly
# those files and lines. Proves the CI step above is load-bearing, not
# vacuously green.
mkdir -p "$SMOKE_DIR/planted/src" "$SMOKE_DIR/planted/tests/engine"
cp -r src/repro "$SMOKE_DIR/planted/src/repro"
cp tests/engine/test_compact_parity.py "$SMOKE_DIR/planted/tests/engine/"
PLANT_FILE="$SMOKE_DIR/planted/src/repro/substrates/linial.py"
printf '\n\ndef _planted_nondeterminism():\n    import random\n    return random.random()\n' >> "$PLANT_FILE"
PLANT_LINE=$(grep -c '' "$PLANT_FILE")  # the random.random() call is the last line
VIEW_FILE="$SMOKE_DIR/planted/src/repro/substrates/reduction.py"
printf '\n\ndef _planted_cached_view(graph):\n    return max(d for _, d in graph.degree())\n' >> "$VIEW_FILE"
VIEW_LINE=$(grep -c '' "$VIEW_FILE")  # the graph.degree() call is the last line
if python -m repro check --root "$SMOKE_DIR/planted" > "$SMOKE_DIR/planted.out"; then
  echo "FAIL: repro check exited 0 on a tree with planted violations"; exit 1
fi
for WANT in "substrates/linial.py:$PLANT_LINE: det-unseeded-rng" \
            "substrates/reduction.py:$VIEW_LINE: pure-glue-cached-view"; do
  if ! grep -q "$WANT" "$SMOKE_DIR/planted.out"; then
    echo "FAIL: planted violation not reported as $WANT; got:"
    cat "$SMOKE_DIR/planted.out"; exit 1
  fi
done
echo "check smoke: planted violations caught at substrates/linial.py:$PLANT_LINE" \
     "and substrates/reduction.py:$VIEW_LINE"
SMOKE_GRID=(--algorithms star4,star,thm52,forest,greedy
            --workloads random-regular,star-forest-stack
            --seeds 0,1,2 --jobs 2)
# Start a campaign and SIGKILL it mid-flight; completed cells are already
# durable in the store.
timeout -s KILL 1 python -m repro campaign cells \
  --store "$SMOKE_DIR/killed.db" "${SMOKE_GRID[@]}" >/dev/null 2>&1 || true
# Resume the killed campaign, and run the same grid uninterrupted.
python -m repro campaign cells --store "$SMOKE_DIR/killed.db" --resume \
  "${SMOKE_GRID[@]}" | tail -1
python -m repro campaign cells --store "$SMOKE_DIR/clean.db" \
  "${SMOKE_GRID[@]}" >/dev/null
# The resumed store must be byte-identical to the uninterrupted one on the
# deterministic column set.
python -m repro query --store "$SMOKE_DIR/killed.db" --format json --out "$SMOKE_DIR/killed.json" >/dev/null
python -m repro query --store "$SMOKE_DIR/clean.db" --format json --out "$SMOKE_DIR/clean.json" >/dev/null
cmp "$SMOKE_DIR/killed.json" "$SMOKE_DIR/clean.json"
echo "resumed campaign is byte-identical to an uninterrupted run"

echo "== streaming smoke: out-of-order durability under SIGKILL =="
# A --jobs 4 --store campaign whose deliberately slow HEAD cell (it blocks
# while a flag file exists) pins one worker while every other cell
# completes out of order. The streaming executor records each completed
# cell the instant its future resolves, so they are all durable when the
# SIGKILL lands; the old pool.map executor buffered every one of them
# behind the slow head (head-of-line ordering) and this smoke fails with
# zero durable rows.
touch "$SMOKE_DIR/flag"
python tools/stream_kill_driver.py \
  "$SMOKE_DIR/stream_killed.db" "$SMOKE_DIR/flag" 4 24 &
STREAM_PID=$!
# Wait until all 24 fast cells are durable (the old executor never records
# any, so this loop timing out is the regression signal), then SIGKILL.
DURABLE=0
for _ in $(seq 1 240); do
  DURABLE=$(python - "$SMOKE_DIR/stream_killed.db" <<'EOF'
import sys
from pathlib import Path
from repro.store import ExperimentStore
path = sys.argv[1]
print(len(ExperimentStore(path)) if Path(path).exists() else 0)
EOF
)
  [ "$DURABLE" -ge 24 ] && break
  sleep 0.25
done
kill -KILL "$STREAM_PID" 2>/dev/null || true
wait "$STREAM_PID" 2>/dev/null || true
# Reap the forked pool workers the SIGKILL orphaned — they idle on the
# executor's call queue forever and keep inherited pipes open. Match on
# this run's store path so concurrent CI runs are untouched.
pkill -KILL -f "$SMOKE_DIR/stream_killed.db" 2>/dev/null || true
if [ "$DURABLE" -lt 24 ]; then
  echo "FAIL: only $DURABLE/24 completed cells durable at SIGKILL (in-flight loss must be <= jobs)"
  exit 1
fi
rm -f "$SMOKE_DIR/flag"
# Resume the killed campaign (only the head cell computes), run the same
# grid uninterrupted, and byte-compare the deterministic column set.
python tools/stream_kill_driver.py \
  "$SMOKE_DIR/stream_killed.db" "$SMOKE_DIR/flag" 4 24
python tools/stream_kill_driver.py \
  "$SMOKE_DIR/stream_clean.db" "$SMOKE_DIR/flag" 4 24
python -m repro query --store "$SMOKE_DIR/stream_killed.db" --format json --out "$SMOKE_DIR/stream_killed.json" >/dev/null
python -m repro query --store "$SMOKE_DIR/stream_clean.db" --format json --out "$SMOKE_DIR/stream_clean.json" >/dev/null
cmp "$SMOKE_DIR/stream_killed.json" "$SMOKE_DIR/stream_clean.json"
echo "streaming smoke: 24/24 out-of-order cells durable at SIGKILL; resumed store byte-identical"

echo "== verify smoke: campaign verdicts, corruption detection =="
# A small campaign must persist a non-null 'ok' verdict for every cell;
# after corrupting exactly one stored row, `repro verify` must flag
# exactly that row (and nothing else) and exit nonzero.
python -m repro campaign cells --store "$SMOKE_DIR/verify.db" \
  --algorithms star4,greedy --workloads random-regular,planar-grid \
  --seeds 0,1 --jobs 2 >/dev/null
python - "$SMOKE_DIR/verify.db" <<'EOF'
import sys
from repro.store import ExperimentStore
with ExperimentStore(sys.argv[1]) as store:
    rows = store.query()
    assert rows, "verify smoke stored no rows"
    bad = [r for r in rows if r["verdict"] != "ok" or r["violation"] is not None]
    assert not bad, f"rows without an ok verdict: {bad}"
    assert not store.query(unverified=True), "unverified rows after a campaign"
print(f"{len(rows)} campaign rows persisted with verdict=ok")
EOF
CORRUPT_KEY=$(python - "$SMOKE_DIR/verify.db" <<'EOF'
import sqlite3, sys
conn = sqlite3.connect(sys.argv[1])
key = conn.execute(
    "SELECT run_key FROM runs WHERE algorithm='star4' ORDER BY run_key LIMIT 1"
).fetchone()[0]
conn.execute("UPDATE runs SET colors_used = colors_used + 7 WHERE run_key = ?", (key,))
conn.commit()
print(key)
EOF
)
if python -m repro verify --store "$SMOKE_DIR/verify.db" > "$SMOKE_DIR/verify.out"; then
  echo "FAIL: repro verify exited 0 on a corrupted store"; exit 1
fi
FLAGGED=$(grep -c '^FLAGGED' "$SMOKE_DIR/verify.out" || true)
if [ "$FLAGGED" -ne 1 ] || ! grep -q "${CORRUPT_KEY:0:12}" "$SMOKE_DIR/verify.out"; then
  echo "FAIL: expected exactly the corrupted row flagged, got:"; cat "$SMOKE_DIR/verify.out"; exit 1
fi
python -m repro verify --diff --algorithms star4 --workloads random-regular >/dev/null
echo "verify smoke: corrupted row flagged exactly; differential engines agree"

echo "== graph smoke: build -> info -> convert -> run from .csrg =="
# A size-reduced xl instance through the whole graph-store surface: build
# a .csrg, inspect it, round-trip it through the edge-list format with an
# identical content digest, then run the same cell once from the saved
# file and once in-memory — the result columns must be byte-identical.
python -m repro graph build --workload xl-grid \
  --workload-param rows=12 --workload-param cols=12 \
  --out "$SMOKE_DIR/g.csrg" >/dev/null
# capture, then grep: `info | grep -q` would race grep's early exit
# against python's final writes under pipefail (BrokenPipeError)
python -m repro graph info --graph "$SMOKE_DIR/g.csrg" > "$SMOKE_DIR/g.info"
grep -q "n           = 144" "$SMOKE_DIR/g.info"
python -m repro graph convert --in "$SMOKE_DIR/g.csrg" --out "$SMOKE_DIR/g.txt" >/dev/null
python -m repro graph convert --in "$SMOKE_DIR/g.txt" --out "$SMOKE_DIR/g2.csrg" >/dev/null
python - "$SMOKE_DIR/g.csrg" "$SMOKE_DIR/g2.csrg" <<'EOF'
import sys
from repro.graphcore import read_info
a, b = (read_info(p)["digest"] for p in sys.argv[1:3])
assert a == b, f"convert round-trip changed the digest: {a} != {b}"
print(f"digest stable across csrg -> edge list -> csrg: {a[:16]}")
EOF
python -m repro run --graph "$SMOKE_DIR/g.csrg" --algorithm linial \
  --engine vector --out "$SMOKE_DIR/run_file.json" >/dev/null
python -m repro run --workload xl-grid \
  --workload-param rows=12 --workload-param cols=12 --algorithm linial \
  --engine vector --jobs 1 --out "$SMOKE_DIR/run_mem.json" >/dev/null
python - "$SMOKE_DIR/run_file.json" "$SMOKE_DIR/run_mem.json" <<'EOF'
import json, sys
rows = [json.load(open(p)) for p in sys.argv[1:3]]
def strip(row):  # drop the per-invocation identity/timing fields
    return {k: v for k, v in row.items()
            if k not in ("workload", "seed", "wall_ms", "metrics", "workload_params",
                         "algo_params", "extra", "verified", "verdict", "violation", "kind")}
a, b = (json.dumps([strip(r) for r in rs], sort_keys=True) for rs in rows)
assert a == b, f"file-backed run diverged from in-memory:\n{a}\n{b}"
print("run from saved .csrg byte-identical to in-memory")
EOF
echo "graph smoke: csrg build/info/convert/run agree with in-memory"

echo "== kernel smoke: CSR kernel path == reference path =="
# One seeded xl cell through the engine layer two ways: the vector
# engine's whole-round kernel path and the reference engine's per-node
# path. Both dumps must be byte-identical — outputs, rounds, and the
# per-round message profile.
cat > "$SMOKE_DIR/kernel_probe.py" <<'EOF'
import json, sys
from repro import workloads
from repro.engine import get_engine
from repro.kernels.segments import repr_rank_order
from repro.substrates.linial import LinialAlgorithm

engine, out = sys.argv[1], sys.argv[2]
graph = workloads.build("xl-grid", {"rows": 40, "cols": 40}, seed=0)
ordered = repr_rank_order(graph.n).tolist()
extras = {"initial_coloring": {v: i for i, v in enumerate(ordered)}, "m0": graph.n}
result = get_engine(engine).run(graph, LinialAlgorithm(), extras=extras)
assert result.engine == engine, f"unexpected fallback: ran {result.engine}"
payload = {
    "outputs": {str(k): v for k, v in sorted(result.outputs.items())},
    "rounds": result.rounds,
    "messages": result.messages,
    "round_messages": list(result.round_messages),
}
with open(out, "w") as handle:
    json.dump(payload, handle, sort_keys=True)
EOF
python "$SMOKE_DIR/kernel_probe.py" vector "$SMOKE_DIR/kernel_vector.json"
python "$SMOKE_DIR/kernel_probe.py" reference "$SMOKE_DIR/kernel_ref.json"
cmp "$SMOKE_DIR/kernel_vector.json" "$SMOKE_DIR/kernel_ref.json"
echo "kernel smoke: kernel run byte-identical to reference"
# The same on a pipeline-shaped input: a networkx line graph whose node
# ids are edge tuples, colored by Linial and then one Kuhn-Wattenhofer
# phase, and then the whole edge oracle on the line view it builds once.
# The vector runs must dispatch both kernels, never fall back.
cat > "$SMOKE_DIR/kernel_nx_probe.py" <<'EOF'
import json, sys
from repro import obs
from repro.engine import get_engine, use_engine
from repro.graphs import random_regular
from repro.graphs.linegraph import line_graph_with_cover
from repro.substrates import ColoringOracle
from repro.substrates.linial import LinialAlgorithm
from repro.substrates.reduction import BlockedReductionAlgorithm

engine, out = sys.argv[1], sys.argv[2]
line, _cover = line_graph_with_cover(random_regular(60, 6, seed=0))
ordered = sorted(line.nodes(), key=repr)
n = len(ordered)
palette = max(len(line[v]) for v in line) + 1
with obs.collect() as runtime:
    linial = get_engine(engine).run(line, LinialAlgorithm(), extras={
        # ids from an n^2 space: Linial has rounds to do
        "initial_coloring": {v: i * n for i, v in enumerate(ordered)},
        "m0": n * n,
    })
    phase = get_engine(engine).run(line, BlockedReductionAlgorithm(), extras={
        "coloring": linial.outputs, "block": 2 * palette, "palette": palette,
    })
counters = runtime.snapshot()["counters"]
if engine == "vector":
    for name in ("linial", "kw-phase"):
        key = f"kernel.dispatch[kernel={name}]"
        assert counters.get(key) == 1, f"{key} not counted: {sorted(counters)}"
payload = []
for run in (linial, phase):
    assert run.engine == engine, f"unexpected fallback: ran {run.engine}"
    payload.append({
        "outputs": [[repr(k), v] for k, v in sorted(run.outputs.items())],
        "rounds": run.rounds,
        "messages": run.messages,
        "round_messages": list(run.round_messages),
    })
with obs.collect() as runtime, use_engine(engine):
    oracle = ColoringOracle().edge_coloring(random_regular(60, 6, seed=0))
counters = runtime.snapshot()["counters"]
if engine == "vector":
    for name in ("linial", "kw-phase"):
        key = f"kernel.dispatch[kernel={name}]"
        assert counters.get(key, 0) >= 1, f"{key} not counted: {sorted(counters)}"
    fallbacks = [key for key in counters if key.startswith("kernel.fallback")]
    assert not fallbacks, f"edge oracle fell back: {fallbacks}"
payload.append([[repr(k), v] for k, v in sorted(oracle.items())])
with open(out, "w") as handle:
    json.dump(payload, handle, sort_keys=True)
EOF
python "$SMOKE_DIR/kernel_nx_probe.py" vector "$SMOKE_DIR/kernel_nx_vector.json"
python "$SMOKE_DIR/kernel_nx_probe.py" reference "$SMOKE_DIR/kernel_nx_ref.json"
cmp "$SMOKE_DIR/kernel_nx_vector.json" "$SMOKE_DIR/kernel_nx_ref.json"
echo "kernel smoke: tuple-id line graph and edge oracle dispatch kernels, byte-identical to reference"

echo "== obs smoke: traced campaign -> schema-valid JSONL, stats reports, traced == untraced =="
# A small multi-worker campaign with --trace: every worker appends
# schema-versioned events to one JSONL file, which must validate with
# zero problems; `repro stats` over the store must report a nonzero cell
# count; and the traced store's deterministic column set must be
# byte-identical to an untraced run of the same grid (instrumentation
# observes, it never participates).
OBS_GRID=(--algorithms linial,star4,greedy --workloads planar-grid,random-regular
          --seeds 0,1 --jobs 2)
python -m repro campaign cells --store "$SMOKE_DIR/obs_traced.db" \
  --trace "$SMOKE_DIR/obs_trace.jsonl" "${OBS_GRID[@]}" >/dev/null
python -m repro trace validate "$SMOKE_DIR/obs_trace.jsonl" > "$SMOKE_DIR/obs_validate.out"
grep -q " 0 problems" "$SMOKE_DIR/obs_validate.out"
python -m repro stats --store "$SMOKE_DIR/obs_traced.db" > "$SMOKE_DIR/obs_stats.out"
grep -q "^cells: [1-9]" "$SMOKE_DIR/obs_stats.out"
grep -q "hit rate" "$SMOKE_DIR/obs_stats.out"
python -m repro query --store "$SMOKE_DIR/obs_traced.db" --slowest 3 > "$SMOKE_DIR/obs_slow.out"
grep -q "metrics" "$SMOKE_DIR/obs_slow.out"
python -m repro campaign cells --store "$SMOKE_DIR/obs_plain.db" \
  "${OBS_GRID[@]}" >/dev/null
python -m repro query --store "$SMOKE_DIR/obs_traced.db" --format json --out "$SMOKE_DIR/obs_traced.json" >/dev/null
python -m repro query --store "$SMOKE_DIR/obs_plain.db" --format json --out "$SMOKE_DIR/obs_plain.json" >/dev/null
cmp "$SMOKE_DIR/obs_traced.json" "$SMOKE_DIR/obs_plain.json"
echo "obs smoke: trace validates, stats reports, traced store byte-identical to untraced"

echo "== report smoke: campaign store -> self-contained HTML, byte-deterministic =="
# Render the full report (HTML + markdown + CSVs) over the obs smoke's
# traced store, with the trace timeline embedded and a pinned timestamp.
# The HTML must be non-empty, self-contained (inline SVG, closing tag),
# and a second render of the same store must be byte-identical on every
# artifact — the report is a pure function of (store, trace, timestamp).
REPORT_ARGS=(--store "$SMOKE_DIR/obs_traced.db" --trace "$SMOKE_DIR/obs_trace.jsonl"
             --timestamp 1970-01-01T00:00:00+00:00)
python -m repro report "${REPORT_ARGS[@]}" --out "$SMOKE_DIR/report_a" > "$SMOKE_DIR/report.out"
grep -q "report.html" "$SMOKE_DIR/report.out"
test -s "$SMOKE_DIR/report_a/report.html"
grep -q "<svg" "$SMOKE_DIR/report_a/report.html"
grep -q "</html>" "$SMOKE_DIR/report_a/report.html"
python -m repro report "${REPORT_ARGS[@]}" --out "$SMOKE_DIR/report_b" >/dev/null
for artifact in report.html report.md frontier.csv verdicts.csv campaign.csv; do
  cmp "$SMOKE_DIR/report_a/$artifact" "$SMOKE_DIR/report_b/$artifact"
done
echo "report smoke: HTML self-contained, all five artifacts byte-deterministic"

echo "== shard smoke: partition -> sharded run == unsharded run =="
# Partition the graph smoke's .csrg, run the same cell sharded (process
# workers, checkpointed), and require the result columns to be
# byte-identical to the unsharded file-backed run above — sharding is an
# execution strategy, never an answer change. The row must disclose its
# shard count.
python -m repro graph partition --graph "$SMOKE_DIR/g.csrg" \
  --out "$SMOKE_DIR/g_shards" --shards 4 > "$SMOKE_DIR/partition.out"
grep -q "4 shards of n=144" "$SMOKE_DIR/partition.out"
python -m repro run --graph "$SMOKE_DIR/g.csrg" --algorithm linial \
  --engine vector --shards 4 --shard-dir "$SMOKE_DIR/g_shards" \
  --checkpoint "$SMOKE_DIR/g_ckpt" \
  --out "$SMOKE_DIR/run_sharded.json" > "$SMOKE_DIR/sharded.out"
grep -q "sharded: 4 shards (process pool)" "$SMOKE_DIR/sharded.out"
python - "$SMOKE_DIR/run_sharded.json" "$SMOKE_DIR/run_file.json" <<'EOF'
import json, sys
sharded, plain = (json.load(open(p))[0] for p in sys.argv[1:3])
assert sharded.pop("shards") == 4, "sharded row must disclose its shard count"
assert sharded.pop("shard_stats")["rounds_executed"] > 0
assert json.dumps(sharded, sort_keys=True) == json.dumps(plain, sort_keys=True), \
    f"sharded run diverged from unsharded:\n{sharded}\n{plain}"
print("sharded run byte-identical to unsharded; shard count disclosed")
EOF
# The same contract for a forest pipeline: cole-vishkin on a random tree,
# whose parent edges cross the shard boundaries, must dispatch sharded
# (not fall back) and match the unsharded row byte for byte.
python -m repro graph build --workload random-tree --workload-param n=300 \
  --out "$SMOKE_DIR/t.csrg" >/dev/null
python -m repro graph partition --graph "$SMOKE_DIR/t.csrg" \
  --out "$SMOKE_DIR/t_shards" --shards 4 >/dev/null
python -m repro run --graph "$SMOKE_DIR/t.csrg" --algorithm cole-vishkin \
  --engine vector --shards 4 --shard-dir "$SMOKE_DIR/t_shards" \
  --out "$SMOKE_DIR/cv_sharded.json" > "$SMOKE_DIR/cv_sharded.out"
grep -q "sharded: 4 shards" "$SMOKE_DIR/cv_sharded.out"
python -m repro run --graph "$SMOKE_DIR/t.csrg" --algorithm cole-vishkin \
  --engine vector --out "$SMOKE_DIR/cv_plain.json" >/dev/null
python - "$SMOKE_DIR/cv_sharded.json" "$SMOKE_DIR/cv_plain.json" <<'EOF'
import json, sys
sharded, plain = (json.load(open(p))[0] for p in sys.argv[1:3])
assert sharded.pop("shards") == 4
sharded.pop("shard_stats")
assert json.dumps(sharded, sort_keys=True) == json.dumps(plain, sort_keys=True), \
    f"sharded cole-vishkin diverged from unsharded:\n{sharded}\n{plain}"
print("sharded cole-vishkin byte-identical to unsharded")
EOF
echo "shard smoke: partition/run/compare agree"

echo "== experiments smoke: regenerating EXPERIMENTS.md changes nothing =="
# Only the marked block is rewritten, and it must come out byte-identical
# to the committed one (the tier-1 freshness test checks the same block).
cp EXPERIMENTS.md "$SMOKE_DIR/EXPERIMENTS.md"
python -m repro experiments "$SMOKE_DIR/EXPERIMENTS.md" >/dev/null
cmp EXPERIMENTS.md "$SMOKE_DIR/EXPERIMENTS.md"
echo "experiments smoke: regenerated EXPERIMENTS.md is byte-identical"

echo "== examples smoke: every examples/*.py exits 0 =="
for script in examples/*.py; do
  python "$script" >/dev/null || { echo "FAIL: $script exited nonzero"; exit 1; }
done
echo "examples smoke: $(ls examples/*.py | wc -l) scripts ran cleanly"
