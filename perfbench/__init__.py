"""The repository benchmark: four campaign workloads, each measured end to
end and, in a separate traced run, split by layer.

Run one workload with ``python3 perfbench/run.py --workload grid --seed 0
--seconds 15 --trace 0`` from the repository root; ``--workload all`` runs
every workload in turn. ``BENCHMARK.json`` at the root names the
workloads and metrics; ``perfbench/layers.json`` maps each per-layer
metric to the end-to-end metric it should move.
"""
