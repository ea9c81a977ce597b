"""Run one benchmark workload (or all of them) and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload grid --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace
1`` alternates untraced and traced passes and reports the per-layer
metrics, writing the traced spans to ``.perfbench/spans/``. Each run
prints a host fingerprint, a table of its metrics with units and, as the
last line of standard output, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the same result is saved under
``.perfbench/results/``. The exit code is 1 when any output differs from
``perfbench/pins.json``, and 2 when there is no ``src/repro`` to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from perfbench.metrics import count_failures, median, tail_percentiles  # noqa: E402

OUT_DIR = ".perfbench"

#: Fresh-interpreter set-up samples per untraced run, by workload size.
SETUP_SAMPLES = {"full": 5, "smoke": 1}

#: Everything the first pass would otherwise import or register lazily.
SETUP_PROBE = """\
import time
began = time.perf_counter()
import repro
from repro import engine, kernels, registry, workloads
import repro.analysis.campaign, repro.analysis.report, repro.store, repro.verify
registry.names(); workloads.names(); kernels.kernel_names()
engine.get_engine("vector")
print(time.perf_counter() - began)
"""

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def host_fingerprint(root: Path, seed: int) -> Dict[str, Any]:
    """CPU model, core count, interpreter and library versions, the code
    identity and the seed: what a result must carry to be compared."""
    import hashlib

    import networkx
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "git_sha": _git_sha(root),
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
    }


def _git_sha(root: Path) -> Optional[str]:
    """The checked-out commit, read from ``.git`` without running git (a
    checkout without ``.git`` has none)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def measure_setup(root: Path, samples: int) -> List[float]:
    """Set-up seconds in ``samples`` fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    times = []
    for _ in range(samples):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE], cwd=root, env=env,
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def peak_rss_mb() -> float:
    """The larger of this process's and its largest child's peak RSS."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _problems(pins: Dict[str, Any], result: Any) -> List[List[str]]:
    from perfbench.pins import check_row

    outcomes = [check_row(row, pins) for row in result.rows]
    for rows in result.resume_rows:
        outcomes.extend(check_row(row, pins, expect_cached=True) for row in rows)
    return outcomes


def run_workload(args: argparse.Namespace, root: Path) -> int:
    import warnings

    from perfbench import layers, pins, suite
    from perfbench.tracing import SpanRecorder, instrument

    workload = suite.WORKLOADS[args.workload]
    out = root / OUT_DIR
    workdir = out / f"work-{os.getpid()}"
    (workdir / "tmp").mkdir(parents=True, exist_ok=True)
    # Shard bundles go to a temporary directory: keep it in the checkout.
    os.environ["TMPDIR"] = str(workdir / "tmp")
    import tempfile

    tempfile.tempdir = str(workdir / "tmp")
    warnings.simplefilter("ignore")
    try:
        setup = [] if args.trace else measure_setup(root, SETUP_SAMPLES[args.size])
        fingerprint = host_fingerprint(root, args.seed)
        pinned = pins.load()
        cells = workload.cells(args.seed, args.size)
        recorder = SpanRecorder()
        untraced: List[Any] = []
        traced: List[Any] = []
        outcomes: List[List[str]] = []
        began = time.perf_counter()
        index = 0
        while True:
            trace_this = bool(args.trace) and index % 2 == 1
            pass_dir = workdir / f"pass-{index}"
            if trace_this:
                with instrument(recorder):
                    result = suite.run_pass(workload, cells, pass_dir, recorder)
                traced.append((index, result))
            else:
                result = suite.run_pass(workload, cells, pass_dir)
                untraced.append(result)
            outcomes.extend(_problems(pinned, result))
            index += 1
            enough = not args.trace or traced
            if enough and time.perf_counter() - began >= args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = count_failures(outcomes)
    all_passes = untraced + [r for _, r in traced]
    cells_run = [r for p in all_passes for r in p.rows]
    not_ok = sum(r.get("verdict") != "ok" for r in cells_run)
    cold = [r for p in all_passes for r in layers.computed_rows(p.rows)]
    cell_ms = [r["metrics"]["total_ms"] for r in cold if r.get("metrics")]
    walls = [r.wall_s for r in untraced]
    report: Dict[str, Any] = {
        "workload": workload.name,
        "size": args.size,
        "passes": len(all_passes),
        "traced_passes": len(traced),
        "host": fingerprint,
        "failed_frac": not_ok / len(cells_run),
        "pass_wall_s": walls,
        "resume_s": median([s for r in untraced for s in r.resume_s]),
        "cell_ms": dict(tail_percentiles(cell_ms), n=len(cell_ms)),
        "queue_ms": dict(tail_percentiles([
            r["metrics"].get("queue_ms", 0.0) for r in cold if r.get("metrics")
        ]), n=len(cold)),
        "mismatches": sorted({p for problems in outcomes for p in problems})[:50],
    }
    if args.trace:
        per_pass = [layers.pass_metrics(r) for _, r in traced]
        values = {
            name: median([m[name] for m in per_pass])
            for name in layers.LAYER_METRICS if name != "obs.trace_overhead_frac"
        }
        values["obs.trace_overhead_frac"] = (
            median([r.wall_s for _, r in traced]) / median(walls) - 1.0
        )
        units = layers.LAYER_METRICS
        spans = layers.span_records(traced)
        report["self_ms"] = layers.self_time_table(spans)
        spans_path = out / "spans" / f"{workload.name}-seed{args.seed}.jsonl"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        with open(spans_path, "w", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")
        report["spans_file"] = str(spans_path.relative_to(root))
    else:
        values = {
            "setup_s": median(setup),
            "wall_s": median(walls),
            "peak_rss_mb": peak_rss_mb(),
        }
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    report["metrics"] = metrics

    results_path = out / "results" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    results_path.parent.mkdir(parents=True, exist_ok=True)
    results_path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")

    print("host: " + json.dumps(fingerprint, sort_keys=True))
    print(f"workload {workload.name} ({args.size}), seed {args.seed}: "
          f"{report['passes']} passes, {attempted} cell outcomes checked, "
          f"{failed} mismatched")
    for name, metric in metrics.items():
        print(f"  {name:32s} {metric['value']:14.6g} {metric['unit']}")
    print(f"  {'resume_s':32s} {report['resume_s']:14.6g} s (median of "
          f"{sum(len(r.resume_s) for r in untraced)})")
    print(f"  {'failed_frac':32s} {report['failed_frac']:14.6g} ratio "
          f"(cells errored or not ok, of {len(cells_run)})")
    for q, value in report["cell_ms"].items():
        if q != "n":
            print(f"  {'cell_ms.' + q:32s} {value:14.6g} ms (n={len(cell_ms)})")
    for problem in report["mismatches"][:20]:
        print(f"MISMATCH {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


def run_all(args: argparse.Namespace, root: Path) -> int:
    """Every workload in its own process, one after another; the last
    line combines them, with metrics named ``<workload>.<metric>``."""
    from perfbench import suite

    combined: Dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in suite.WORKLOADS:
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--size", args.size,
        ]
        done = subprocess.run(command, cwd=root, capture_output=True, text=True)
        lines = done.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(done.stderr)
        if done.returncode not in (0, 1) or not lines:
            print(f"perfbench: {name} exited {done.returncode}", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        status = max(status, done.returncode)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name from BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measure passes until this many seconds have passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="'smoke' runs the reduced workloads the tests use")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    from perfbench import suite

    if args.workload == "all":
        return run_all(args, root)
    if args.workload not in suite.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"use one of {', '.join(suite.WORKLOADS)} or all")
    return run_workload(args, root)


if __name__ == "__main__":
    sys.exit(main())
