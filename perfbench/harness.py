"""Runs one workload (or all of them, each in a fresh process), turns its
result into the metrics named in BENCHMARK.json, and prints the run record
followed by the one-line JSON result."""

import hashlib
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

import numpy
import scipy

import workloads

LAYER_STATS = ("calls", "busy_s", "p50_ms", "errors", "self_s")


def summarize(setup, steps) -> dict:
    """setup_s, ops_per_s and op latency quantiles from (ops, seconds) samples."""
    op_ms = [1e3 * t / n for n, t in steps]
    return {
        "setup_s": statistics.median(setup),
        "ops_per_s": sum(n for n, _ in steps) / sum(t for _, t in steps),
        "op_p50_ms": statistics.median(op_ms),
        "op_p90_ms": statistics.quantiles(op_ms, n=10, method="inclusive")[8],
    }


def end_to_end(result) -> dict:
    """Host-rescaled figures (see calibration.py) plus peak memory."""
    metrics = summarize([ref for _, ref in result.setup], [(n, ref) for n, _, ref in result.steps])
    metrics["peak_rss_mb"] = result.peak_rss_mb
    return metrics


def per_layer(result) -> dict:
    traced = result.traced
    metrics = {
        f"{boundary}.{stat}": row[stat]
        for boundary, row in traced["layers"].items()
        for stat in LAYER_STATS
    }
    metrics.update(traced["counts"])
    metrics["trace.overhead"] = traced["untraced_ops_per_s"] / traced["traced_ops_per_s"]
    metrics["trace.unattributed_s"] = traced["unattributed_s"]
    return metrics


def source_digest(root) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha(root):
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10, check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(root) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "thread_caps": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "git_sha": git_sha(root),
        "src_sha256": source_digest(root),
    }


def layer_table(layers) -> str:
    lines = [f"{'boundary':<22} {'calls':>7} {'busy_s':>10} {'p50_ms':>10} {'self_s':>10} {'errors':>6}"]
    for name, row in layers.items():
        lines.append(f"{name:<22} {row['calls']:>7} {row['busy_s']:>10.4f} {row['p50_ms']:>10.4f} "
                     f"{row['self_s']:>10.4f} {row['errors']:>6}")
    return "\n".join(lines)


def run(root, args) -> int:
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload == "all":
        return run_all(root, args, spec)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = root / "perfbench" / ".work" / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    ctx = workloads.Context(root, args.seed, args.seconds, work, bool(args.trace))
    try:
        result = workloads.WORKLOADS[args.workload](ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if ctx.tracer:
        result.traced["layers"] = ctx.tracer.summary()

    measured = per_layer(result) if args.trace else end_to_end(result)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    attempted = result.ops + result.traced.get("ops", 0)
    failed = result.failed + result.traced.get("failed", 0)
    correct = failed == 0 and all(result.gates.values())
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": attempted,
        "failed": failed,
        "gates": result.gates,
        "quality": result.quality,
        "steps": len(result.steps),
        "setup_samples": result.setup,
        "wall": summarize([wall for wall, _ in result.setup], [(n, wall) for n, wall, _ in result.steps]),
        "probe_median_s": statistics.median(ctx.clock.probes),
        "environment": environment(root),
    }
    if args.trace:
        record["trace"] = {k: v for k, v in result.traced.items() if k != "layers"}
        record["layers"] = result.traced["layers"]
        print(layer_table(result.traced["layers"]))
    else:
        record["end_to_end"] = measured
    results = root / "perfbench" / "results"
    results.mkdir(exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if ctx.tracer:
        ctx.tracer.dump(results / f"{tag}-spans.json")
    print("# record " + json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(root, args, spec) -> int:
    """Each workload in its own process, so set-up time and peak memory are its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in (w["name"] for w in spec["workloads"]):
        proc = subprocess.run(
            [sys.executable, str(root / "perfbench" / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=root, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            combined["correct"] = False
            continue
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    if status:
        return status
    print(json.dumps(combined))
    return 0
