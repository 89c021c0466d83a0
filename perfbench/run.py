"""Benchmark of blaschke-verify: one workload per run, checked and timed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src.  The last
line of stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  With --trace 0 the metrics are the end-to-end ones declared in
BENCHMARK.json; with --trace 1 they are the per-layer ones, from one untraced
and one traced pass.  Details (per-pass walls, failures, spans) go to
.perfbench_out/ in the repository root.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

# workloads and tracing load numpy, so they are imported only
# after pin_threads() has set the thread variables
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

SETUP_REPEATS = 5
POOL_THREADS = 2
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# the tail percentile leaves this many per-instance times beyond it
TAIL_BEYOND = 10

# Structural zeros of the traced run: a non-zero value means the workload or
# the tracer no longer does what the benchmark claims.
PREDICTED_ZERO = {
    "zero-crosscheck": ["linalg.nr_grid_builds", "linalg.nr_distance_calls"],
    "trace-bound": [
        "transform.kernel_calls",
        "transform.kernel_points",
        "transform.kernel_point_atoms",
        "transform.rational_form_calls",
        "zeros.contours",
    ],
    "cli-session": [],
}


def pin_threads() -> dict:
    """Fix thread counts before numpy loads.

    BLAS and OpenMP run single-threaded: every matrix here is small, and the
    CLI suite already runs instances on a pool of min(2, nproc) threads.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ[var] = "1"
    os.environ["BLASCHKE_VERIFY_THREADS"] = str(min(POOL_THREADS, nproc))
    return {var: os.environ[var] for var in BLAS_VARS + ("BLASCHKE_VERIFY_THREADS",)}


def import_package():
    sys.path.insert(0, SRC)
    import blaschke_verify

    if not os.path.abspath(blaschke_verify.__file__).startswith(SRC + os.sep):
        raise ImportError(f"blaschke_verify came from {blaschke_verify.__file__}, not {SRC}")
    import workloads

    return workloads


def probe_setup(workload: str) -> float:
    """Seconds for `import blaschke_verify` plus one warm-up call, measured
    inside a fresh interpreter."""
    t0 = time.perf_counter()
    workloads = import_package()
    workloads.WORKLOADS[workload].warm_up()
    return time.perf_counter() - t0


def setup_times(workload: str) -> list:
    """probe_setup() in SETUP_REPEATS fresh interpreters, one after another."""
    cmd = [sys.executable, os.path.abspath(__file__), "--probe-setup", "--workload", workload]
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def tail(values: list):
    """(value, percentile): the highest percentile with TAIL_BEYOND samples
    beyond it, or the maximum when there are too few samples for one."""
    vals = sorted(values)
    n = len(vals)
    if n <= TAIL_BEYOND:
        return vals[-1], 100.0
    return vals[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def untraced_run(workloads, name, instances, seconds, detail) -> tuple:
    """Repeat passes until another would overrun `seconds` (at least one)."""
    check = workloads.WORKLOADS[name].make_check()
    walls, failures = [], []
    per_instance: dict = {}
    start = time.perf_counter()
    while True:
        res = workloads.run_pass(instances, check)
        walls.append(res.wall)
        failures.extend(res.failures)
        for key, t in res.times.items():
            per_instance.setdefault(key, []).append(t)
        if time.perf_counter() - start + res.wall > seconds:
            break
    medians = {key: statistics.median(ts) for key, ts in per_instance.items()}
    tail_value, tail_pct = tail(list(medians.values()))
    slowest = sorted(medians, key=medians.get, reverse=True)[: TAIL_BEYOND + 5]
    detail.update(
        passes=len(walls),
        instances=len(medians),
        instance_p50_ms=1e3 * statistics.median(medians.values()),
        instance_tail_ms=1e3 * tail_value,
        instance_tail_percentile=tail_pct,
        pass_walls=walls,
        slowest_ms={key: 1e3 * medians[key] for key in slowest},
        failures=failures[:50],
        byte_mismatches=getattr(check, "byte_mismatches", 0),
    )
    # host interference only ever adds time: take the lower-quartile pass
    # (the fastest of fewer than four), not the median, which lets slow
    # spells in
    metrics = {"wall_s": sorted(walls)[len(walls) // 4]}
    return metrics, len(walls) * len(instances), len(failures)


def traced_run(workloads, name, instances, seconds, detail) -> tuple:
    """One untraced pass, then traced passes; per-layer metrics of the traced
    threaded pass, plus a single-thread pass on cli-session.  `seconds` is
    not used: the traced run always makes exactly these passes."""
    import tracing

    w = workloads.WORKLOADS[name]
    base = workloads.run_pass(instances, w.make_check())
    tracer = tracing.Tracer()
    tracer.install()
    spans_path = os.path.join(OUT, f"{name}-seed{detail['seed']}-spans.jsonl")
    if os.path.exists(spans_path):
        os.remove(spans_path)
    try:
        check = w.make_check()
        res = workloads.run_pass(instances, check)
        metrics = tracing.layer_metrics(tracer)
        tracer.dump(spans_path, "threaded")
        metrics["cli.emit_bytes"] = getattr(check, "emitted_bytes", 0)
        metrics["cli.pool_parallelism_1thread"] = 0.0
        metrics["cli.suite_wall_1thread_s"] = 0.0
        failures = base.failures + res.failures
        if name == "cli-session":
            threads = os.environ["BLASCHKE_VERIFY_THREADS"]
            os.environ["BLASCHKE_VERIFY_THREADS"] = "1"
            tracer.reset()
            try:
                single = workloads.run_pass(instances, w.make_check())
            finally:
                os.environ["BLASCHKE_VERIFY_THREADS"] = threads
            one = tracing.layer_metrics(tracer)
            tracer.dump(spans_path, "single-thread")
            metrics["cli.pool_parallelism_1thread"] = one["cli.pool_parallelism"]
            metrics["cli.suite_wall_1thread_s"] = one["cli.suite_wall_s"]
            failures += single.failures
    finally:
        tracer.uninstall()
    metrics["trace.untraced_wall_s"] = base.wall
    metrics["trace.wall_s"] = res.wall
    metrics["trace.overhead_s"] = res.wall - base.wall
    broken = [k for k in PREDICTED_ZERO[name] if metrics[k] != 0]
    detail.update(
        failures=failures[:50],
        missing_wrappers=tracer.missing,
        predicted_zero_violations=broken,
        spans_file=os.path.relpath(spans_path, ROOT),
    )
    passes = 3 if name == "cli-session" else 2
    return metrics, passes * len(instances), len(failures) + len(broken)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1, help="input seed (taken mod 2**64)")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    args.seed %= 1 << 64
    env = pin_threads()
    if args.probe_setup:
        print(probe_setup(args.workload))
        return 0
    try:
        spec = load_spec()
        workloads = import_package()
    except (OSError, ImportError) as exc:
        print(f"perfbench: cannot start: {exc}", file=sys.stderr)
        return 1
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env}
    setup = [] if args.trace else setup_times(args.workload)
    instances = workloads.WORKLOADS[args.workload].inputs(args.seed)
    workloads.WORKLOADS[args.workload].warm_up()
    run = traced_run if args.trace else untraced_run
    metrics, attempted, failed = run(workloads, args.workload, instances, args.seconds, detail)
    if not args.trace:
        metrics["setup_s"] = statistics.median(setup)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        detail["setup_runs"] = setup
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    if set(metrics) != {m["name"] for m in declared}:
        print(f"perfbench: metrics differ from BENCHMARK.json: "
              f"{sorted(set(metrics) ^ {m['name'] for m in declared})}", file=sys.stderr)
        return 1
    detail.update(metrics=metrics, attempted=attempted, failed=failed,
                  failed_share=failed / attempted)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(detail, fh, indent=1, default=str)
    summary = {k: v for k, v in detail.items()
               if k not in ("metrics", "pass_walls", "setup_runs", "slowest_ms")}
    print(json.dumps(summary, default=str))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
