"""Run one workload over several seeds and summarise each end-to-end metric.

    python3 perfbench/repeat.py --workload trace-bound --seeds 1 2 3 4 5 6 7 8 9 10

Each seed is one fresh `run.py --trace 0` process, run one after another.
Prints every run, then per metric the median, the first and third quartile
(statistics.quantiles, n=4) and the spread: (Q3 - Q1) / median.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import run


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--seconds", type=int, default=run.load_spec()["run_seconds"])
    args = p.parse_args()
    values: dict = {}
    ok = True
    for seed in args.seeds:
        cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=run.ROOT)
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: run.py exited {proc.returncode}\n{proc.stderr}")
        result = json.loads(proc.stdout.splitlines()[-1])
        ok = ok and result["correct"]
        shown = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} {shown}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vals in values.items():
        if len(vals) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        print(f"{name:18s} median {med:.6g}  Q1 {q1:.6g}  Q3 {q3:.6g}  spread {(q3 - q1) / med:.3f}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
