"""Self-check of the traced run: every layer is seen through its import sites.

    python3 perfbench/selfcheck.py [--seed N]

Runs `run.py --trace 1` once per workload and checks that
  * each run is correct, which includes its workload's predicted zeros
    (run.PREDICTED_ZERO: no numerical-range grid on zero-crosscheck, no
    kernel evaluation or rational form on trace-bound);
  * every per-layer metric of BENCHMARK.json is non-zero on at least one
    workload, so no wrapper silently misses the calls it is meant to time.
Prints the per-layer table (one column per workload) and exits 1 on a miss.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import run


def traced(workload: str, seed: int) -> dict:
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=run.ROOT)
    if proc.returncode != 0:
        sys.exit(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    spec = run.load_spec()
    names = [w["name"] for w in spec["workloads"]]
    results = {w: traced(w, args.seed) for w in names}
    problems = [f"{w}: correct=false ({r['failed']} failed)" for w, r in results.items()
                if not r["correct"]]
    print(f"{'metric':40s}" + "".join(f"{w:>18s}" for w in names))
    for m in spec["per_layer"]:
        vals = [results[w]["metrics"][m["name"]]["value"] for w in names]
        print(f"{m['name']:40s}" + "".join(f"{v:18.6g}" for v in vals))
        if not any(vals):
            problems.append(f"{m['name']} is 0 on every workload")
    for line in problems:
        print("SELF-CHECK FAILED:", line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
