"""Record the benchmark's frozen inputs and reference payload digests.

    python3 perfbench/record.py tail      # writes perfbench/data/tail_measures.json
    python3 perfbench/record.py digests   # writes perfbench/cli_digests.json

Both files were written once, on the commit the benchmark was defined on, and
stay frozen: the tail is a fixed part of the zero-crosscheck inputs, and the
digests are what cli-session compares every payload against.  Re-record the
digests only for a change that is meant to alter payload bytes.
"""

from __future__ import annotations

import json
import sys

import run

run.pin_threads()
workloads = run.import_package()

import numpy as np  # noqa: E402

from blaschke_verify.linalg import polynomial_roots  # noqa: E402
from blaschke_verify.measure import measure_to_jsonable  # noqa: E402
from blaschke_verify.random_instances import random_atomic_measure, spawn_rng  # noqa: E402
from blaschke_verify.transform import CauchyFunction, rational_form  # noqa: E402

TAIL_SEED = 20260822
TAIL_ATOMS = (14, 14, 15, 15, 16, 16)


def conditioned(rng, natoms):
    """random_conditioned_measure's rejection rule at a fixed atom count."""
    while True:
        mu = random_atomic_measure(rng, max_atoms=natoms, min_atoms=natoms)
        roots = polynomial_roots(rational_form(CauchyFunction(source=mu)).numerator)
        mods = np.abs(roots)
        if np.any((mods >= 0.97) & (mods <= 1.03)):
            continue
        d = np.abs(roots[:, None] - roots[None, :]) + 2.0 * np.eye(roots.size)
        if roots.size >= 2 and float(np.min(d)) < 1e-5:
            continue
        return mu


def record_tail():
    measures = [
        measure_to_jsonable(conditioned(spawn_rng(TAIL_SEED, i), n))
        for i, n in enumerate(TAIL_ATOMS)
    ]
    doc = {
        "about": f"conditioned measures, spawn_rng({TAIL_SEED}, i), atoms {list(TAIL_ATOMS)}",
        "measures": measures,
    }
    with open(workloads.data_path("tail_measures.json"), "w") as fh:
        json.dump(doc, fh, indent=1)


def record_digests():
    out = {}
    for s in range(workloads.SUITE_SEEDS):
        out[str(s)] = {
            label: workloads.digest(*workloads.run_cli(argv))
            for label, argv in workloads.cli_commands(s)
        }
    with open(workloads.DIGESTS, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)


if __name__ == "__main__":
    what = sys.argv[1] if len(sys.argv) > 1 else ""
    if what not in ("tail", "digests"):
        sys.exit(__doc__)
    record_tail() if what == "tail" else record_digests()
