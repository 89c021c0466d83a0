"""The three benchmark workloads: inputs, warm-up, and one checked pass.

Every workload draws its inputs from the seed before anything is timed, and
calls the package through module attributes (`zeros.zeros_via_L(...)`), so
that the tracer's rebinding is seen.  A pass returns one timing per instance
and the reason for every failed check; a failure never stops the pass.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import random
import time

from blaschke_verify import bounds, cli, measure, operator_model, zeros
from blaschke_verify.errors import BlaschkeVerifyError
from blaschke_verify.random_instances import (
    random_conditioned_measure,
    random_lowrank_pair,
    spawn_rng,
)
from blaschke_verify.transform import CauchyFunction

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def data_path(name: str) -> str:
    return os.path.join(DATA, name)


def _load_measure(name: str):
    with open(data_path(name)) as fh:
        return measure.measure_from_jsonable(json.load(fh))


@dataclasses.dataclass
class PassResult:
    wall: float
    times: dict  # instance key -> seconds
    failures: list  # (instance key, reason)


def run_pass(instances, check) -> PassResult:
    """Time `check(instance)` on each (key, instance); it returns a failure
    reason or None."""
    times = {}
    failures = []
    t_pass = time.perf_counter()
    for key, inst in instances:
        t0 = time.perf_counter()
        try:
            reason = check(inst)
        except BlaschkeVerifyError as exc:
            reason = f"{type(exc).__name__}: {exc}"
        except Exception as exc:  # a crash inside the package is a failed instance
            reason = f"unexpected {type(exc).__name__}: {exc}"
        times[key] = time.perf_counter() - t0
        if reason is not None:
            failures.append((key, reason))
    return PassResult(time.perf_counter() - t_pass, times, failures)


def _draw_strata(draw, stratum_of, counts: dict, seed: int):
    """Draw instances i = 0, 1, ... from spawn_rng(seed, i) until every
    stratum holds its count; extra draws for full strata are discarded."""
    buckets = {k: [] for k in counts}
    i = 0
    while any(len(buckets[k]) < n for k, n in counts.items()):
        inst = draw(spawn_rng(seed, i))
        k = stratum_of(inst)
        if k in buckets and len(buckets[k]) < counts[k]:
            buckets[k].append((f"seed{seed}/{i}", inst))
        i += 1
    return [item for k in sorted(buckets) for item in buckets[k]]


def _shuffled(instances, seed: int):
    """Instances in a seed-fixed random order, so that a slow spell of the
    machine does not land on one stratum."""
    instances = list(instances)
    random.Random(seed).shuffle(instances)
    return instances


# ---------------------------------------------------------------------------
# zero-crosscheck: acceptance criterion 3

# Atom-count strata in proportion to what random_conditioned_measure(max_atoms=8)
# draws (9000 draws: 22.4, 20.2, 17.5, 14.2, 9.8, 7.1, 5.4, 3.3 %), so the
# set has the gate's atom counts with the between-count variance removed.
ZERO_STRATA = {1: 14, 2: 13, 3: 11, 4: 9, 5: 6, 6: 5, 7: 4, 8: 2}
CAP = 0.999
# the gate's cluster tolerance for the frozen double zero
FIXTURE_CLUSTER_TOL = 1e-5


def _capped(zs):
    return zeros.ZeroSet(
        zeros=tuple((z, m) for z, m in zs.zeros if abs(z) < CAP), method=zs.method
    )


def zero_inputs(seed: int):
    small = _draw_strata(
        lambda rng: random_conditioned_measure(rng, max_atoms=8),
        lambda mu: mu.natoms,
        ZERO_STRATA,
        seed,
    )
    insts = [(key, (mu, 1e-6)) for key, mu in small]
    with open(data_path("tail_measures.json")) as fh:
        tail = json.load(fh)
    for i, obj in enumerate(tail["measures"]):
        insts.append((f"tail/{i}", (measure.measure_from_jsonable(obj), 1e-6)))
    insts.append(("double_zero", (_load_measure("double_zero_measure.json"), FIXTURE_CLUSTER_TOL)))
    return _shuffled(insts, seed)


def zero_check(inst):
    mu, cluster_tol = inst
    f = CauchyFunction(source=mu, mode="shifted")
    roots = zeros.zeros_via_numerator_roots(f)
    eig = zeros.zeros_via_L(
        operator_model.build_system_from_measure(mu), cluster_tol=cluster_tol
    )
    arg = zeros.zeros_via_argument_principle(f, radius=CAP)
    ok_eig, worst_eig = zeros.match_zero_sets(roots, eig, tol=zeros.PAIRING_TOL)
    ok_arg, worst_arg = zeros.match_zero_sets(arg, _capped(roots), tol=zeros.PAIRING_TOL)
    if ok_eig and ok_arg:
        return None
    return f"route mismatch: eigenvalue {worst_eig!r}, contour {worst_arg!r}"


def zero_warm_up():
    zero_check((measure.dirac(-1.0, 1.0), 1e-6))


# ---------------------------------------------------------------------------
# trace-bound: acceptance criterion 5

TRACE_STRATA = {n: 25 for n in range(2, 11)}
THEOREM3_TOL = 1e-7
SCHUR_TOL = 1e-9


def trace_inputs(seed: int):
    pairs = _draw_strata(
        lambda rng: random_lowrank_pair(rng, max_dim=10),
        lambda pair: pair[0].shape[0],
        TRACE_STRATA,
        seed,
    )
    return _shuffled(pairs, seed)


def trace_check(pair):
    A, L = pair
    rep = bounds.check_theorem3(A, L, tol=THEOREM3_TOL)
    chain = bounds.check_schur_chain(A, L, tol=SCHUR_TOL)
    bad = [r.name for r in (rep, chain) if not r.passed]
    bad += [l["name"] for l in chain.details["links"] if l["slack"] < -SCHUR_TOL]
    return f"failed: {', '.join(bad)}" if bad else None


def trace_warm_up():
    trace_check(random_lowrank_pair(spawn_rng(0, 0), max_dim=2))


# ---------------------------------------------------------------------------
# cli-session: the commands users run, in-process with stdout captured

SUITE_INSTANCES = 100
JENSEN_INSTANCES = 20
# payload digests are recorded for these many suite seeds; --seed picks one
SUITE_SEEDS = 16
DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_digests.json")


def cli_commands(seed: int):
    """(label, argv) of one session; the suite seed is seed mod SUITE_SEEDS."""
    s = str(seed % SUITE_SEEDS)
    sharp = data_path("sharp_measure.json")
    double = data_path("double_zero_measure.json")
    system = data_path("dilate_system.json")
    return [
        ("random-suite", ["random-suite", "--which", "all", "--seed", s,
                          "--instances", str(SUITE_INSTANCES)]),
        ("verify-measure/sharp", ["verify-measure", sharp]),
        ("verify-measure/sharp/direct", ["verify-measure", "--mode", "direct", sharp]),
        ("verify-measure/double-zero", ["verify-measure", double]),
        ("verify-measure/double-zero/direct", ["verify-measure", "--mode", "direct", double]),
        ("verify-system", ["verify-system", system]),
        ("dilate", ["dilate", system, "--order", "5"]),
        ("jensen", ["jensen", "--seed", s, "--instances", str(JENSEN_INSTANCES)]),
        ("real-line", ["real-line", data_path("real_line_fixture.json")]),
    ]


def run_cli(argv):
    """(exit code, stdout) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _canonical(obj):
    """Payload with floats cut to 8 significant digits and roundoff below
    1e-9 set to 0, so that last-digit differences between BLAS builds or
    CPUs do not change the digest."""
    if isinstance(obj, dict):
        return {k: _canonical(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_canonical(v) for v in obj]
    if isinstance(obj, float):
        return 0.0 if abs(obj) < 1e-9 else float(f"{obj:.8g}")
    return obj


def digest(code: int, text: str) -> dict:
    canon = json.dumps(_canonical(json.loads(text)), sort_keys=True)
    return {
        "exit": code,
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "canonical_sha256": hashlib.sha256(canon.encode()).hexdigest(),
    }


def cli_inputs(seed: int):
    with open(DIGESTS) as fh:
        recorded = json.load(fh)[str(seed % SUITE_SEEDS)]
    return [(label, (argv, recorded[label])) for label, argv in cli_commands(seed)]


class CliCheck:
    """Checks each command's exit code and payload digest against the record.

    A payload whose raw bytes differ but whose canonical digest matches is
    accepted and counted in `byte_mismatches`; `emitted_bytes` sums stdout.
    """

    def __init__(self):
        self.byte_mismatches = 0
        self.emitted_bytes = 0

    def __call__(self, inst):
        argv, want = inst
        code, text = run_cli(argv)
        self.emitted_bytes += len(text.encode())
        if code != want["exit"]:
            return f"exit code {code}, recorded {want['exit']}"
        got = digest(code, text)
        if got["sha256"] == want["sha256"]:
            return None
        if got["canonical_sha256"] == want["canonical_sha256"]:
            self.byte_mismatches += 1
            return None
        return "payload digest differs from the recorded one"


def cli_warm_up():
    run_cli(["verify-measure", data_path("sharp_measure.json")])


@dataclasses.dataclass(frozen=True)
class Workload:
    inputs: object  # seed -> [(key, instance)]
    make_check: object  # () -> check(instance) -> failure reason or None
    warm_up: object


WORKLOADS = {
    "zero-crosscheck": Workload(zero_inputs, lambda: zero_check, zero_warm_up),
    "trace-bound": Workload(trace_inputs, lambda: trace_check, trace_warm_up),
    "cli-session": Workload(cli_inputs, CliCheck, cli_warm_up),
}

