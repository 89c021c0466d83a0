"""Command line front end.

Subcommands load measure or system JSON, run single checks or seeded random
suites, and emit a JSON payload on stdout (reports plus a summary); stderr
carries diagnostics and replay dumps of failed instances.  Exit code 0 means
every check passed, 1 means a check failed or a numerical procedure gave up,
2 means the input could not be parsed, violated a precondition or asked for
more memory than there is, and 141 means stdout or stderr was closed before
the output was written, as for a process killed by SIGPIPE.

Output is byte-identical for identical (seed, flags, input): instance k of a
suite draws from its own generator keyed by (seed, k), so it does not depend
on which process runs it (on Linux random-suite forks one helper process,
which runs the odd-indexed instances and pickles its rows back through a
pipe; if the helper dies or is killed, the run exits 1).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import pickle
import sys

import numpy as np

from .bounds import (
    BLASCHKE_TOL,
    JENSEN_TOL,
    REAL_LINE_TOL,
    SCHUR_LINK_TOL,
    BoundReport,
    check_corollary,
    check_jensen_h1,
    check_real_line_variant,
    check_schur_chain,
    check_theorem1,
    check_theorem2,
    check_theorem3,
    summarize,
)
from .codec import (
    complex_to_json,
    line_atoms_from_jsonable,
    line_atoms_to_jsonable,
    matrix_to_json,
)
from .dilation import TAYLOR_TOL, dilate, roundtrip_check, roundtrip_report
from .errors import BlaschkeVerifyError, InputError
from .measure import measure_from_jsonable, measure_to_jsonable, shift_measure
from .operator_model import (
    ContractionSystem,
    build_system_from_measure,
    eval_h_resolvent,
    perturbation_determinant,
    system_from_jsonable,
    system_to_jsonable,
)
from .random_instances import (
    MIN_PAIR_DIM,
    random_atomic_measure,
    random_lowrank_pair,
    random_real_line_atoms,
    random_polynomial_with_unit_constant,
    random_system,
    spawn_rng,
)
from .transform import CauchyFunction
from .zeros import (
    CONTOUR_CAP,
    PAIRING_TOL,
    ZeroSet,
    match_zero_sets,
    unpaired_zeros,
    zeros_via_argument_principle,
    zeros_via_L,
    zeros_via_numerator_roots,
)

DETERMINANT_TOL = 1e-11

_TOL_DEFAULTS = {
    "blaschke": BLASCHKE_TOL,
    "schur": SCHUR_LINK_TOL,
    "jensen": JENSEN_TOL,
    "realline": REAL_LINE_TOL,
    "pairing": PAIRING_TOL,
    "determinant": DETERMINANT_TOL,
    "taylor": TAYLOR_TOL,
}


def _parse_tols(pairs, names) -> dict:
    tols = {}
    for item in pairs or []:
        name, sep, val = item.partition("=")
        if not sep or name not in names:
            raise InputError(f"bad --tol {item!r}; use NAME=VALUE with NAME in {sorted(names)}")
        try:
            tols[name] = float(val)
        except ValueError:
            tols[name] = math.nan
        if not math.isfinite(tols[name]):
            raise InputError(f"bad --tol value in {item!r}; it must be a finite number")
    return tols


def _too_large(dim: int) -> bool:  # a dim x dim complex array, past numpy's size limit
    return dim * dim * np.dtype(complex).itemsize > np.iinfo(np.intp).max


def _check_counts(args):
    """Sizes and order must be positive and fit numpy arrays; seed and count not negative."""
    lows = {"max_atoms": 1, "max_dim": 1, "order": 1, "seed": 0, "instances": 0}
    for name, low in lows.items():
        value = getattr(args, name, None)
        if value is None:  # a flag the subcommand does not take
            continue
        flag = "--" + name.replace("_", "-")
        if value < low:
            raise InputError(f"{flag} must be >= {low}, got {value}")
        if name.startswith("max_") and _too_large(value):
            raise InputError(f"{flag} {value}: a {value}x{value} model is too large to allocate")
    if getattr(args, "which", "") in ("thm3", "schur", "all") and args.max_dim < MIN_PAIR_DIM:
        raise InputError(
            f"--max-dim must be >= {MIN_PAIR_DIM} for the thm3 and schur suites, got {args.max_dim}"
        )


def _tol(args, name: str) -> float:
    return args.tols.get(name, _TOL_DEFAULTS[name])


def _rows(reports) -> list:
    """Payload rows: each report's row, then one row per chain link, named parent/link."""
    rows = []
    for r in reports:
        row = r.to_jsonable()
        rows.append(row)
        rows += [{**l, "name": f"{row['name']}/{l['name']}", "details": {}}
                 for l in row["details"].get("links", [])]
    return rows


def _emit(args, command: str, reports) -> int:
    rows = _rows(reports)
    payload = {"command": command, "reports": rows, "summary": summarize(rows)}
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    if getattr(args, "csv_out", None):  # first, so an unwritable path prints nothing
        with open(args.csv_out, "w") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["name", "lhs", "rhs", "slack", "tol", "pass", "details"])
            for r in rows:
                writer.writerow([r["name"], *(repr(r[k]) for k in ("lhs", "rhs", "slack", "tol")),
                                 r["pass"], json.dumps(r["details"], sort_keys=True)])
    print(text)
    sys.stdout.flush()  # a closed stdout raises here, inside main's try
    return 0 if all(r["pass"] for r in rows) else 1


def _dump_failure(command: str, payload: dict):
    print(json.dumps({"failed": command, **payload}, sort_keys=True), file=sys.stderr)


def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError:
            raise
        except (ValueError, RecursionError) as exc:  # not UTF-8, too many digits or too deep
            raise InputError(f"{path}: {exc}") from None


def _with_detail(report: BoundReport, **extra) -> BoundReport:
    return dataclasses.replace(report, details={**report.details, **extra})


# ---------------------------------------------------------------------------
# three-way zero agreement


def _agreement_report(name, a: ZeroSet, b: ZeroSet, tol: float) -> BoundReport:
    matched, lhs = match_zero_sets(a, b, tol=tol)
    details = {"methods": [a.method, b.method], "counts": [a.count, b.count], "matched": matched}
    if not matched:
        sides = unpaired_zeros(a, b, tol)
        details["unpaired"] = [[{**complex_to_json(z), "multiplicity": m} for z, m, _ in side]
                               for side in sides]
        # lhs: the farthest unpaired zero.  If none is unpaired (the counts or
        # multiplicities differ with every zero within tol) or the other set is
        # empty, no distance fails the row, and the sentinel tol + 1.0 does.
        lhs = max((d for side in sides for _, _, d in side if d < math.inf), default=tol + 1.0)
    return BoundReport(name=name, lhs=lhs, rhs=tol, tol=0.0, details=details)


# ---------------------------------------------------------------------------
# subcommands


def cmd_verify_measure(args) -> int:
    mu = measure_from_jsonable(_load_json(args.path))
    tol = _tol(args, "blaschke")
    # one run of each route: the bound's zero set is one side of zeros-eigenvalue-vs-roots
    if args.mode == "shifted":
        main = check_theorem2(mu, tol=tol)
        f = CauchyFunction(source=mu, mode="shifted")
        eig, roots = main.zeros, zeros_via_numerator_roots(f)
    else:
        main = check_corollary(mu, tol=tol)
        f = CauchyFunction(source=mu, mode="direct")
        eig, roots = zeros_via_L(build_system_from_measure(shift_measure(mu))), main.zeros
    arg = zeros_via_argument_principle(f, radius=CONTOUR_CAP)
    pairing = _tol(args, "pairing")
    reports = [
        main,
        _agreement_report("zeros-eigenvalue-vs-roots", eig, roots, pairing),
        _agreement_report("zeros-contour-vs-roots", arg, roots.within(arg.radius), pairing),
    ]
    return _emit(args, "verify-measure", reports)


def _determinant_report(s: ContractionSystem, tol: float) -> BoundReport:
    lams = 2.0 * np.exp(2j * np.pi * np.arange(6) / 6 + 0.1j)
    worst = 0.0
    pts = []
    for lam in lams:
        d1 = perturbation_determinant(s, lam, method="rank1")
        d2 = perturbation_determinant(s, lam, method="lu")
        d3 = eval_h_resolvent(s, 1.0 / lam)
        scale = max(1.0, abs(d1))
        rel = max(abs(d1 - d2), abs(d1 - d3)) / scale
        worst = max(worst, rel)
        pts.append({**complex_to_json(lam), "rel_spread": rel})
    return BoundReport(
        name="determinant-identity",
        lhs=worst,
        rhs=tol,
        tol=0.0,
        details={"points": pts},
    )


def cmd_verify_system(args) -> int:
    s = system_from_jsonable(_load_json(args.path))
    reports = [
        check_theorem1(s, tol=_tol(args, "blaschke")),
        _determinant_report(s, _tol(args, "determinant")),
    ]
    return _emit(args, "verify-system", reports)


_SUITES = ("thm1", "thm2", "thm3", "schur", "dilation", "realline")


def _suite_instance(which: str, args, index: int):
    """One (report, build) pair, deterministic in (seed, index): build()
    returns the instance payload, which only a failed instance needs."""
    rng = spawn_rng(args.seed, index)
    if which == "thm1":
        s = random_system(rng, max_dim=args.max_dim)
        return check_theorem1(s, tol=_tol(args, "blaschke")), lambda: system_to_jsonable(s)
    if which == "thm2":
        mu = random_atomic_measure(rng, max_atoms=args.max_atoms)
        return check_theorem2(mu, tol=_tol(args, "blaschke")), lambda: measure_to_jsonable(mu)
    if which in ("thm3", "schur"):
        A, L = random_lowrank_pair(rng, max_dim=args.max_dim)
        if which == "thm3":
            rep = check_theorem3(A, L, tol=_tol(args, "blaschke"))
        else:
            rep = check_schur_chain(A, L, tol=_tol(args, "schur"))
        return rep, lambda: {"A": matrix_to_json(A), "L": matrix_to_json(L)}
    if which == "dilation":
        s = random_system(rng, max_dim=min(5, args.max_dim))
        N = int(rng.integers(1, 11))
        rep = roundtrip_check(s, N, taylor_tol=_tol(args, "taylor"))
        return rep, lambda: {"system": system_to_jsonable(s), "order": N}
    if which == "realline":
        atoms = random_real_line_atoms(rng, max_atoms=min(args.max_atoms, 6))
        rep = check_real_line_variant(atoms, tol=_tol(args, "realline"))
        return rep, lambda: line_atoms_to_jsonable(atoms)
    raise InputError(f"unknown suite {which!r}")


def _suite_rows(suites, args, indices) -> list:
    """Per index, in order, one (report, payload) pair per suite, the payload
    built only when that instance failed.  An error other than a
    BlaschkeVerifyError ends the list in place of its index's pairs, so the
    caller raises the first one in index order, as a serial run would."""
    rows = []
    for index in indices:
        pairs = []
        for which in suites:
            try:
                report, build = _suite_instance(which, args, index)
            except BlaschkeVerifyError as exc:
                msg = str(exc)  # exc is unbound once the except block ends
                build = lambda: {"error": msg}
                report = BoundReport(
                    name=f"{which}-instance-error",
                    lhs=1.0,
                    rhs=0.0,
                    tol=0.0,
                    details={"error": msg},
                )
            except Exception as exc:  # MemoryError and the like, raised by _run_suite
                rows.append(exc)
                return rows
            report = _with_detail(report, suite=which, instance=index)
            failed = not all(row["pass"] for row in _rows([report]))
            pairs.append((report, build() if failed else None))
        rows.append(pairs)
    return rows


def _run_suite(suites, args):
    """Reports of every selected suite, suite by suite, each in index order.

    On Linux one helper process, forked with os.fork, runs the odd indices
    while the calling process runs the even ones, and the halves merge by
    index; the output does not depend on it.  The helper pickles its rows
    into a pipe and leaves through os._exit, with status 0 only once the
    whole pickle is written, so it never returns into main or flushes the
    stdio buffers it inherited.  The caller reads the pipe to its end and
    reaps the helper; a nonzero status or a signal raises
    BlaschkeVerifyError.  An exception out of the caller's half, an
    interrupt included, kills and reaps the helper before it propagates.

    Every suite given (callers keep _SUITES order) runs for index k before
    any runs for k + 2 in the same process, so thm3 and schur of one pair
    run back to back and share its numerical-range grid.  An instance
    payload is kept only when that instance failed (only then is it built);
    its replay dump goes to stderr in report order.
    """
    n = args.instances
    if sys.platform != "linux" or n < 2:
        halves = [_suite_rows(suites, args, range(n))]
    else:
        # fork, not spawn, because a fresh interpreter's imports cost about
        # what the helper saves; signal is imported here, so that no other
        # subcommand pays for it
        import signal

        for stream in (sys.stdout, sys.stderr):  # nothing buffered is copied into the helper
            stream.flush()
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:  # the helper: it leaves only through os._exit, 0 once all is written
            status = 1
            try:
                os.close(read_end)  # so a write fails, not blocks, once the caller is gone
                with open(write_end, "wb") as pipe:
                    pickle.dump(_suite_rows(suites, args, range(1, n, 2)), pipe)
                status = 0
            finally:
                os._exit(status)
        os.close(write_end)
        with open(read_end, "rb") as pipe:
            try:
                even = _suite_rows(suites, args, range(0, n, 2))
                odd = pipe.read()
            except BaseException:  # an interrupt, say: end the helper rather than wait for it
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                raise
        if os.waitpid(pid, 0)[1] != 0:  # a nonzero exit or a signal
            raise BlaschkeVerifyError(
                "the suite helper process died before returning the odd-indexed instances"
            )
        halves = [even, pickle.loads(odd)]
    runs = [[] for _ in suites]
    for index in range(n):
        pairs = halves[index % len(halves)][index // len(halves)]
        if isinstance(pairs, Exception):
            raise pairs
        for out, pair in zip(runs, pairs):
            out.append(pair)
    reports = []
    for which, out in zip(suites, runs):
        for index, (report, inst) in enumerate(out):
            reports.append(report)
            if inst is not None:
                _dump_failure(
                    which, {"seed": args.seed, "index": index, "instance": inst}
                )
    return reports


def cmd_random_suite(args) -> int:
    suites = list(_SUITES) if args.which == "all" else [args.which]
    return _emit(args, "random-suite", _run_suite(suites, args))


def cmd_dilate(args) -> int:
    s = system_from_jsonable(_load_json(args.path))
    dim = (args.order + 1) * s.n
    if _too_large(dim):
        raise InputError(f"--order {args.order}: a {dim}x{dim} dilation is too large to allocate")
    d = dilate(s.A, args.order)
    moment_errs = []
    Uk = np.eye(d.dim, dtype=complex)
    ephi = d.embed @ s.phi
    epsi = d.embed @ s.psi
    for Ak in d.powers:
        want = complex(np.vdot(s.psi, Ak @ s.phi))
        got = complex(np.vdot(epsi, Uk @ ephi))
        moment_errs.append(abs(want - got))
        Uk = Uk @ d.U
    rep = roundtrip_report(s, d, taylor_tol=_tol(args, "taylor"))
    rep = _with_detail(
        rep, unitarity_residual=d.unitarity_residual, moment_errors=moment_errs
    )
    return _emit(args, "dilate", [rep])


def cmd_jensen(args) -> int:
    tol = _tol(args, "jensen")
    reports = [check_jensen_h1([1.0, -2.0], tol=tol)]
    for index in range(args.instances):
        rng = spawn_rng(args.seed, index)
        coeffs = random_polynomial_with_unit_constant(rng)
        rep = check_jensen_h1(coeffs, tol=tol)
        reports.append(_with_detail(rep, instance=index))
    return _emit(args, "jensen", reports)


def cmd_real_line(args) -> int:
    atoms = line_atoms_from_jsonable(_load_json(args.path))
    return _emit(args, "real-line", [check_real_line_variant(atoms, tol=_tol(args, "realline"))])


# ---------------------------------------------------------------------------
# parser


# add_argument keywords of every flag but --tol
_FLAGS = {
    "path": {},
    "--mode": {"choices": ("direct", "shifted"), "default": "shifted"},
    "--which": {"choices": _SUITES + ("all",), "default": "all"},
    "--order": {"type": int, "default": 6},
    "--seed": {"type": int, "default": 42, "help": "suite RNG seed"},
    "--instances": {"type": int, "default": 100, "help": "suite size"},
    "--max-atoms": {"type": int, "default": 8},
    "--max-dim": {"type": int, "default": 10},
    "--csv-out": {"help": "flat CSV of all reports"},
}

# name: handler, help, and the only --tol names and flags the subcommand takes
_COMMANDS = {
    "verify-measure": (cmd_verify_measure, "check a measure file", "blaschke pairing",
                       "path --mode"),
    "verify-system": (cmd_verify_system, "check a system file", "blaschke determinant", "path"),
    "random-suite": (cmd_random_suite, "seeded random suites", "blaschke realline schur taylor",
                     "--which --seed --instances --max-atoms --max-dim"),
    "dilate": (cmd_dilate, "dilation round trip on a system", "taylor", "path --order"),
    "jensen": (cmd_jensen, "boundary-integral chains", "jensen", "--seed --instances"),
    "real-line": (cmd_real_line, "half-plane variant", "realline", "path"),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="blaschke-verify",
        description="numerical checks for disk zero bounds of Cauchy transforms",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, (func, about, tols, flags) in _COMMANDS.items():
        c = sub.add_parser(name, help=about)
        for flag in flags.split() + ["--csv-out"]:
            c.add_argument(flag, **_FLAGS[flag])
        c.add_argument("--tol", action="append", metavar="NAME=VAL",
                       help=f"tolerance override; names: {', '.join(tols.split())}")
        c.set_defaults(func=func, tol_names=tols.split())
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.tols = _parse_tols(args.tol, args.tol_names)
        _check_counts(args)
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # a reader is gone: point the closed stream at devnull so the flush
        # at exit cannot raise again (the SIGPIPE recipe of the signal
        # module docs); a healthy stream flushes and stays as it is
        for stream in (sys.stdout, sys.stderr):
            try:
                stream.flush()
            except BrokenPipeError:
                os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
        return 141
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"input error: {str(exc) or 'out of memory'}; lower the size flags", file=sys.stderr)
        return 2
    except BlaschkeVerifyError as exc:
        print(f"check failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
