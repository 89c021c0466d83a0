"""End-to-end CLI behavior: schemas, exit codes, determinism."""

import contextlib
import csv
import json
import math
import os
import pathlib
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

import blaschke_verify
from blaschke_verify import bounds, cli
from blaschke_verify.cli import main
from blaschke_verify.bounds import check_corollary, check_theorem2
from blaschke_verify.linalg import NumericalRangeSupport
from blaschke_verify.measure import measure_from_jsonable
from blaschke_verify.operator_model import build_system_from_measure
from blaschke_verify.transform import CauchyFunction
from blaschke_verify.zeros import (
    ZeroSet,
    zeros_via_argument_principle,
    zeros_via_L,
    zeros_via_numerator_roots,
)

from conftest import DATA

SHARP = "tests/data/sharp_measure.json"


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _fresh_env(**env):
    """This environment with env added and this package first on the path."""
    src = str(pathlib.Path(blaschke_verify.__file__).resolve().parents[1])
    return dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def _fresh_interpreter(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, **env):
    """Run python with args from the repository root, this package first on the path."""
    return subprocess.run(
        [sys.executable, *args], stdout=stdout, stderr=stderr, text=True, env=_fresh_env(**env),
        cwd=pathlib.Path(__file__).resolve().parents[1], timeout=120,
    )


_RUN_EACH = (
    "import contextlib, io, json, sys\n"
    "from blaschke_verify.cli import main\n"
    "runs = []\n"
    "for argv in json.loads(sys.argv[1]):\n"
    "    out, err = io.StringIO(), io.StringIO()\n"
    "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
    "        runs.append([main(argv), out.getvalue(), err.getvalue()])\n"
    "print(json.dumps(runs))\n"
)


def _main_in_one_interpreter(argvs, **env):
    """(code, stdout, stderr) of main on each argv, in turn, in one fresh
    interpreter with the given environment and every warning an error."""
    done = _fresh_interpreter(["-W", "error", "-c", _RUN_EACH, json.dumps(argvs)], **env)
    assert done.returncode == 0, done.stderr
    return [tuple(r) for r in json.loads(done.stdout)]


def test_verify_measure_sharp(capsys, data_dir):
    code, out, err = run(capsys, ["verify-measure", str(data_dir / "sharp_measure.json")])
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "verify-measure"
    assert payload["summary"]["failed"] == 0
    names = [r["name"] for r in payload["reports"]]
    assert "shifted-transform-zero-bound" in names
    for r in payload["reports"]:
        assert set(r) == {"name", "lhs", "rhs", "slack", "tol", "pass", "details"}


def test_verify_measure_direct_mode(capsys, data_dir):
    # the double-zero measure has mass exactly one, so direct mode applies
    code, out, _ = run(
        capsys,
        ["verify-measure", str(data_dir / "double_zero_measure.json"), "--mode", "direct"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["failed"] == 0
    names = [r["name"] for r in payload["reports"]]
    assert "direct-transform-zero-bound" in names


@pytest.mark.parametrize(
    "obj, mode",
    [
        ({"atoms": []}, "shifted"),
        ({"atoms": [], "lebesgue": {"re": 1.0, "im": 0.0}}, "direct"),
    ],
)
def test_atomless_measure_gets_every_row(capsys, tmp_path, obj, mode):
    # h is constant: the three routes agree on no zeros, through the 0 x 0 model
    path = tmp_path / "atomless.json"
    path.write_text(json.dumps(obj))
    code, out, _ = run(capsys, ["verify-measure", str(path), "--mode", mode])
    assert code == 0
    rows = json.loads(out)["reports"]
    assert [r["name"] for r in rows[1:]] == ["zeros-eigenvalue-vs-roots", "zeros-contour-vs-roots"]
    assert all(r["pass"] for r in rows)
    assert rows[1]["lhs"] == 0.0 and rows[1]["details"]["counts"] == [0, 0]


@pytest.mark.parametrize("mode", ["shifted", "direct"])
@pytest.mark.parametrize("name", ["double_zero_measure", "measure_32_atoms"])
def test_verify_measure_runs_each_route_once(capsys, data_dir, name, mode):
    # counted on the code objects, so a call made inside bounds counts too;
    # the bound's own zero set is one side of zeros-eigenvalue-vs-roots
    routes = (zeros_via_L, zeros_via_numerator_roots, zeros_via_argument_principle)
    names = {r.__code__: r.__name__ for r in routes}
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in names:
            calls.append(names[frame.f_code])

    path = data_dir / f"{name}.json"
    sys.setprofile(profile)
    try:
        code, _, _ = run(capsys, ["verify-measure", str(path), "--mode", mode])
    finally:
        sys.setprofile(None)
    assert code == 0
    assert sorted(calls) == sorted(names.values())
    mu = measure_from_jsonable(json.loads(path.read_text()))
    if mode == "shifted":
        report = check_theorem2(mu)
        assert report.zeros == zeros_via_L(build_system_from_measure(mu))
    else:
        report = check_corollary(mu)
        assert report.zeros == zeros_via_numerator_roots(CauchyFunction(source=mu, mode="direct"))
    assert set(report.to_jsonable()) == {"name", "lhs", "rhs", "slack", "tol", "pass", "details"}


def test_contour_and_roots_agree_at_the_certified_radius(capsys, data_dir):
    # direct_with_zeros([0.9990001 e^{0.7i}, 0.2 + 0.1i, -0.3 + 0.4i],
    # [1, i, -1]) scaled to unit mass: the top contour is nudged outward past
    # the zero at |z| = 0.9990001, so the roots must be cut at the nudged
    # radius, not at CONTOUR_CAP, or they count 2 zeros against 3
    code, out, _ = run(
        capsys,
        ["verify-measure", str(data_dir / "near_cap_measure.json"), "--mode", "direct"],
    )
    assert code == 0
    reports = {r["name"]: r for r in json.loads(out)["reports"]}
    contour = reports["zeros-contour-vs-roots"]
    assert contour["pass"] and contour["details"]["counts"] == [3, 3]


# passing runs on the inputs where a route or check could warn, each of which
# must exit 0 with a silent stderr; pyproject's filterwarnings makes every
# warning an error, so a bare warnings.warn or a numpy RuntimeWarning fails.
# The BLAS-thread and hash-seed tests hold the same check, under -W error,
# for --which all, sharp and double_zero, and each other subcommand's fixture
_CLEAN_RUNS = {
    # the dilation suite's draw and round trip, and the real-line suite's
    # rank-one factors
    "dilation": "random-suite --which dilation --instances 100",
    "realline": "random-suite --which realline --instances 50",
    "schur": "random-suite --which schur --instances 20",
    # many numerical-range distances, so a 0/0 in the secant or in a segment
    # distance fails here
    "thm3-200": "random-suite --which thm3 --instances 200",
    "schur-200": "random-suite --which schur --instances 200",
    # up to 30 x 30, where the 32-angle boundary polygon is coarsest and the
    # refinement does the most steps
    "thm3-dim30": "random-suite --which thm3 --max-dim 30 --instances 40",
    "schur-dim30": "random-suite --which schur --max-dim 30 --instances 40",
    # measure_32_atoms: the contour route reads all 18 to 29 zeros off the top
    # circle's Hankel pencil and Newton steps, so a large reading that
    # overflows or divides by zero fails; near_duplicate_atoms: atoms 4e-13 to
    # 1.5e-12 apart merge, one pair cancels exactly, and signed-zero points
    # are snapped to the circle
    **{f"{m}-{mode}": f"verify-measure {m}.json --mode {mode}"
       for m in ("measure_32_atoms", "near_duplicate_atoms") for mode in ("shifted", "direct")},
}


@pytest.mark.parametrize("line", list(_CLEAN_RUNS.values()), ids=list(_CLEAN_RUNS))
def test_cli_run_is_clean(capsys, line):
    argv = [str(DATA / a) if a.endswith(".json") else a for a in line.split()]
    code, _, err = run(capsys, argv)
    assert code == 0 and err == ""


# ROADMAP item 12c: measure_32_atoms with each weight's re and im multiplied
# by 1e4, and dilate_system with each phi entry multiplied by 1e4 (Python
# floats, x * 1e4).  Each bound passes; the oracle fails: route 1 merges two
# zeros (zeros-eigenvalue-vs-roots counts 20 and 19), and determinant-identity
# reads 2.05e-11 against its absolute 1e-11.  Item 12 makes them
# test_cli_run_is_clean cases.
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 12: an oracle's false failure "
                   "on a rescaled input")
@pytest.mark.parametrize("line", ["verify-measure measure_32_atoms_x1e4.json",
                                  "verify-system dilate_system_phi_x1e4.json"],
                         ids=["measure_32_atoms_x1e4", "dilate_system_phi_x1e4"])
def test_rescaled_input_is_clean(capsys, line):
    test_cli_run_is_clean(capsys, line)


@pytest.mark.parametrize("mode", ["shifted", "direct"])
def test_measure_64_atoms_leaves_zeros_unpaired(capsys, mode):
    # the numerator roots find 33 zeros, 32 or 33 of them inside the contour's
    # radius, for the 30 (shifted) or 28 (direct) of the eigenvalue route
    # (ROADMAP item 3): exactly the two agreement rows fail, each naming the
    # zeros it leaves unpaired, with exit 1 and a silent stderr
    code, out, err = run(capsys, ["verify-measure", str(DATA / "measure_64_atoms.json"),
                                  "--mode", mode])
    assert code == 1 and err == ""
    failed = [r for r in json.loads(out)["reports"] if not r["pass"]]
    assert sorted(r["name"] for r in failed) == ["zeros-contour-vs-roots",
                                                 "zeros-eigenvalue-vs-roots"]
    assert all(any(r["details"]["unpaired"]) for r in failed)


def test_agreement_report_names_the_unpaired_zeros():
    tol = cli.PAIRING_TOL

    def row(a, b):
        return cli._agreement_report("agree", ZeroSet(a, "a"), ZeroSet(b, "b"), tol).to_jsonable()

    # counts differ: lhs is the distance from the far zero to the other set
    far = row(((0.1 + 0j, 1), (0.5 + 0j, 1)), ((0.1 + 1e-9 + 0j, 1),))
    assert far["lhs"] == abs(0.5 - (0.1 + 1e-9)) and not far["pass"]
    assert far["details"]["unpaired"] == [[{"re": 0.5, "im": 0.0, "multiplicity": 1}], []]
    # a double zero against two simple zeros 1.5e-7 apart: every zero lies
    # within tol of the other set, so only the sentinel fails the row
    split = row(((0.3 + 0j, 2),), ((0.3 - 0.75e-7 + 0j, 1), (0.3 + 0.75e-7 + 0j, 1)))
    assert split["lhs"] == tol + 1.0 and not split["pass"]
    assert split["details"]["unpaired"] == [[], []]
    # an empty other set gives no distance: the sentinel, the zero listed
    alone = row(((0.5j, 1),), ())
    assert alone["lhs"] == tol + 1.0 and not alone["pass"]
    assert alone["details"]["unpaired"] == [[{"re": 0.0, "im": 0.5, "multiplicity": 1}], []]
    matched = row(((0.5 + 0j, 1),), ((0.5 + 1e-9 + 0j, 1),))
    assert matched["pass"] and set(matched["details"]) == {"methods", "counts", "matched"}


def test_output_is_byte_deterministic(capsys):
    args = ["random-suite", "--which", "thm2", "--instances", "5", "--seed", "11"]
    code1, out1, _ = run(capsys, args)
    code2, out2, _ = run(capsys, args)
    assert code1 == code2 == 0
    assert out1 == out2


_FORCED = ["--tol", "blaschke=-1", "--tol", "schur=-1", "--tol", "realline=-1"]


def test_output_does_not_depend_on_the_hash_seed():
    # the suite payload and its failure dumps (forced by negative tolerances),
    # and the contour route's payloads, whose contours may end early
    argvs = [["random-suite", "--which", "all", "--instances", "20", *_FORCED]]
    argvs += [["verify-measure", str(DATA / f"{m}.json"), "--mode", mode]
              for m in ("sharp_measure", "double_zero_measure") for mode in ("shifted", "direct")]
    runs = [_main_in_one_interpreter(argvs, PYTHONHASHSEED=seed) for seed in ("0", "1")]
    assert runs[0] == runs[1]
    (code, _, err), *measures = runs[0]
    assert code == 1 and err
    assert [(code, err) for code, _, err in measures] == [(0, "")] * 4


def test_failure_dumps_come_suite_by_suite(capsys):
    # every thm1, thm2, thm3 and schur instance fails: instances run index by
    # index, yet their dumps on stderr come suite by suite, each in index order
    failing = ["random-suite", "--which", "all", "--instances", "4", "--seed", "1",
               "--tol", "blaschke=-100", "--tol", "schur=-1"]
    first = run(capsys, failing)
    assert run(capsys, failing) == first
    code, _, err = first
    order = [(d["failed"], d["index"]) for d in map(json.loads, err.splitlines())]
    assert code == 1
    assert order == [(w, k) for w in ("thm1", "thm2", "thm3", "schur") for k in range(4)]


@pytest.mark.parametrize(
    "argv, parent",
    [(["random-suite", "--which", "schur", "--instances", "2"], "schur-chain"),
     (["jensen", "--instances", "1"], "hardy-chain")],
    ids=["schur-chain", "jensen"],
)
def test_chain_links_follow_their_parent(capsys, tmp_path, argv, parent):
    cout = tmp_path / "out.csv"
    code, out, _ = run(capsys, argv + ["--csv-out", str(cout)])
    assert code == 0
    rows = json.loads(out)["reports"]
    parents = [r for r in rows if r["name"] == parent]
    assert len(parents) == 2 and all(r["details"]["links"] for r in parents)
    want = []
    for r in parents:
        want.append(parent)
        want += [f"{parent}/{link['name']}" for link in r["details"]["links"]]
    names = [r["name"] for r in rows]
    assert names == want
    with open(cout, newline="") as fh:
        assert [row["name"] for row in csv.DictReader(fh)] == names


def test_csv_rows_are_the_payload_rows(capsys, tmp_path):
    cout = tmp_path / "out.csv"
    code, out, _ = run(capsys, ["random-suite", "--which", "all", "--instances", "4",
                                "--tol", "schur=-1", "--csv-out", str(cout)])
    rows = json.loads(out)["reports"]
    assert code == 1 and any("/" in r["name"] for r in rows) and not all(r["pass"] for r in rows)
    with open(cout, newline="") as fh:
        header, *lines = list(csv.reader(fh))
    assert header == ["name", "lhs", "rhs", "slack", "tol", "pass", "details"]
    assert lines == [
        [r["name"], *(repr(r[k]) for k in ("lhs", "rhs", "slack", "tol")), str(r["pass"]),
         json.dumps(r["details"], sort_keys=True)]
        for r in rows
    ]


def test_the_payload_is_written_in_few_bounded_batches(capsys, monkeypatch, tmp_path):
    # json.dumps held every chunk of the payload at once, some seven times
    # its length; the emitter writes batches of chunks as it encodes them
    calls = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda *call: calls.append(call) or 0)
    assert main(["random-suite", "--which", "all", "--instances", "100"]) == 0
    writes = []

    class CountedWrites:  # stdout on a file, so the written text holds no traced memory
        def write(self, text):
            writes.append(len(text))
            return fh.write(text)

        def flush(self):
            fh.flush()

    with open(tmp_path / "out", "w") as fh, contextlib.redirect_stdout(CountedWrites()):
        tracemalloc.start()
        try:
            assert emit(*calls[0]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    out = (tmp_path / "out").read_text()
    assert peak < 2 * len(out)
    assert len(writes) < 50 and max(writes) < 64 * 1024
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


def test_random_suite_builds_one_grid_per_pair(capsys, monkeypatch, tmp_path):
    # counted in a file, so the builds of the helper process count too
    log = tmp_path / "builds"
    init = NumericalRangeSupport.__init__

    def counted(self, A):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        init(self, A)

    monkeypatch.setattr(NumericalRangeSupport, "__init__", counted)
    code, out, _ = run(capsys, ["random-suite", "--which", "all", "--instances", "6"])
    assert code == 0
    pids = log.read_text().split()
    assert len(pids) == 6
    assert len(set(pids)) == (2 if sys.platform == "linux" else 1)


def _assert_no_child():
    # waitpid sees every child, a bare fork included, which
    # multiprocessing.active_children does not
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_suite_helper_changes_no_byte_and_leaves_no_process(capsys, monkeypatch):
    # an odd count, so the halves are unequal; every thm1, thm2, thm3 and
    # schur instance fails, so the dumps come from both halves
    failing = ["random-suite", "--which", "all", "--instances", "9", "--tol", "blaschke=-100",
               "--tol", "schur=-1", "--tol", "realline=-1"]
    split = run(capsys, failing)
    _assert_no_child()
    monkeypatch.setattr(sys, "platform", "serial")  # every index in this process
    assert run(capsys, failing) == split
    assert split[0] == 1 and len(split[2].splitlines()) == 36


def _by_process(helper, here=lambda: None):
    """A random_system that calls here() in this process and helper() in any other."""
    draw, parent = cli.random_system, os.getpid()

    def random_system(*args, **kwargs):
        (here if os.getpid() == parent else helper)()
        return draw(*args, **kwargs)

    return random_system


def test_memory_error_in_the_helper_exits_two(capsys, monkeypatch):
    def out_of_memory():
        raise MemoryError("Unable to allocate 9.9 GiB for an array")

    monkeypatch.setattr(cli, "random_system", _by_process(out_of_memory))
    code, out, err = run(capsys, ["random-suite", "--which", "thm1", "--instances", "2"])
    assert (code, out) == (2, "")
    assert err == "input error: Unable to allocate 9.9 GiB for an array; lower the size flags\n"
    _assert_no_child()


@pytest.mark.parametrize("death", [lambda: os._exit(1),
                                   lambda: os.kill(os.getpid(), signal.SIGKILL)],
                         ids=["exit", "sigkill"])
def test_dead_suite_helper_exits_one_without_traceback(capsys, monkeypatch, death):
    # sigkill: as when the kernel's out-of-memory killer ends the helper
    monkeypatch.setattr(cli, "random_system", _by_process(death))
    code, out, err = run(capsys, ["random-suite", "--which", "thm1", "--instances", "2"])
    assert (code, out) == (1, "")
    assert err == ("check failed: BlaschkeVerifyError: the suite helper process died "
                   "before returning the odd-indexed instances\n")
    _assert_no_child()


def _logging_to(log):
    """A function that appends one line to the file log, then sleeps 1 ms."""
    log.touch()

    def logged():
        with open(log, "a") as fh:
            fh.write("instance\n")
        time.sleep(0.001)

    return logged


def test_interrupted_suite_kills_the_helper_at_once(monkeypatch, tmp_path):
    # the helper logs each of its 1,000 instances, at least 1 ms apart; the
    # caller is interrupted at its first, and must not wait for the helper's half
    log = tmp_path / "helper"

    def interrupt():
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "random_system", _by_process(_logging_to(log), interrupt))
    with pytest.raises(KeyboardInterrupt):
        main(["random-suite", "--which", "thm1", "--instances", "2000"])
    _assert_no_child()
    assert len(log.read_text().splitlines()) < 500


def test_error_at_the_first_index_kills_the_helper_at_once(capsys, monkeypatch, tmp_path):
    # no odd index comes before index 0, so the caller's error there must not
    # wait for the helper's 2,000 instances, each logged and at least 1 ms apart
    log = tmp_path / "helper"

    def out_of_memory():
        raise MemoryError("Unable to allocate 9.9 GiB for an array")

    monkeypatch.setattr(cli, "random_system", _by_process(_logging_to(log), out_of_memory))
    code, out, err = run(capsys, ["random-suite", "--which", "thm1", "--instances", "4000"])
    assert (code, out) == (2, "")
    assert err == "input error: Unable to allocate 9.9 GiB for an array; lower the size flags\n"
    _assert_no_child()
    assert len(log.read_text().splitlines()) < 500


def test_an_error_in_the_helper_comes_before_a_later_one_in_the_caller(capsys, monkeypatch):
    # the caller fails at index 2, the helper at index 1: index 1's error is
    # raised, as a serial run would raise it
    draws = []

    def second_draw_fails():
        draws.append(None)
        if len(draws) == 2:
            raise MemoryError("at index 2")

    def out_of_memory():
        raise MemoryError("at index 1")

    monkeypatch.setattr(cli, "random_system", _by_process(out_of_memory, second_draw_fails))
    code, out, err = run(capsys, ["random-suite", "--which", "thm1", "--instances", "4"])
    assert (code, out, err) == (2, "", "input error: at index 1; lower the size flags\n")
    _assert_no_child()


def test_the_suite_forks_from_one_thread(capsys, monkeypatch):
    # no thread of the package runs beside the caller's half
    counts = []
    monkeypatch.setattr(cli, "random_system",
                        _by_process(lambda: None, lambda: counts.append(threading.active_count())))
    code, _, _ = run(capsys, ["random-suite", "--which", "thm1", "--instances", "6"])
    assert code == 0 and counts == [1, 1, 1]
    assert threading.active_count() == 1
    _assert_no_child()


def test_trace_checks_do_not_depend_on_the_shared_pair(capsys, monkeypatch):
    # thm3 and schur of a pair share the factors of the last pair checked, so
    # a check that altered them would move the other's rows: their rows,
    # links included, must read the same when each suite runs alone
    def rows(which, *suites):
        monkeypatch.setattr(bounds, "_pair_slot", None)  # as in a new process
        code, out, _ = run(capsys, ["random-suite", "--instances", "50", "--seed", "5",
                                    "--which", which])
        assert code in (0, 1)
        suite, kept = None, []
        for row in json.loads(out)["reports"]:
            suite = row["details"].get("suite", suite)  # link rows follow their report
            if suite in suites:
                kept.append(json.dumps(row, sort_keys=True))
        return kept

    shared = rows("all", "thm3", "schur")
    assert len(shared) == 250
    assert shared == rows("thm3", "thm3") + rows("schur", "schur")


def test_random_suite_all_small(capsys):
    code, out, err = run(capsys, ["random-suite", "--which", "all", "--instances", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["failed"] == 0
    suites = {r["details"].get("suite") for r in payload["reports"] if r["details"]}
    assert {"thm1", "thm2", "thm3", "schur", "dilation", "realline"} <= suites


def test_dilate_matches_golden(capsys, data_dir):
    code, out, _ = run(
        capsys, ["dilate", str(data_dir / "dilate_system.json"), "--order", "5"]
    )
    assert code == 0
    got = json.loads(out)
    with open(data_dir / "dilate_golden.json") as fh:
        want = json.load(fh)

    def close(a, b, path=""):
        assert type(a) is type(b), (path, a, b)
        if isinstance(a, dict):
            assert set(a) == set(b), path
            for k in a:
                close(a[k], b[k], f"{path}.{k}")
        elif isinstance(a, list):
            assert len(a) == len(b), path
            for i, (x, y) in enumerate(zip(a, b)):
                close(x, y, f"{path}[{i}]")
        elif isinstance(a, float):
            assert a == pytest.approx(b, rel=1e-9, abs=1e-12), path
        else:
            assert a == b, path

    close(got, want)


def test_jensen_subcommand(capsys):
    code, out, _ = run(capsys, ["jensen", "--instances", "3", "--seed", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["failed"] == 0
    # the fixed h = 1 - 2w case leads the report list
    assert payload["reports"][0]["name"] == "hardy-chain"
    assert payload["reports"][0]["rhs"] == pytest.approx(2.0, abs=1e-12)


def test_real_line_file(capsys, data_dir):
    code, out, _ = run(capsys, ["real-line", str(data_dir / "real_line_fixture.json")])
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["failed"] == 0
    assert payload["reports"][0]["name"] == "half-plane-zero-bound"


def test_exit_one_on_failed_check(capsys, data_dir):
    # force failure with an impossible negative tolerance
    code, out, _ = run(
        capsys,
        [
            "verify-measure",
            str(data_dir / "sharp_measure.json"),
            "--tol",
            "blaschke=-1",
        ],
    )
    assert code == 1
    payload = json.loads(out)  # payload still emitted for inspection
    assert payload["summary"]["failed"] >= 1


def test_exit_two_on_missing_file(capsys):
    code, _, err = run(capsys, ["verify-measure", "/nonexistent/measure.json"])
    assert code == 2
    assert "io error" in err


@pytest.mark.parametrize(
    "closed, argv",
    [
        ("stdout", ["jensen"]),
        # payloads under the 8 KiB stdout buffer, written only by a flush
        ("stdout", ["jensen", "--instances", "1"]),
        ("stdout", ["real-line", "tests/data/real_line_fixture.json"]),
        # the first failure dump on stderr meets the closed pipe
        ("stderr", ["random-suite", "--which", "all", "--instances", "2", *_FORCED]),
    ],
    ids=["jensen", "jensen-1", "real-line", "suite-dumps"],
)
def test_closed_pipe_exits_as_on_sigpipe(closed, argv):
    # the reader is gone before the output is written: exit 141 with the
    # other stream silent, not the exit 2 of an unreadable input file;
    # stdout is block-buffered, as it is without PYTHONUNBUFFERED
    read, write = os.pipe()
    os.close(read)
    try:
        done = _fresh_interpreter(["-m", "blaschke_verify.cli", *argv], **{closed: write},
                                  PYTHONUNBUFFERED="")
    finally:
        os.close(write)
    assert done.returncode == 141
    assert (done.stderr if closed == "stdout" else done.stdout) == ""


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_reader_that_leaves_mid_payload_exits_as_on_sigpipe(unbuffered):
    # some 260 kB, several pipe buffers: the reader takes 4 KiB and goes, so a
    # later write of the payload meets the closed pipe
    argv = ["-m", "blaschke_verify.cli", "random-suite", "--which", "all", "--instances", "50"]
    env = _fresh_env(PYTHONUNBUFFERED=unbuffered)
    with subprocess.Popen([sys.executable, *argv], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, env=env) as proc:
        assert len(proc.stdout.read(4096)) == 4096
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 141
    assert err == b""


def test_exit_two_on_bad_json(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    code, _, err = run(capsys, ["verify-measure", str(p)])
    assert code == 2
    assert "parse error" in err


@pytest.mark.parametrize(
    "raw, named",
    [
        (b"\xff\xfe{}", "codec can't decode"),
        (b'{"atoms": [{"s": ' + b"1" * 5000 + b', "c": {"re": 1.0}}]}', "Exceeds the limit"),
    ],
    ids=["not-utf8", "over-digit-limit"],
)
def test_exit_two_on_undecodable_file(capsys, tmp_path, raw, named):
    p = tmp_path / "raw.json"
    p.write_bytes(raw)
    code, out, err = run(capsys, ["real-line", str(p)])
    assert code == 2
    assert out == ""
    assert err.startswith(f"input error: {p}: ") and named in err


def _atom(point: float, weight: float) -> dict:
    return {"point": {"re": point}, "weight": {"re": weight}}


_EXPANSION = {"A": [[{"re": 1.5}]], "phi": [{"re": 1.0}], "psi": [{"re": 1.0}]}


@pytest.mark.parametrize(
    "command, obj, flags, line",
    [
        ("verify-measure", {"atoms": [_atom(0.5, 1.0)]}, [],
         "atoms[0].point |(0.5+0j)| = 0.5 is not within 1e-9 of 1"),
        ("verify-measure", {"atoms": [{"point": {"re": 1.0}, "weight": {"re": True}}]}, [],
         "atoms[0].weight.re must be a number, got True"),
        ("verify-measure", {"atoms": [_atom(1.0, 1.0)], "lebesgue": {"re": 1.0}},
         ["--mode", "shifted"], "shifted-mode zero bound needs an atomic measure"),
        ("verify-measure", {"atoms": [_atom(1.0, 1.0)], "lebesgue": {"re": 1.0}},
         ["--mode", "direct"], "mu(T) = (2+0j), need 1"),
        ("verify-system", _EXPANSION, [], "||A|| = 1.5 exceeds 1 + 1e-10"),
        ("dilate", _EXPANSION, [], "||A|| = 1.5 exceeds 1 + 1e-10"),
        ("verify-system",
         {"A": [[{"re": 0.5}, {}], [{}, {"re": 0.5}]], "phi": [{"re": 1.0}] * 2, "psi": [{"re": 1.0}]},
         [], "A is 2x2 but |phi|=2, |psi|=1"),
        ("real-line", {"atoms": [{"s": 0.0, "c": {"re": 2.0}}]}, [],
         "weights sum to (2+0j), need 1"),
    ],
    ids=["off-circle", "bool-weight", "lebesgue-shifted", "lebesgue-direct",
         "expansion-verify-system", "expansion-dilate", "phi-psi-lengths", "line-unnormalised"],
)
def test_exit_two_stderr_is_one_input_error_line(capsys, tmp_path, command, obj, flags, line):
    p = tmp_path / "input.json"
    p.write_text(json.dumps(obj))
    code, out, err = run(capsys, [command, str(p), *flags])
    assert (code, out, err) == (2, "", f"input error: {line}\n")


def test_unwritable_csv_out_prints_nothing(capsys, tmp_path):
    cout = tmp_path / "missing" / "out.csv"
    code, out, err = run(capsys, ["verify-measure", SHARP, "--csv-out", str(cout)])
    assert (code, out) == (2, "")
    assert err.startswith("io error: ") and err.count("\n") == 1
    assert not cout.exists()


@pytest.mark.parametrize(
    "obj, named, mode",
    [
        ({"atoms": [{"point": {"re": math.nan}, "weight": {"re": 1.0}}]}, "point (nan", "shifted"),
        ({"atoms": [{"point": {"re": 1.0}, "weight": {"re": math.inf}}]}, "weight (inf", "shifted"),
        (
            {"atoms": [{"point": {"re": 1.0}, "weight": {"re": 1.0}}],
             "lebesgue": {"re": math.inf}},
            "lebesgue coefficient (inf",
            "shifted",
        ),
        # every weight finite, but sum |c_j| + |lebesgue| overflows
        (
            {"atoms": [_atom(1.0, 1e308), _atom(-1.0, -1e308)], "lebesgue": {"re": 1.0}},
            "total variation inf",
            "direct",
        ),
        ({"atoms": [_atom(1.0, 1e308), _atom(-1.0, 1e308)]}, "total variation inf", "direct"),
    ],
)
def test_exit_two_on_non_finite_measure(capsys, tmp_path, obj, named, mode):
    p = tmp_path / "nonfinite.json"
    p.write_text(json.dumps(obj))  # writes NaN / Infinity, which json.load accepts
    # pytest captures warnings before they reach stderr, so record them here
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run(capsys, ["verify-measure", str(p), "--mode", mode])
    assert code == 2
    assert "input error" in err and named in err
    assert "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_zero_at_origin_from_underflow_is_a_numerical_error(capsys, tmp_path):
    # L = [1 - c] has an eigenvalue near -1e308 - 1e308i, whose reciprocal
    # underflows to 0, where h(0) = 1 cannot vanish
    p = tmp_path / "underflow.json"
    p.write_text(json.dumps({"atoms": [{"point": {"re": 1.0}, "weight": {"re": 1e308, "im": 1e308}}]}))
    code, _, err = run(capsys, ["verify-measure", str(p)])
    assert code == 1
    assert err.startswith("check failed: NumericalError:") and err.count("\n") == 1


def test_direct_mode_passes_when_the_shift_rounds_total_variation_up(capsys, data_dir):
    # weights of modulus 1e3 to 1e5: the shifted total variation sums the
    # same moduli and comes out one ulp above the direct one
    path = str(data_dir / "shift_rounding_measure.json")
    code, out, err = run(capsys, ["verify-measure", path, "--mode", "direct"])
    assert code == 0 and err == ""
    (main_report,) = [r for r in json.loads(out)["reports"] if r["name"] == "direct-transform-zero-bound"]
    assert main_report["details"]["shifted_rhs"] > main_report["rhs"]


def test_output_does_not_depend_on_blas_threads():
    # the resolvents of verify-system solve through numpy's gesv, whose
    # rounding does not move with the thread count; jensen evaluates h with
    # np.polyval, real-line takes an eigensolve, and the double zero is read
    # off the numerator's roots as well
    argvs = [
        ["verify-system", _SYSTEM],
        ["dilate", _SYSTEM],
        ["verify-measure", SHARP, "--mode", "shifted"],
        ["verify-measure", SHARP, "--mode", "direct"],
        ["random-suite", "--which", "all", "--instances", "20"],
        ["jensen"],
        ["real-line", _LINE_FIXTURE],
        ["verify-measure", str(DATA / "double_zero_measure.json"), "--mode", "direct"],
    ]
    runs = [_main_in_one_interpreter(argvs, OPENBLAS_NUM_THREADS=t, OMP_NUM_THREADS=t)
            for t in ("1", "2")]
    assert runs[0] == runs[1]
    assert [(code, err) for code, _, err in runs[0]] == [(0, "")] * len(argvs)


def _system(**fields):
    z = {"re": 0.5, "im": 0.0}
    return {"A": [[z, z], [z, z]], "phi": [z, z], "psi": [z, z], **fields}


_LINE_C = {"re": 1.0, "im": 0.0}
# every entry finite, but ||phi|| * ||psi|| = 1e600 overflows
_OVERFLOW = {
    "A": [[{"re": 0.5}]],
    "phi": [{"re": 1e300}],
    "psi": [{"re": 1e300}],
}
# ||phi|| overflows and ||psi|| underflows, so their product is inf * 0
_INF_TIMES_ZERO = {
    "A": [[{"re": 0.5}]],
    "phi": [{"re": 1e308, "im": 1e308}],
    "psi": [{"re": 1e-300}],
}


def _line(*atoms):
    return {"atoms": [{"s": s, "c": {"re": c}} for s, c in atoms]}


_LINE_MOMENTS = "atoms: sum |s_j| |c_j| = "


@pytest.mark.parametrize(
    "command, obj, named",
    [
        ("verify-system", _system(A=[[{"re": "x"}, {}], [{}, {}]]), "A[0][0].re must be"),
        ("dilate", _system(A=[[{"re": "x"}, {}], [{}, {}]]), "A[0][0].re must be"),
        ("verify-system", _system(A=[[{}, {}], [{}]]), "A must be a non-empty square matrix"),
        ("dilate", _system(A=[[{}, {}], [{}]]), "A must be a non-empty square matrix"),
        ("dilate", _system(phi=[{"re": math.inf}, {}]), "phi[0] (inf+0j) is not finite"),
        ("real-line", {"atoms": [{"s": "abc", "c": _LINE_C}]}, "atoms[0].s must be"),
        ("real-line", {"atoms": [{"s": 0.5, "c": 5}]}, "atoms[0].c must be"),
        ("real-line", {"atoms": 3}, "atoms must be a list"),
        ("real-line", {"atoms": [{"s": math.nan, "c": _LINE_C}]}, "atoms[0].s nan is not"),
        ("verify-system", _OVERFLOW, "||phi|| * ||psi|| is inf"),
        ("dilate", _OVERFLOW, "||phi|| * ||psi|| is inf"),
        ("verify-system", _INF_TIMES_ZERO, "||phi|| * ||psi|| is nan"),
        ("dilate", _INF_TIMES_ZERO, "||phi|| * ||psi|| is nan"),
        # each s_j and c_j is finite, but s_j c_j and sum |s_j| |c_j| overflow
        ("real-line", _line((1e308, 2.0), (-1e308, -1.0)), _LINE_MOMENTS + "inf"),
        # sum |s_j| |c_j| is finite, but s_1 - s_1 c_1 in L overflows
        ("real-line", _line((1e308, -1.0), (0.5, 2.0)), _LINE_MOMENTS + "1e+308"),
        ("real-line", _line((1, 1.5e308), (0.5, 1e308), (0.5, -1.5e308)), "weights sum to (inf"),
        # an off-circle point names its atom, as a malformed field does
        (
            "verify-measure",
            {"atoms": [_atom(1.0, 0.5), {"point": {"re": 0.5, "im": 0.5}, "weight": {"re": 0.5}}]},
            "atoms[1].point |(0.5+0.5j)| = 0.7071067811865476 is not within 1e-9 of 1",
        ),
        # both parts finite, but the modulus overflows
        (
            "verify-measure",
            {"atoms": [{"point": {"re": 1.7e308, "im": 1.7e308}, "weight": {"re": 1.0}}]},
            "atoms[0].point |(1.7e+308+1.7e+308j)| = inf is not within",
        ),
    ],
)
def test_exit_two_on_malformed_file(capsys, tmp_path, command, obj, named):
    p = tmp_path / "input.json"
    p.write_text(json.dumps(obj))  # NaN / Infinity literals, which json.load accepts
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, [command, str(p)])
    assert code == 2
    assert out == ""
    assert err.startswith("input error: ") and named in err
    assert "Traceback" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


_PAIR_DIM = "--max-dim must be >= 2 for the thm3 and schur suites, got 1"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["dilate", str(DATA / "dilate_system.json"), "--order", "0"], "--order must be >= 1"),
        (["random-suite", "--which", "thm2", "--max-atoms", "0"], "--max-atoms must be >= 1"),
        (["random-suite", "--which", "thm1", "--max-dim", "0"], "--max-dim must be >= 1"),
        (["random-suite", "--which", "thm2", "--seed", "-1"], "--seed must be >= 0"),
        (["jensen", "--seed", "-3"], "--seed must be >= 0"),
        (["random-suite", "--which", "thm2", "--instances", "-1"], "--instances must be >= 0"),
        (["jensen", "--instances", "-2"], "--instances must be >= 0"),
        (["random-suite", "--which", "thm3", "--max-dim", "1"], _PAIR_DIM),
        (["random-suite", "--which", "schur", "--max-dim", "1"], _PAIR_DIM),
        (["random-suite", "--which", "all", "--max-dim", "1"], _PAIR_DIM),
    ],
    # the flag names the case
    ids=lambda v: v.split()[0] if isinstance(v, str) else None,
)
def test_exit_two_on_non_positive_count(capsys, argv, message):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert f"input error: {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("which", ["thm1", "dilation"])
def test_max_dim_one_runs_single_dimension_suites(capsys, which):
    argv = ["random-suite", "--which", which, "--max-dim", "1", "--instances", "3"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    summary = json.loads(out)["summary"]
    assert summary["total"] == 3 and summary["failed"] == 0


def test_zero_instances_give_empty_payload(capsys):
    code, out, err = run(capsys, ["random-suite", "--instances", "0"])
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["reports"] == []
    assert payload["summary"] == {"failed": 0, "min_slack": None, "total": 0}


@pytest.mark.parametrize(
    "tol", ["nope=1", "blaschke=abc", "blaschke=nan", "blaschke=inf", "blaschke=-inf",
            "blaschke=1e400", "pairing=nan"],
)
def test_exit_two_on_bad_tol(capsys, data_dir, tol):
    code, out, err = run(
        capsys,
        ["verify-measure", str(data_dir / "sharp_measure.json"), "--tol", tol],
    )
    assert code == 2
    assert out == ""
    assert err.startswith("input error: bad --tol ") and repr(tol) in err
    assert "Traceback" not in err


def test_json_and_csv_out(capsys, tmp_path, data_dir):
    # the JSON payload goes to stdout only; --csv-out writes the CSV file
    cout = tmp_path / "out.csv"
    code, out, _ = run(
        capsys,
        ["verify-measure", str(data_dir / "sharp_measure.json"), "--csv-out", str(cout)],
    )
    assert code == 0
    assert json.loads(out)["summary"]["failed"] == 0
    lines = cout.read_text().splitlines()
    assert lines[0] == "name,lhs,rhs,slack,tol,pass,details"
    assert len(lines) >= 2


def _numpy_scalars(obj, path="$"):
    """Where obj holds a numpy scalar other than float64, with its type."""
    if isinstance(obj, dict):
        return [p for k, v in obj.items() for p in _numpy_scalars(v, f"{path}.{k}")]
    if isinstance(obj, (list, tuple)):
        return [p for i, v in enumerate(obj) for p in _numpy_scalars(v, f"{path}[{i}]")]
    if isinstance(obj, np.generic) and type(obj) is not np.float64:
        return [f"{path}: {type(obj).__name__}"]
    return []


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-measure", SHARP],
        ["verify-measure", str(DATA / "double_zero_measure.json"), "--mode", "direct"],
        ["verify-system", str(DATA / "dilate_system.json")],
        ["dilate", str(DATA / "dilate_system.json")],
        ["jensen", "--instances", "5"],
        ["real-line", str(DATA / "real_line_fixture.json")],
        ["random-suite", "--which", "all", "--instances", "5"],
        # every instance fails, so each one's replay dump is written too
        ["random-suite", "--which", "all", "--instances", "5", *_FORCED],
    ],
    ids=["verify-measure", "verify-measure-direct", "verify-system", "dilate", "jensen",
         "real-line-file", "random-suite", "random-suite-failing"],
)
def test_payloads_hold_no_numpy_scalar_but_float64(capsys, monkeypatch, tmp_path, argv):
    # json writes np.float64 as float's repr, so it needs no conversion; any
    # other numpy scalar makes the encoder raise, and the payload's only after
    # part of it is written, so every object is walked before it is encoded
    walked = []
    iterencode = json.JSONEncoder.iterencode

    def walking_iterencode(self, obj, *args, **kwargs):
        assert _numpy_scalars(obj) == []
        walked.append(obj)
        return iterencode(self, obj, *args, **kwargs)

    monkeypatch.setattr(json.JSONEncoder, "iterencode", walking_iterencode)
    code, out, _ = run(capsys, [*argv, "--csv-out", str(tmp_path / "out.csv")])
    assert code in (0, 1) and out
    assert [obj["command"] for obj in walked if "summary" in obj] == [argv[0]]  # the payload


def test_failed_instance_dumped_to_stderr(capsys):
    # negative tolerance fails every instance; each failure must leave a
    # replayable dump on stderr
    code, out, err = run(
        capsys,
        [
            "random-suite",
            "--which",
            "thm2",
            "--instances",
            "2",
            "--seed",
            "3",
            "--tol",
            "blaschke=-100",
        ],
    )
    assert code == 1
    dumps = [json.loads(line) for line in err.splitlines() if line.startswith("{")]
    assert len(dumps) == 2
    assert dumps[0]["seed"] == 3
    assert "instance" in dumps[0]


def test_sampler_that_gives_up_is_an_instance_error(capsys):
    # at 400 atoms, the first draw of seed 42 cannot keep its 199 points 1e-3
    # apart: the instance fails with a row and a dump, not a traceback
    code, out, err = run(
        capsys, ["random-suite", "--which", "thm2", "--max-atoms", "400", "--instances", "1"]
    )
    assert code == 1
    (row,) = json.loads(out)["reports"]
    assert row["name"] == "thm2-instance-error" and not row["pass"]
    assert row["details"]["error"] == "could not draw well-separated circle points (199 atoms)"
    assert json.loads(err)["instance"] == {"error": row["details"]["error"]}
    assert "Traceback" not in err


def test_cli_runs_do_not_import_scipy_optimize():
    # a fresh interpreter: other tests import scipy.optimize as a reference
    script = (
        "import contextlib, io, sys\n"
        "from blaschke_verify.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main(['verify-measure', {SHARP!r}]),\n"
        "             main(['random-suite', '--which', 'all', '--instances', '5'])]\n"
        "print(codes, 'scipy.optimize' in sys.modules)\n"
    )
    done = _fresh_interpreter(["-c", script])
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[0, 0] False\n"


def test_scipy_linalg_is_imported_on_the_first_schur_form():
    script = (
        "import sys\n"
        "import blaschke_verify.cli\n"
        "before = 'scipy.linalg' in sys.modules\n"
        "from blaschke_verify.linalg import schur_decompose\n"
        "schur_decompose([[1.0, 2.0], [0.0, 3.0]])\n"
        "print(before, 'scipy.linalg' in sys.modules)\n"
    )
    done = _fresh_interpreter(["-c", script])
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False True\n"


def test_no_command_imports_a_process_pool():
    # the suite helper is a bare fork, so no run loads multiprocessing or
    # the executor's pool
    script = (
        "import contextlib, io, sys\n"
        "from blaschke_verify.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main(['verify-measure', {SHARP!r}]),\n"
        "             main(['random-suite', '--which', 'all', '--instances', '4'])]\n"
        "print(codes, 'multiprocessing' in sys.modules, 'concurrent.futures.process' in sys.modules)\n"
    )
    done = _fresh_interpreter(["-c", script])
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[0, 0] False False\n"


_MODULES = sorted(path.stem for path in pathlib.Path(blaschke_verify.__file__).parent.glob("*.py")
                  if path.name != "__init__.py")
# the layers below the zero routes, which load no route, check or CLI
_LOWER_LAYERS = {"errors", "codec", "linalg", "measure", "transform", "operator_model"}
_UPPER_LAYERS = {f"blaschke_verify.{m}" for m in ("zeros", "bounds", "dilation", "cli")}


@pytest.mark.parametrize("module", ["blaschke_verify"] + [f"blaschke_verify.{m}" for m in _MODULES])
def test_each_module_imports_alone(module):
    # one fresh interpreter per module, so no other import order hides a cycle
    script = (
        f"import sys, {module}\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'blaschke_verify'))\n"
    )
    done = _fresh_interpreter(["-W", "error", "-c", script])
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    if module == "blaschke_verify":
        assert loaded == {"blaschke_verify"}
    elif module.rpartition(".")[2] in _LOWER_LAYERS:
        assert not loaded & _UPPER_LAYERS, loaded


def test_passing_instances_build_no_replay_payload(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("payload built for a passing instance")

    for name in ("system_to_jsonable", "measure_to_jsonable", "matrix_to_json",
                 "line_atoms_to_jsonable"):
        monkeypatch.setattr(cli, name, refuse)
    code, out, err = run(capsys, ["random-suite", "--which", "all", "--instances", "4"])
    assert code == 0 and err == ""


def test_oversized_order_exits_two_before_allocating(capsys, monkeypatch, data_dir):
    # (10^9 + 1) * 2 squared complex entries overflow numpy's array size
    def refuse(*args):
        raise AssertionError("dilate was called")

    monkeypatch.setattr(cli, "dilate", refuse)
    argv = ["dilate", str(data_dir / "dilate_system.json"), "--order", "1000000000"]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("input error: --order 1000000000: a 2000000002x2000000002 dilation")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "name, argv",
    [
        ("dilate", ["dilate", "tests/data/dilate_system.json", "--order", "3"]),
        ("random_system", ["random-suite", "--which", "thm1", "--instances", "2"]),
    ],
)
@pytest.mark.parametrize(
    "message, shown",
    [("Unable to allocate 9.9 GiB for an array", "Unable to allocate 9.9 GiB for an array"),
     ("", "out of memory")],
)
def test_memory_error_exits_two_without_traceback(capsys, monkeypatch, name, argv, message, shown):
    def out_of_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, name, out_of_memory)
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err == f"input error: {shown}; lower the size flags\n"


def test_dilation_suite_draws_its_system_by_random_system():
    # the suite's draw is random_system's stream: same dimension, A, phi,
    # psi and the order drawn after them, so payloads did not move
    from blaschke_verify.random_instances import (
        complex_gaussian,
        random_contraction,
        random_system,
        spawn_rng,
    )

    for index in range(50):
        for max_dim in (1, 3, 10):
            a, b = spawn_rng(5, index), spawn_rng(5, index)
            s = random_system(a, max_dim=min(5, max_dim))
            n = int(b.integers(1, min(5, max_dim) + 1))
            A = random_contraction(b, n)
            phi, psi = complex_gaussian(b, (n,)), complex_gaussian(b, (n,))
            assert np.array_equal(s.A, A) and np.array_equal(s.phi, phi)
            assert np.array_equal(s.psi, psi)
            assert a.integers(1, 11) == b.integers(1, 11)


_LINE_FIXTURE = str(DATA / "real_line_fixture.json")
_SYSTEM = str(DATA / "dilate_system.json")
# subcommand: (argv of a passing run, the suite flags and --tol names it reads)
_READS = {
    "verify-measure": ([SHARP], "", "blaschke pairing"),
    "verify-system": ([_SYSTEM], "", "blaschke determinant"),
    "random-suite": (["--instances", "1"], "--seed --instances --max-atoms --max-dim",
                     "blaschke realline schur taylor"),
    "dilate": ([_SYSTEM, "--order", "2"], "", "taylor"),
    "jensen": (["--instances", "1"], "--seed --instances", "jensen"),
    "real-line": ([_LINE_FIXTURE], "", "realline"),
}


@pytest.mark.parametrize("command", list(_READS))
def test_subcommand_takes_only_the_flags_and_tols_it_reads(capsys, command):
    base, flags, tols = _READS[command]
    argv = [command, *base]
    assert run(capsys, argv)[0] == 0
    for flag in {"--seed", "--instances", "--max-atoms", "--max-dim"} - set(flags.split()):
        with pytest.raises(SystemExit) as exc:
            main(argv + [f"{flag}=2"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}=2" in capsys.readouterr().err
    names = {"blaschke", "determinant", "jensen", "pairing", "realline", "schur", "taylor"}
    for name in names - set(tols.split()):
        code, out, err = run(capsys, argv + ["--tol", f"{name}=1e-6"])
        assert code == 2 and out == ""
        assert err.startswith(f"input error: bad --tol '{name}=1e-6'")
        assert str(sorted(tols.split())) in err
    # every name it takes is read: no report's slack reaches 1e9
    for name in tols.split():
        assert run(capsys, argv + ["--tol", f"{name}=-1e9"])[0] == 1, name


# the Schur-chain and real-line suites run only as random-suite --which schur|realline
@pytest.mark.parametrize(
    "argv, message",
    [(["schur-chain", "--instances", "2"], "invalid choice: 'schur-chain'"),
     (["real-line"], "the following arguments are required: path")],
    ids=["schur-chain", "real-line"],
)
def test_suite_aliases_are_gone(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert message in out.err and "Traceback" not in out.err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["random-suite", "--which", "thm1", "--max-dim", str(10**20)], "--max-dim"),
        (["random-suite", "--which", "thm2", "--max-atoms", str(10**20)], "--max-atoms"),
        # fits int64, but not a numpy array of 10^11 x 10^11
        (["random-suite", "--which", "thm1", "--max-dim", str(10**11)], "--max-dim"),
        (["random-suite", "--which", "schur", "--max-dim", str(10**20)], "--max-dim"),
    ],
    ids=["thm1-1e20", "thm2-1e20", "thm1-1e11", "schur-1e20"],
)
def test_exit_two_on_a_size_past_numpy_arrays(capsys, argv, flag):
    code, out, err = run(capsys, argv + ["--instances", "1"])
    assert code == 2 and out == ""
    assert err.startswith(f"input error: {flag} {argv[-1]}: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["verify-measure", "verify-system", "dilate", "real-line"])
def test_exit_two_on_deeply_nested_json(capsys, tmp_path, command):
    p = tmp_path / "deep.json"
    p.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, [command, str(p)])
    assert code == 2 and out == ""
    assert err.startswith(f"input error: {p}: ") and "recursion" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-measure", str(DATA / "subnormal_weight_measure.json"), "--mode", "shifted"],
        ["verify-measure", str(DATA / "subnormal_weight_measure.json"), "--mode", "direct"],
        ["real-line", str(DATA / "subnormal_line_atoms.json")],
    ],
    ids=["shifted", "direct", "real-line"],
)
def test_subnormal_weight_passes(capsys, argv):
    # a weight of 5e-324, or s_j c_j = 1e-310: |c_j| is subnormal, where
    # numpy's complex division c_j / |c_j| overflows
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, argv)
    assert code == 0 and err == ""
    assert not caught
    assert json.loads(out)["summary"]["failed"] == 0


@pytest.mark.parametrize(
    "name", ["overflow_derivative_measure", "overflow_measure"], ids=["h-prime", "h"]
)
def test_contour_overflow_is_a_numerical_error(capsys, name):
    # ten atoms of weight 1e303 (h' overflows on the top circle, h does not)
    # or 1e307 (h overflows too) at the tenth roots of unity
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, ["verify-measure", str(DATA / f"{name}.json")])
    assert code == 1 and out == ""
    assert err.startswith("check failed: NumericalError: ") and err.count("\n") == 1
    assert not caught


def test_determinant_overflow_is_a_numerical_error(capsys):
    # A = diag(0.5, -0.5) and phi = psi = [1e90, 1e90]: ||phi|| ||psi|| = 2e180 is
    # finite, but the LU determinant of I + phi psi* (lam - A)^{-1} overflows
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, ["verify-system", str(DATA / "determinant_overflow_system.json")])
    assert code == 1 and out == ""
    assert err.startswith("check failed: NumericalError: ") and err.count("\n") == 1
    assert not caught
