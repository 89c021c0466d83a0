"""Cross-validation of the three zero-finding routes.

The reciprocal-eigenvalue, argument-principle, and numerator-root routes
share nothing but the measure, so agreement on random instances is strong
evidence each is right; hand-computable examples pin the absolute answers.
"""

import ast
import json
import math
import pathlib
import sys
import types
import warnings

import numpy as np
import pytest

from blaschke_verify import linalg
from blaschke_verify.errors import BlaschkeVerifyError, NonIntegerWinding, NumericalError
from blaschke_verify.measure import (
    AtomicMeasure,
    dirac,
    measure_from_jsonable,
    shift_measure,
)
from blaschke_verify.operator_model import build_system_from_measure
from blaschke_verify.random_instances import random_conditioned_measure, spawn_rng
from blaschke_verify.transform import CauchyFunction, eval_h
from blaschke_verify.zeros import (
    METHOD_ARG,
    PAIRING_TOL,
    ZeroSet,
    blaschke_sum,
    match_zero_sets,
    zeros_via_argument_principle,
    zeros_via_L,
    zeros_via_numerator_roots,
)
from blaschke_verify import zeros as zeros_mod

from conftest import DATA, data_measures


def shifted(mu):
    return CauchyFunction(source=mu, mode="shifted")


def test_zero_set_within_cuts_strictly_below_the_radius():
    zeros = ((0.5 + 0j, 2), (0.7j, 1), (-0.9 + 0j, 1))
    zs = ZeroSet(zeros=zeros, method=METHOD_ARG, radius=0.95)
    cut = zs.within(0.7)
    assert cut.zeros == ((0.5 + 0j, 2),)  # |0.7i| = 0.7 is not below 0.7
    assert cut.method == METHOD_ARG and cut.radius is None
    assert zs.within(1.0).zeros == zs.zeros and zs.within(0.5).zeros == ()


def test_zero_set_validation():
    with pytest.raises(NumericalError):
        ZeroSet(zeros=((1.0 + 0j, 1),), method="x")
    with pytest.raises(NumericalError):
        ZeroSet(zeros=((0.5 + 0j, 0),), method="x")
    for bad in ("nan", "inf", "-infj", "0.5+nanj"):
        with pytest.raises(NumericalError, match="not finite"):
            ZeroSet(zeros=((complex(bad), 1),), method="x")


def test_blaschke_sum_hand_values():
    zs = ZeroSet(zeros=((0.5 + 0j, 1), (0.25j, 2)), method="x")
    assert blaschke_sum(zs) == pytest.approx(1.0 + 2 * 3.0)
    assert blaschke_sum(ZeroSet(zeros=(), method="x")) == 0.0


def test_match_zero_sets_basics():
    a = ZeroSet(zeros=((0.5 + 0j, 1),), method="a")
    b = ZeroSet(zeros=((0.5 + 1e-9 + 0j, 1),), method="b")
    ok, worst = match_zero_sets(a, b)
    assert ok and worst < 1e-8
    c = ZeroSet(zeros=((0.5 + 0j, 2),), method="c")
    ok, worst = match_zero_sets(a, c)
    assert not ok  # counts differ
    d = ZeroSet(zeros=((0.5 + 0j, 1), (0.2j, 1)), method="d")
    ok, _ = match_zero_sets(a, d)
    assert not ok
    ok, worst = match_zero_sets(
        ZeroSet(zeros=(), method="a"), ZeroSet(zeros=(), method="b")
    )
    assert ok and worst == 0.0


def scipy_match(a, b, tol):
    """match_zero_sets as it was with scipy's assignment, the reference."""
    from scipy.optimize import linear_sum_assignment

    if len(a.zeros) != len(b.zeros) or a.count != b.count:
        return False, math.inf
    za = np.array([z for z, _ in a.zeros])
    zb = np.array([z for z, _ in b.zeros])
    cost = np.abs(za[:, None] - zb[None, :])
    rows, cols = linear_sum_assignment(cost)
    worst = float(cost[rows, cols].max())
    mults_ok = all(a.zeros[i][1] == b.zeros[j][1] for i, j in zip(rows, cols))
    return (worst <= tol and mults_ok), worst


def _separated_points(rng, k, gap):
    """At most k points of |Re z|, |Im z| < 0.35, each pair more than gap
    apart: jittered centres of distinct cells of a grid of pitch >= 2*gap.
    Two cells differ by the pitch in Re or Im, two jitters by less than
    pitch - gap."""
    pitch = max(2 * gap, 0.05)
    axis = np.arange(-0.35 + pitch / 2, 0.35, pitch)
    centres = rng.permutation((axis[:, None] + 1j * axis[None, :]).ravel())[:k]
    n = centres.size
    return centres + 0.49 * (pitch - gap) * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))


def test_match_zero_sets_matches_scipy_on_separated_sets():
    rng = np.random.default_rng(31)
    for _ in range(600):
        eps = 10.0 ** rng.uniform(-12, -1)
        tols = (PAIRING_TOL, eps)
        # b moves each zero of a by at most 0.4*sqrt(2)*eps < eps, so both
        # sets stay more than 2*tol apart within themselves, and each zero's
        # nearest zero of the other set is its own image
        za = _separated_points(rng, int(rng.integers(1, 71)), 2 * max(tols) + 2 * eps)
        k = za.size
        perm = rng.permutation(k)
        zb = za[perm] + eps * 0.4 * (rng.uniform(-1, 1, k) + 1j * rng.uniform(-1, 1, k))
        mults = rng.integers(1, 3, size=k)
        mults_b = mults[perm] if rng.uniform() < 0.8 else rng.integers(1, 3, size=k)
        a = ZeroSet(zeros=tuple(zip(za, mults)), method="a")
        b = ZeroSet(zeros=tuple(zip(zb, mults_b)), method="b")
        for tol in tols:
            for zs in (za, zb):
                gaps = np.abs(zs[:, None] - zs[None, :]) + np.diag(np.full(k, np.inf))
                assert gaps.min() > 2 * tol
            assert match_zero_sets(a, b, tol) == scipy_match(a, b, tol)


def test_match_zero_sets_when_row_minima_collide():
    # both zeros of a are nearest to 0.04 and lie 0.1 <= 2*tol apart: not
    # separated, so the pairing reports no match, stricter than the optimal
    # assignment (0 - 0.04, 0.1 - 0.2), which pairs both within 0.1
    a = ZeroSet(zeros=((0.0j, 1), (0.1 + 0j, 1)), method="a")
    b = ZeroSet(zeros=((0.04 + 0j, 1), (0.2 + 0j, 1)), method="b")
    assert scipy_match(a, b, 0.1) == (True, 0.1)
    assert match_zero_sets(a, b, PAIRING_TOL) == (False, 0.1 - 0.04)
    assert match_zero_sets(a, b, 0.1) == (False, 0.1 - 0.04)


def test_sharp_example_all_three_routes():
    # sigma = delta_{-1}: h(w) = 1 + w K = (1 - w) ... zero exactly at -1/2
    mu = dirac(-1.0, 1.0)
    want = -0.5
    z1 = zeros_via_L(build_system_from_measure(mu))
    z2 = zeros_via_numerator_roots(shifted(mu))
    z3 = zeros_via_argument_principle(shifted(mu))
    for zs in (z1, z2, z3):
        assert zs.count == 1
        assert zs.zeros[0][0] == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("c", [0.1, 0.5, 1.0, 2.0, 10.0])
def test_equality_family_zero_location(c):
    # sigma = c delta_{-1}: single zero at -1/(1+c)
    mu = dirac(-1.0, c)
    zs = zeros_via_L(build_system_from_measure(mu))
    assert zs.count == 1
    assert zs.zeros[0][0] == pytest.approx(-1.0 / (1.0 + c), abs=1e-12)


def test_two_atom_closed_form():
    # sigma = a delta_1 - a delta_{-1}: K = 2aw/(1-w^2), so
    # h = (1 + (2a-1)w^2)/(1-w^2) with zeros at +-i/sqrt(2a-1)
    a = 2.0
    mu = AtomicMeasure([1.0, -1.0], [a, -a])
    want = 1j / np.sqrt(2 * a - 1)
    zs = zeros_via_numerator_roots(shifted(mu))
    assert zs.count == 2
    got = sorted((z for z, _ in zs.zeros), key=lambda z: z.imag)
    assert got[0] == pytest.approx(-want, abs=1e-12)
    assert got[1] == pytest.approx(want, abs=1e-12)


def test_zeros_via_L_takes_one_svd(monkeypatch, double_zero_measure):
    from blaschke_verify import linalg

    s = build_system_from_measure(double_zero_measure)
    calls = []
    singular_values = linalg.singular_values

    def counting(A):
        calls.append(np.shape(A))
        return singular_values(A)

    monkeypatch.setattr(linalg, "singular_values", counting)
    zs = zeros_via_L(s)
    assert zs.count == 3
    # only the merge radius of eigenvalues_clustered needs ||L||
    assert calls == [(3, 3)]


def test_double_zero_fixture(double_zero_measure):
    w0 = 0.4 + 0.3j
    other = -3.0 / 14.0 - 1j / 14.0
    f = shifted(double_zero_measure)
    for zs in (
        zeros_via_numerator_roots(f),
        zeros_via_argument_principle(f),
        zeros_via_L(build_system_from_measure(double_zero_measure)),
    ):
        assert zs.count == 3, zs
        by_mult = {m: z for z, m in zs.zeros}
        assert by_mult[2] == pytest.approx(w0, abs=1e-5)
        assert by_mult[1] == pytest.approx(other, abs=1e-7)
    # the analytic routes localize the double zero much better than the
    # defective eigencluster does
    zr = zeros_via_numerator_roots(f)
    assert {m: z for z, m in zr.zeros}[2] == pytest.approx(w0, abs=1e-7)


def test_winding_counts_match_root_counts():
    rng = spawn_rng(99, 0)
    hits = 0
    for i in range(25):
        mu = random_conditioned_measure(spawn_rng(99, i), max_atoms=6)
        f = shifted(mu)
        zs_arg = zeros_via_argument_principle(f)
        zs_roots = zeros_via_numerator_roots(f).within(zs_arg.radius)
        assert zs_arg.count == zs_roots.count
        hits += zs_arg.count
    assert hits > 0  # the family is not degenerate


def test_three_way_agreement_random():
    for i in range(40):
        mu = random_conditioned_measure(spawn_rng(7, i), max_atoms=6)
        f = shifted(mu)
        za = zeros_via_numerator_roots(f)
        zb = zeros_via_L(build_system_from_measure(mu))
        zc = zeros_via_argument_principle(f)
        ok1, w1 = match_zero_sets(za, zb, tol=1e-7)
        ok2, w2 = match_zero_sets(zc, za.within(zc.radius), tol=1e-7)
        assert ok1, (i, w1, za.zeros, zb.zeros)
        assert ok2, (i, w2, za.zeros, zc.zeros)


def test_direct_mode_agreement_random(double_zero_measure):
    # direct-mode functions exercise the pole-free contour on cells that
    # swallow atom poles
    f = CauchyFunction(source=double_zero_measure, mode="direct")
    za = zeros_via_numerator_roots(f)
    zc = zeros_via_argument_principle(f)
    ok, worst = match_zero_sets(zc, za.within(zc.radius), tol=1e-7)
    assert ok, (worst, za.zeros, zc.zeros)
    assert za.count == 2


def test_argument_principle_validates_radius():
    f = shifted(dirac(-1.0, 1.0))
    with pytest.raises(ValueError):
        zeros_via_argument_principle(f, radius=0.9999)
    with pytest.raises(ValueError):
        zeros_via_argument_principle(f, radius=0.0)


def test_contour_nudges_past_boundary_zero():
    # park the single zero exactly on the requested contour; the nudge ladder
    # must settle on a nearby clean radius instead of failing
    c = 1.0 / 0.999 - 1.0
    f = shifted(dirac(-1.0, c))
    r, k, M1, M2, err, zeros = zeros_mod._contour_with_nudges(f, 0.0, 0.999)
    assert r != 0.999
    assert abs(r / 0.999 - 1.0) <= 5e-4
    assert k in (0, 1)


def test_contour_route_reports_its_certified_radius():
    # the zero on the requested contour makes the route nudge its top circle;
    # the radius it reports is the nudged one, and it kept exactly the zeros
    # below it.  The routes that search the whole disk report no radius.
    mu = dirac(-1.0, 1.0 / 0.999 - 1.0)
    f = shifted(mu)
    zs = zeros_via_argument_principle(f)
    r = zeros_mod._contour_with_nudges(f, 0.0, 0.999)[0]
    assert zs.radius == r != 0.999
    assert zs.count == (0.999 < r)
    assert zeros_via_numerator_roots(f).radius is None
    assert zeros_via_L(build_system_from_measure(mu)).radius is None
    assert zeros_via_argument_principle(shifted(dirac(-1.0, 1.0))).radius == 0.999


def test_near_boundary_zero_found():
    c = 1.0 / 0.9985 - 1.0
    f = shifted(dirac(-1.0, c))
    zs = zeros_via_argument_principle(f)
    assert zs.count == 1
    assert zs.zeros[0][0] == pytest.approx(-0.9985, abs=1e-9)


def test_no_zeros_case():
    # tiny weight: zero at -1/(1+c) lies outside the search radius
    f = shifted(dirac(-1.0, 1e-4))
    zs = zeros_via_argument_principle(f)
    assert zs.zeros == ()
    assert zeros_via_L(build_system_from_measure(dirac(-1.0, 1e-4))).count == 1


def test_method_labels():
    f = shifted(dirac(-1.0, 1.0))
    assert zeros_via_argument_principle(f).method == METHOD_ARG


# ---------------------------------------------------------------------------
# nested trapezoid rule against the unnested one


def _reference_contour_moments(f, center, rho, early=True, log=None):
    """The unnested doubling loop: every level evaluates all n nodes afresh.

    With early=False it is the loop without the early end: the contour always
    ends two doublings after the winding settles, and is read only there.
    Each reading appends (its level, the settle level, accepted) to log.
    """
    poles = f.source.points
    if poles.size:
        clearance = np.abs(np.abs(poles - center) - rho)
        if float(clearance.min()) < zeros_mod._POLE_CLEARANCE_REL * rho:
            raise zeros_mod._NearZeroContour
    n = zeros_mod._BASE_NODES
    k = None
    settled_at = None
    prev = None
    err = math.inf
    while True:
        theta = 2.0 * np.pi * np.arange(n) / n
        e = np.exp(1j * theta)
        w = center + rho * e
        h, hp = zeros_mod._h_and_deriv_continuation(f, w)
        amax = float(np.max(np.abs(h)))
        if amax == 0.0 or float(np.min(np.abs(h))) <= zeros_mod._GUARD_REL * amax:
            raise zeros_mod._NearZeroContour
        logd = hp / h
        if poles.size:
            logd = logd + np.sum(1.0 / (w[:, None] - poles[None, :]), axis=1)
        g = logd * (rho * e)
        W = complex(np.mean(g))
        M1 = complex(np.mean(w * g))
        M2 = complex(np.mean(w * w * g))
        if settled_at is None:
            cand = round(W.real)
            if abs(W - cand) < zeros_mod._WINDING_TOL:
                k, settled_at = cand, n
                prev = (M1, M2)
            elif n >= zeros_mod._MAX_NODES:
                raise NonIntegerWinding(
                    f"winding {W!r} not near an integer after {n} nodes"
                )
        elif abs(W - k) > zeros_mod._WINDING_TOL:
            if n >= zeros_mod._MAX_NODES:
                raise NonIntegerWinding(
                    f"winding drifted from {k} to {W!r} at {n} nodes"
                )
            k, settled_at, prev, err = None, None, None, math.inf
        else:
            err = abs(M1 - prev[0]) + abs(M2 - prev[1])
            late = n >= settled_at * 4
            zeros = None
            if k >= 1 and (late or (early and err <= zeros_mod._POWER_SUM_FLOOR * rho)):
                sums, eg = [W], g
                for _ in range(2 * k):
                    eg = eg * e
                    sums.append(complex(np.mean(eg)))
                zeros = zeros_mod._hankel_zeros(f, center, rho, sums, err)
                if log is not None:
                    log.append((n, settled_at, zeros is not None))
            if zeros is not None or late:
                return k, M1, M2, err, zeros
            prev = (M1, M2)
        n *= 2


def _outcome(contour, f, center, rho):
    try:
        return repr(contour(f, center, rho))
    except (zeros_mod._NearZeroContour, NonIntegerWinding) as exc:
        return type(exc).__name__


def _contour_cases():
    with open(DATA / "contour_measures.json") as fh:
        tail = [measure_from_jsonable(m) for m in json.load(fh)["measures"]]
    with open(DATA / "double_zero_measure.json") as fh:
        double = measure_from_jsonable(json.load(fh))
    return [
        CauchyFunction(source=tail[0], mode="direct"),
        shifted(tail[1]),
        CauchyFunction(source=double, mode="direct"),
        # the zero sits on the top-level contour, so the route nudges
        shifted(dirac(-1.0, 1.0 / 0.999 - 1.0)),
        # a double zero: the top circle's reading is refused, and the route
        # quadrisects into covering cells, one of which swallows the atom pole
        # at e^{i pi/4}
        direct_with_zeros(
            [0.4 + 0.3j, 0.4 + 0.3j, -0.3 + 0.2j], np.exp(1j * np.array([np.pi / 4, 2.5, 4.5]))
        ),
    ]


def test_nested_contour_matches_unnested_bytes(monkeypatch):
    # every contour the route visits, with its outcome, node count and
    # readings, is replayed through the unnested rule
    visited = []
    nodes = []  # the contour's own node counts, Newton points not included
    readings = []  # (level, accepted) of each reading of the current contour
    newton = []
    real = zeros_mod._contour_moments
    evaluate = zeros_mod._h_and_deriv_continuation
    read = zeros_mod._hankel_zeros

    def spy(f, center, rho):
        nodes.clear()
        readings.clear()
        try:
            out = real(f, center, rho)
        except (zeros_mod._NearZeroContour, NonIntegerWinding) as exc:
            visited.append((f, center, rho, type(exc).__name__, sum(nodes), list(readings)))
            raise
        visited.append((f, center, rho, repr(out), sum(nodes), list(readings)))
        return out

    def counting(f, w):
        if not newton:
            nodes.append(w.size)
        return evaluate(f, w)

    def reading(*args):
        level = sum(nodes)  # the nested levels sum to the current one
        newton.append(True)
        try:
            out = read(*args)
        finally:
            newton.pop()
        readings.append((level, out is not None))
        return out

    monkeypatch.setattr(zeros_mod, "_contour_moments", spy)
    monkeypatch.setattr(zeros_mod, "_h_and_deriv_continuation", counting)
    monkeypatch.setattr(zeros_mod, "_hankel_zeros", reading)
    for f in _contour_cases():
        zeros_via_argument_principle(f)
    monkeypatch.undo()

    raised = swallowed = nudged = summed = ended_early = refused = twice = 0
    for i, (f, center, rho, got, _, reads) in enumerate(visited):
        log = []
        replay = _outcome(lambda *a: _reference_contour_moments(*a, log=log), f, center, rho)
        assert got == replay, (f.mode, center, rho)
        # the nested contour read its cell at the same levels, with the same outcomes
        assert reads == [(n, ok) for n, _, ok in log]
        raised += not got.startswith("(")
        summed += bool(reads)
        swallowed += bool(np.any(np.abs(f.source.points - center) < rho))
        # the nudge ladder retries the same center at another radius
        nudged += i > 0 and visited[i - 1][0] is f and visited[i - 1][1] == center
        # a contour reads its cell at most twice, at 2 n_s or 4 n_s: a second
        # reading comes only at 4 n_s after a refused early one, and no
        # reading follows an accepted one
        rule = [(n // settled, ok) for n, settled, ok in log]
        assert len(rule) <= 2 and all(m in (2, 4) for m, _ in rule)
        if len(rule) == 2:
            assert rule[0] == (2, False) and rule[1][0] == 4
        ended_early += rule == [(2, True)]
        twice += len(rule) == 2
        if rule[:1] == [(2, False)]:
            # a refused early reading leaves the contour to end as the loop
            # without the early end does, with the same bits
            refused += 1
            today = _outcome(
                lambda *a: _reference_contour_moments(*a, early=False), f, center, rho
            )
            assert got == today, (f.mode, center, rho)
    # the cases reach the regimes the nesting must not perturb
    assert max(v[4] for v in visited) >= 16384
    assert raised >= 1 and swallowed >= 1 and nudged >= 1 and summed >= 1
    assert ended_early >= 1 and refused >= 1 and twice >= 1


def test_level_nodes_are_fresh_nodes_and_read_only():
    # every level the route evaluates, up to the node budget, is cached
    zeros_via_argument_principle(shifted(dirac(-1.0, 1.0 / 0.999 - 1.0)))
    levels = sorted(zeros_mod._LEVEL_NODES)
    assert levels[0] == zeros_mod._BASE_NODES and levels[-1] == zeros_mod._MAX_NODES
    for n in levels:
        j = np.arange(n) if n == zeros_mod._BASE_NODES else np.arange(1, n, 2)
        fresh = np.exp(1j * (2.0 * np.pi * j / n))
        e = zeros_mod._level_nodes(n)
        assert e is zeros_mod._LEVEL_NODES[n] and not e.flags.writeable
        assert e.tobytes() == fresh.tobytes()
    assert sum(e.size for e in zeros_mod._LEVEL_NODES.values()) == zeros_mod._MAX_NODES


def test_levels_after_the_settle_stop_at_four_times_the_budget(monkeypatch):
    # the winding settles by _MAX_NODES, and the moments may take two more
    # doublings; the zero on the requested contour makes the route nudge its
    # top circle, and the nudged circle settles only at the budget
    levels = []
    level_nodes = zeros_mod._level_nodes

    def spy(n):
        levels.append(n)
        return level_nodes(n)

    monkeypatch.setattr(zeros_mod, "_level_nodes", spy)
    zeros_via_argument_principle(shifted(dirac(-1.0, 1.0 / 0.999 - 1.0)))
    assert max(levels) == 4 * zeros_mod._MAX_NODES


def test_converged_contour_ends_one_doubling_after_the_settle(monkeypatch):
    # h = (1 + 2w)/(1 + w): the winding settles at the first level, where the
    # moments have already converged, so the reading at twice that level is
    # accepted and the contour ends there, at 2048 nodes instead of 4096
    nodes = []
    newton = []
    evaluate = zeros_mod._h_and_deriv_continuation
    read = zeros_mod._hankel_zeros

    def counting(f, w):
        if not newton:
            nodes.append(w.size)
        return evaluate(f, w)

    def reading(*args):
        newton.append(True)  # the Newton points of a reading are not counted
        try:
            return read(*args)
        finally:
            newton.pop()

    monkeypatch.setattr(zeros_mod, "_h_and_deriv_continuation", counting)
    monkeypatch.setattr(zeros_mod, "_hankel_zeros", reading)
    zs = zeros_via_argument_principle(shifted(dirac(-1.0, 1.0)))
    assert zs.zeros == ((-0.5 + 0j, 1),)
    assert nodes == [zeros_mod._BASE_NODES, zeros_mod._BASE_NODES]
    assert sum(nodes) == 2048


def test_guard_sees_nodes_new_at_second_level():
    # the zero of h = (1 + 2w)/(1 + w) sits exactly on the first odd node of
    # the 2048-node rule, midway between two 1024-node neighbours
    f = shifted(dirac(-1.0, 1.0))
    rho = 0.1
    theta = 2.0 * np.pi * np.arange(1, 2048, 2) / 2048
    center = -0.5 - rho * np.exp(1j * theta[0])
    first = center + rho * np.exp(2j * np.pi * np.arange(1024) / 1024)
    h1 = np.abs(eval_h(f, first))
    assert h1.min() > zeros_mod._GUARD_REL * h1.max()  # level one alone passes
    for contour in (zeros_mod._contour_moments, _reference_contour_moments):
        with pytest.raises(zeros_mod._NearZeroContour):
            contour(f, complex(center), rho)


# ---------------------------------------------------------------------------
# reading a cell's zeros off its power sums


def direct_with_zeros(zs, points):
    """Direct-mode h = prod(w - z_i) / prod(1 - w conj(p_j)), one atom per zero.

    The weights are the residues N(p_j) / prod_{k != j} (1 - p_j conj(p_k))
    of the partial fractions, and the Lebesgue part is h at infinity.
    """
    pts = [complex(p) / abs(complex(p)) for p in points]
    weights = [
        np.prod([p - z for z in zs])
        / np.prod([1.0 - p * np.conj(q) for q in pts if q != p])
        for p in pts
    ]
    leb = 1.0 / np.prod([-np.conj(q) for q in pts])
    mu = AtomicMeasure(pts, weights, lebesgue=complex(leb))
    return CauchyFunction(source=mu, mode="direct")


CELL_ZEROS = [
    0.3 + 0.2j, -0.1 + 0.4j, 0.25 + 0.55j, 0.05 + 0.05j,
    -0.3 + 0.3j, 0.45 + 0.35j, 0.0 + 0.7j, 0.2 - 0.1j,
]


def _spy_centers(monkeypatch):
    centers = []
    real = zeros_mod._contour_with_nudges

    def spy(f, center, rho):
        centers.append(center)
        return real(f, center, rho)

    monkeypatch.setattr(zeros_mod, "_contour_with_nudges", spy)
    return centers


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7, 8])
def test_cell_with_distinct_zeros_has_no_children(monkeypatch, k):
    zs = CELL_ZEROS[:k]
    f = direct_with_zeros(zs, np.exp(2j * np.pi * (np.arange(k) + 0.3) / k))
    centers = _spy_centers(monkeypatch)
    out = []
    zeros_mod._isolate(f, 0.1 + 0.3j, 0.6, 1, out)
    assert centers == [0.1 + 0.3j]  # the cell's own contour and no child
    assert [m for _, m in out] == [1] * k
    if k == 8:
        # the rounded weights move the zeros of h 1.20e-12 from CELL_ZEROS
        # (for k <= 7 at most 1.0e-13), so compare with the zeros of the
        # rounded h itself, by 50-digit Newton from CELL_ZEROS
        zs = [_newton_mp(f, z) for z in zs]
    got = sorted((z for z, _ in out), key=lambda z: (z.real, z.imag))
    want = sorted(zs, key=lambda z: (z.real, z.imag))
    assert np.max(np.abs(np.array(got) - np.array(want))) < 1e-12


# k = 8 is left to the cell test above: with 8 atoms on the unit circle the
# rounded weights move the zeros of h by 1.2e-12 from CELL_ZEROS (the route's
# zeros are within 1.6e-13 of 50-digit Newton on the rounded h)
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7])
def test_top_circle_with_distinct_zeros_takes_one_contour(monkeypatch, k):
    zs = CELL_ZEROS[:k]
    f = direct_with_zeros(zs, np.exp(2j * np.pi * (np.arange(k) + 0.3) / k))
    centers = _spy_centers(monkeypatch)
    got = zeros_via_argument_principle(f)
    assert centers == [0.0]  # the top circle is read, no child is evaluated
    assert [m for _, m in got.zeros] == [1] * k
    want = sorted(zs, key=lambda z: (z.real, z.imag))
    assert np.max(np.abs(np.array([z for z, _ in got.zeros]) - np.array(want))) < 1e-12


@pytest.mark.parametrize("k", [9, 16])
def test_top_circle_with_many_distinct_zeros_takes_one_contour(monkeypatch, k):
    # zeros on a wobbly ring of radius 0.7: there the rounded weights move
    # the zeros of h far less than 1e-12 (nearer the centre they do not)
    j = np.arange(k)
    zs = 0.7 * np.exp(2j * np.pi * (j + 0.5) / k) * (1.0 + 0.05 * np.sin(j))
    f = direct_with_zeros(list(zs), np.exp(2j * np.pi * (j + 0.3) / k))
    centers = _spy_centers(monkeypatch)
    got = zeros_via_argument_principle(f)
    assert centers == [0.0]  # the top circle is read, no child is evaluated
    assert [m for _, m in got.zeros] == [1] * k
    ok, worst = match_zero_sets(got, ZeroSet(tuple((z, 1) for z in zs), "set"), 1e-12)
    assert ok, worst


def test_refused_top_circle_quadrisects(monkeypatch):
    # a double zero among 9 makes H0 singular, so the top circle's reading is
    # refused and its children report the multiplicities
    zs = CELL_ZEROS[:7] + [-0.5 - 0.3j]
    f = direct_with_zeros(zs + [-0.5 - 0.3j], np.exp(2j * np.pi * (np.arange(9) + 0.3) / 9))
    centers = _spy_centers(monkeypatch)
    got = zeros_via_argument_principle(f)
    assert centers[0] == 0.0 and len(centers) > 1
    want = ZeroSet(tuple((z, 1) for z in zs[:7]) + ((zs[7], 2),), "set")
    ok, worst = match_zero_sets(got, want, 1e-9)
    assert ok, (worst, got.zeros)


def _cell_moments(f, center, rho, monkeypatch):
    """radius, k, err and the scaled power sums of the cell's last reading."""
    last = []
    read = zeros_mod._hankel_zeros

    def spy(f, center, radius, sums, err):
        last[:] = [tuple(sums), err]
        return read(f, center, radius, sums, err)

    with monkeypatch.context() as m:
        m.setattr(zeros_mod, "_hankel_zeros", spy)
        radius, k, _, _, err, _ = zeros_mod._contour_with_nudges(f, center, rho)
    assert last[1] == err
    return radius, k, err, last[0]


def test_reading_refuses_a_wrong_power_sum_or_close_zeros(monkeypatch):
    f = direct_with_zeros(CELL_ZEROS[:3], [1, 1j, -1])
    radius, k, err, sums = _cell_moments(f, 0.1 + 0.3j, 0.6, monkeypatch)
    assert k == 3 and len(sums) == 7
    cell = (f, 0.1 + 0.3j, radius)
    assert zeros_mod._hankel_zeros(*cell, sums, err) is not None
    # the pencil does not use s_2k, so moving it is seen by the check alone
    moved = sums[:-1] + (sums[-1] + 1e-6,)
    assert zeros_mod._hankel_zeros(*cell, moved, err) is None
    # zeros closer than twice the spread floor are left to quadrisection
    wide = (0.5 / 3.0) ** 2
    assert zeros_mod._spread_floor(wide) == pytest.approx(0.5)
    assert zeros_mod._hankel_zeros(*cell, sums, wide) is None


def test_newton_refuses_zero_derivative(monkeypatch):
    f = direct_with_zeros(CELL_ZEROS[:2], [1, -1])
    radius, k, err, sums = _cell_moments(f, 0.1 + 0.3j, 0.6, monkeypatch)
    assert k == 2

    def flat(f, w):
        return np.ones_like(w), np.zeros_like(w)

    monkeypatch.setattr(zeros_mod, "_h_and_deriv_continuation", flat)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert zeros_mod._hankel_zeros(f, 0.1 + 0.3j, radius, sums, err) is None


def _spy_readings(monkeypatch):
    """Records (sums, result, number of Newton evaluations) of each reading."""
    readings = []
    real = zeros_mod._hankel_zeros
    evaluate = zeros_mod._h_and_deriv_continuation
    newton = []

    def spy(f, center, radius, sums, err):
        newton.clear()
        out = real(f, center, radius, sums, err)
        readings.append((sums, out, len(newton)))
        return out

    def counting(f, w):
        newton.append(w.size)
        return evaluate(f, w)

    monkeypatch.setattr(zeros_mod, "_hankel_zeros", spy)
    monkeypatch.setattr(zeros_mod, "_h_and_deriv_continuation", counting)
    return readings


def test_double_zero_cell_falls_back(monkeypatch, double_zero_measure):
    # one cell holds the double zero and the simple one: H0 is singular, so
    # the cell is quadrisected and its children report the multiplicities
    readings = _spy_readings(monkeypatch)
    out = []
    zeros_mod._isolate(shifted(double_zero_measure), 0.1 + 0.1j, 0.6, 1, out)
    # a 3-zero cell refused before any Newton step: only the singular-H0
    # test refuses that early
    assert len(readings[0][0]) == 7
    assert readings[0][1:] == (None, 0)
    w0, other = 0.4 + 0.3j, -3.0 / 14.0 - 1j / 14.0
    assert {m for z, m in out if abs(z - w0) < 1e-5} == {2}
    assert {m for z, m in out if abs(z - other) < 1e-7} == {1}
    assert all(min(abs(z - w0), abs(z - other)) < 1e-5 for z, _ in out)


def test_near_coincident_zeros_fall_back(monkeypatch):
    # zeros 1e-9 apart, and a third zero in the same top-level cell
    z1 = 0.3 + 0.2j
    f = direct_with_zeros([z1, z1 + 1e-9, -0.1 + 0.4j], [1, 1j, -1])
    readings = _spy_readings(monkeypatch)
    arg = zeros_via_argument_principle(f)
    # a 3-zero cell refused before any Newton step, i.e. by the singular-H0 test
    assert any(len(s) == 7 and (r, n) == (None, 0) for s, r, n in readings)
    roots = zeros_via_numerator_roots(f)
    ok, worst = match_zero_sets(arg, roots)
    assert ok, (worst, arg.zeros, roots.zeros)
    assert sorted(m for _, m in arg.zeros) == [1, 2]


def _newton_mp(f, z):
    """z refined by Newton on h in 50-digit arithmetic."""
    import mpmath

    mu = f.source
    with mpmath.workdps(50):
        zbar = [mpmath.mpc(complex(p)).conjugate() for p in mu.points]
        wts = [mpmath.mpc(complex(c)) for c in mu.weights]
        w = mpmath.mpc(z)
        for _ in range(50):
            K = mpmath.mpc(mu.lebesgue) + sum(c / (1 - w * p) for p, c in zip(zbar, wts))
            Kp = sum(c * p / (1 - w * p) ** 2 for p, c in zip(zbar, wts))
            h, hp = (K, Kp) if f.mode == "direct" else (1 + w * K, K + w * Kp)
            step = h / hp
            w -= step
            if abs(step) < mpmath.mpf(10) ** -40:
                break
        return complex(w)


@pytest.mark.parametrize("mode", ["shifted", "direct"])
def test_contour_zeros_of_32_atoms_match_mpmath_newton(mode):
    # the draw mu = random_atomic_measure(spawn_rng(1032, 1), 32, 32) scaled
    # to unit mass; its zeros are simple, and many cells hold several of them.
    # The file's bytes are json.dumps(measure_to_jsonable(...), indent=1) of
    # the atoms with weights mu.weights / mu.mass(), divided as one numpy
    # array, and lebesgue mu.lebesgue / mu.mass() (dividing each weight as a
    # Python complex leaves 4 of the 32 one ulp off)
    with open(DATA / "measure_32_atoms.json") as fh:
        f = CauchyFunction(source=measure_from_jsonable(json.load(fh)), mode=mode)
    zs = zeros_via_argument_principle(f)
    assert zs.count >= 18 and all(m == 1 for _, m in zs.zeros)
    for z, _ in zs.zeros:
        assert abs(z - _newton_mp(f, z)) < 1e-12, z


def _spy_contours(monkeypatch):
    """Records (center, radius) of every contour the route evaluates."""
    contours = []
    real = zeros_mod._contour_moments

    def spy(f, center, rho):
        contours.append((center, rho))
        return real(f, center, rho)

    monkeypatch.setattr(zeros_mod, "_contour_moments", spy)
    return contours


@pytest.mark.parametrize("mode", ["shifted", "direct"])
def test_32_atoms_take_few_contours(monkeypatch, mode):
    # a cell with any number of zeros is read off its pencil, so the 19
    # (shifted) and 18 (direct) zeros of this fixture are read off the top
    # circle in either mode; reading only cells of up to 8 zeros took 9
    # contours, and up to 4 zeros 65 (shifted) and 49 (direct)
    with open(DATA / "measure_32_atoms.json") as fh:
        f = CauchyFunction(source=measure_from_jsonable(json.load(fh)), mode=mode)
    contours = _spy_contours(monkeypatch)
    zs = zeros_via_argument_principle(f)
    assert zs.count >= 18
    assert len(contours) == 1, len(contours)


def _measure_64(mode):
    with open(DATA / "measure_64_atoms.json") as fh:
        return CauchyFunction(source=measure_from_jsonable(json.load(fh)), mode=mode)


@pytest.mark.parametrize("mode", ["shifted", "direct"])
def test_contour_zeros_of_64_atoms_match_mpmath_newton(mode):
    # the draw random_atomic_measure(spawn_rng(1064, 1), 64, 64) scaled to
    # unit mass: 29 (shifted) and 28 (direct) simple zeros
    f = _measure_64(mode)
    zs = zeros_via_argument_principle(f)
    assert zs.count >= 28 and all(m == 1 for _, m in zs.zeros)
    for z, _ in zs.zeros:
        assert abs(z - _newton_mp(f, z)) < 1e-12, z


def test_64_atoms_pair_with_route_1_in_few_contours(monkeypatch):
    f = _measure_64("shifted")
    contours = _spy_contours(monkeypatch)
    zs = zeros_via_argument_principle(f)
    eig = zeros_via_L(build_system_from_measure(f.source))
    ok, worst = match_zero_sets(zs, eig.within(zs.radius), PAIRING_TOL)
    assert ok, (worst, zs.zeros, eig.zeros)
    assert len(contours) <= 2, len(contours)


@pytest.mark.parametrize("mode", ["shifted", "direct"])
@pytest.mark.parametrize("seed,index", [(1, 24), (2, 8)])
def test_single_zeros_are_newton_polished(mode, seed, index):
    # draws whose contour route reads single zeros off the top circle or a
    # cell; a raw centroid s_1 / s_0 is about 2e-14 off on these
    mu = random_conditioned_measure(spawn_rng(seed, index), max_atoms=8)
    f = CauchyFunction(source=mu, mode=mode)
    zs = zeros_via_argument_principle(f)
    assert zs.count >= 1 and all(m == 1 for _, m in zs.zeros)
    for z, _ in zs.zeros:
        assert abs(z - _newton_mp(f, z)) < 1e-15, z


@pytest.mark.xfail(
    strict=True,
    raises=NumericalError,
    reason="ROADMAP item 4a: zeros 1e-5 apart end inconsistently in overlapping "
    "cells (multiplicities sum to 5, top contour counted 3)",
)
def test_zeros_1e5_apart_sum_to_the_top_count():
    z1 = 0.3 + 0.2j
    f = direct_with_zeros([z1, z1 + 1e-5, -0.1 + 0.4j], [1, 1j, -1])
    assert zeros_via_argument_principle(f).count == 3


# ---------------------------------------------------------------------------
# the three routes stay independent


def _code_keys(func):
    """(module, co_name, co_firstlineno) of func and of the code nested in it
    (comprehensions, lambdas); Python 3.10 has no co_qualname."""
    module = func.__globals__["__name__"]
    stack, keys = [func.__code__], set()
    while stack:
        code = stack.pop()
        keys.add((module, code.co_name, code.co_firstlineno))
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return keys


def _class_keys(cls):
    keys = set()
    for v in vars(cls).values():
        v = v.fget if isinstance(v, property) else v
        if isinstance(v, types.FunctionType):
            keys |= _code_keys(v)
    return keys


# what the routes may share: the eigensolver, the measure's atom count and the
# zero set they all return
ROUTE_SHARED = set().union(
    _code_keys(linalg.schur_decompose),
    _class_keys(linalg.SchurForm),
    _code_keys(linalg.as_square_matrix),
    _code_keys(linalg.cluster_points),
    _class_keys(linalg.EigenCluster),
    _code_keys(AtomicMeasure.natoms.fget),
    _class_keys(ZeroSet),
)


def _reached(call) -> set:
    """Package functions call reaches, run to its end or to its error."""
    seen = set()

    def profile(frame, event, arg):
        module = frame.f_globals.get("__name__", "")
        if event == "call" and module.startswith("blaschke_verify."):
            code = frame.f_code
            seen.add((module, code.co_name, code.co_firstlineno))

    sys.setprofile(profile)
    try:
        call()
    except BlaschkeVerifyError:
        pass
    finally:
        sys.setprofile(None)
    return seen


def test_routes_share_only_the_eigensolver():
    reached = [set(), set(), set()]
    for mu in data_measures():
        for mode in ("shifted", "direct"):
            f = CauchyFunction(source=mu, mode=mode)
            sigma = mu if mode == "shifted" else shift_measure(mu)
            routes = [
                lambda: zeros_via_L(build_system_from_measure(sigma)),
                lambda: zeros_via_argument_principle(f),
                lambda: zeros_via_numerator_roots(f),
            ]
            for seen, route in zip(reached, routes):
                seen |= _reached(route)
    for a, b in ((0, 1), (0, 2), (1, 2)):
        extra = (reached[a] & reached[b]) - ROUTE_SHARED
        assert not extra, (f"routes {a + 1} and {b + 1} share", sorted(extra))
    # each route ran its own machinery
    assert ("blaschke_verify.operator_model", "build_L") in {k[:2] for k in reached[0]}
    assert ("blaschke_verify.transform", "_K_values") in {k[:2] for k in reached[1]}
    assert ("blaschke_verify.transform", "rational_form") in {k[:2] for k in reached[2]}


def test_route_code_names_only_its_own_machinery():
    # the top-level definitions of zeros.py each route reaches by name, from
    # its entry point; a name of another route's machinery may appear only
    # in code that its own route alone reaches
    tree = ast.parse(pathlib.Path(zeros_mod.__file__).read_text())
    names = {
        node.name: {n.id if isinstance(n, ast.Name) else n.attr
                    for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }

    def closure(entry):
        todo, seen = [entry], set()
        while todo:
            name = todo.pop()
            if name not in seen:
                seen.add(name)
                todo.extend(n for n in names[name] if n in names)
        return seen

    routes = {
        "zeros_via_L": {"build_L"},
        "zeros_via_argument_principle": {"_K_values", "_K_derivative"},
        "zeros_via_numerator_roots": {"rational_form"},
    }
    reach = {entry: closure(entry) for entry in routes}
    for entry, own in routes.items():
        others = set().union(*(reach[e] for e in routes if e != entry))
        for name in own:
            users = {d for d, used in names.items() if name in used}
            assert users and users <= reach[entry] - others, (name, sorted(users))
