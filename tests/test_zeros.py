"""Cross-validation of the three zero-finding routes.

The reciprocal-eigenvalue, argument-principle, and numerator-root routes
share nothing but the measure, so agreement on random instances is strong
evidence each is right; hand-computable examples pin the absolute answers.
"""

import json
import math
import warnings

import numpy as np
import pytest

from blaschke_verify.errors import NonIntegerWinding, NumericalError
from blaschke_verify.measure import (
    AtomicMeasure,
    UnitPoint,
    dirac,
    measure_from_jsonable,
)
from blaschke_verify.operator_model import build_system_from_measure
from blaschke_verify.random_instances import random_conditioned_measure, spawn_rng
from blaschke_verify.transform import CauchyFunction
from blaschke_verify.zeros import (
    METHOD_ARG,
    ZeroSet,
    blaschke_sum,
    match_zero_sets,
    zeros_via_argument_principle,
    zeros_via_L,
    zeros_via_numerator_roots,
)
from blaschke_verify import zeros as zeros_mod

from conftest import DATA


def shifted(mu):
    return CauchyFunction(source=mu, mode="shifted")


def cap_zeros(zs, cap=0.999):
    return ZeroSet(
        zeros=tuple((z, m) for z, m in zs.zeros if abs(z) < cap), method=zs.method
    )


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
    mu = AtomicMeasure(
        atoms=((UnitPoint(1.0 + 0j), a + 0j), (UnitPoint(-1.0 + 0j), -a + 0j))
    )
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
        zs_roots = cap_zeros(zeros_via_numerator_roots(f))
        zs_arg = zeros_via_argument_principle(f)
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
        ok2, w2 = match_zero_sets(zc, cap_zeros(za), tol=1e-7)
        assert ok1, (i, w1, za.zeros, zb.zeros)
        assert ok2, (i, w2, za.zeros, zc.zeros)


def test_direct_mode_agreement_random(double_zero_measure):
    # direct-mode functions exercise the pole-free contour on cells that
    # swallow atom poles
    f = CauchyFunction(source=double_zero_measure, mode="direct")
    za = zeros_via_numerator_roots(f)
    zc = zeros_via_argument_principle(f)
    ok, worst = match_zero_sets(zc, cap_zeros(za), tol=1e-7)
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
    r, k, M1, M2, err, sums = zeros_mod._contour_with_nudges(f, 0.0, 0.999)
    assert r != 0.999
    assert abs(r / 0.999 - 1.0) <= 5e-4
    assert k in (0, 1)


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


def _reference_contour_moments(f, center, rho):
    """The unnested doubling loop: every level evaluates all n nodes afresh."""
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
            if prev is not None:
                err = abs(M1 - prev[0]) + abs(M2 - prev[1])
            if n >= settled_at * 4:
                sums = ()
                if 1 <= k <= zeros_mod._HANKEL_MAX:
                    sums, eg = [W], g
                    for _ in range(2 * k):
                        eg = eg * e
                        sums.append(complex(np.mean(eg)))
                    sums = tuple(sums)
                return k, M1, M2, err, sums
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
    ]


def test_nested_contour_matches_unnested_bytes(monkeypatch):
    # every contour the route visits, with its outcome and node count, is
    # replayed through the unnested rule
    visited = []
    nodes = []
    real = zeros_mod._contour_moments
    evaluate = zeros_mod._h_and_deriv_continuation

    def spy(f, center, rho):
        nodes.clear()
        try:
            out = real(f, center, rho)
        except (zeros_mod._NearZeroContour, NonIntegerWinding) as exc:
            visited.append((f, center, rho, type(exc).__name__, sum(nodes)))
            raise
        visited.append((f, center, rho, repr(out), sum(nodes)))
        return out

    def counting(f, w):
        nodes.append(w.size)
        return evaluate(f, w)

    monkeypatch.setattr(zeros_mod, "_contour_moments", spy)
    monkeypatch.setattr(zeros_mod, "_h_and_deriv_continuation", counting)
    for f in _contour_cases():
        zeros_via_argument_principle(f)
    monkeypatch.undo()

    raised = swallowed = nudged = summed = 0
    for i, (f, center, rho, got, _) in enumerate(visited):
        assert got == _outcome(_reference_contour_moments, f, center, rho), (
            f.mode, center, rho,
        )
        raised += not got.startswith("(")
        summed += got.startswith("(") and not got.endswith(", ())")
        swallowed += bool(np.any(np.abs(f.source.points - center) < rho))
        # the nudge ladder retries the same center at another radius
        nudged += i > 0 and visited[i - 1][0] is f and visited[i - 1][1] == center
    # the cases reach the regimes the nesting must not perturb
    assert max(v[4] for v in visited) >= 16384
    assert raised >= 1 and swallowed >= 1 and nudged >= 1 and summed >= 1


def test_guard_sees_nodes_new_at_second_level():
    # the zero of h = (1 + 2w)/(1 + w) sits exactly on the first odd node of
    # the 2048-node rule, midway between two 1024-node neighbours
    f = shifted(dirac(-1.0, 1.0))
    rho = 0.1
    theta = 2.0 * np.pi * np.arange(1, 2048, 2) / 2048
    center = -0.5 - rho * np.exp(1j * theta[0])
    first = center + rho * np.exp(2j * np.pi * np.arange(1024) / 1024)
    h1 = np.abs(f(first))
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
    pts = [UnitPoint(p).value for p in points]
    weights = [
        np.prod([p - z for z in zs])
        / np.prod([1.0 - p * np.conj(q) for q in pts if q != p])
        for p in pts
    ]
    leb = 1.0 / np.prod([-np.conj(q) for q in pts])
    mu = AtomicMeasure(
        atoms=tuple((UnitPoint(p), complex(c)) for p, c in zip(pts, weights)),
        lebesgue=complex(leb),
    )
    return CauchyFunction(source=mu, mode="direct")


CELL_ZEROS = [0.3 + 0.2j, -0.1 + 0.4j, 0.25 + 0.55j, 0.05 + 0.05j]


def _spy_centers(monkeypatch):
    centers = []
    real = zeros_mod._contour_with_nudges

    def spy(f, center, rho):
        centers.append(center)
        return real(f, center, rho)

    monkeypatch.setattr(zeros_mod, "_contour_with_nudges", spy)
    return centers


@pytest.mark.parametrize("k", [2, 3, 4])
def test_cell_with_distinct_zeros_has_no_children(monkeypatch, k):
    zs = CELL_ZEROS[:k]
    f = direct_with_zeros(zs, np.exp(2j * np.pi * (np.arange(k) + 0.3) / k))
    centers = _spy_centers(monkeypatch)
    out = []
    zeros_mod._isolate(f, 0.1 + 0.3j, 0.6, 1, out)
    assert centers == [0.1 + 0.3j]  # the cell's own contour and no child
    assert [m for _, m in out] == [1] * k
    got = sorted((z for z, _ in out), key=lambda z: (z.real, z.imag))
    want = sorted(zs, key=lambda z: (z.real, z.imag))
    assert np.max(np.abs(np.array(got) - np.array(want))) < 1e-12


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_top_circle_with_distinct_zeros_takes_one_contour(monkeypatch, k):
    zs = CELL_ZEROS[:k]
    f = direct_with_zeros(zs, np.exp(2j * np.pi * (np.arange(k) + 0.3) / k))
    centers = _spy_centers(monkeypatch)
    got = zeros_via_argument_principle(f)
    assert centers == [0.0]  # the top circle is read, no child is evaluated
    assert [m for _, m in got.zeros] == [1] * k
    want = sorted(zs, key=lambda z: (z.real, z.imag))
    assert np.max(np.abs(np.array([z for z, _ in got.zeros]) - np.array(want))) < 1e-12


def test_top_circle_with_five_zeros_quadrisects(monkeypatch):
    zs = CELL_ZEROS + [-0.5 - 0.3j]
    f = direct_with_zeros(zs, np.exp(2j * np.pi * (np.arange(5) + 0.3) / 5))
    centers = _spy_centers(monkeypatch)
    got = zeros_via_argument_principle(f)
    assert centers[0] == 0.0 and len(centers) > 1
    assert got.count == 5 and [m for _, m in got.zeros] == [1] * 5


def _cell_moments(f, center, rho):
    radius, k, _, _, err, sums = zeros_mod._contour_with_nudges(f, center, rho)
    return radius, k, err, sums


def test_reading_refuses_a_wrong_power_sum_or_close_zeros():
    f = direct_with_zeros(CELL_ZEROS[:3], [1, 1j, -1])
    radius, k, err, sums = _cell_moments(f, 0.1 + 0.3j, 0.6)
    assert k == 3 and len(sums) == 7
    cell = (f, 0.1 + 0.3j, radius)
    assert zeros_mod._hankel_zeros(*cell, sums, err, 1e-8) is not None
    # the pencil does not use s_2k, so moving it is seen by the check alone
    moved = sums[:-1] + (sums[-1] + 1e-6,)
    assert zeros_mod._hankel_zeros(*cell, moved, err, 1e-8) is None
    # zeros closer than twice the spread floor are left to quadrisection
    assert zeros_mod._hankel_zeros(*cell, sums, err, 0.5) is None


def test_newton_refuses_zero_derivative(monkeypatch):
    f = direct_with_zeros(CELL_ZEROS[:2], [1, -1])
    radius, k, err, sums = _cell_moments(f, 0.1 + 0.3j, 0.6)
    assert k == 2

    def flat(f, w):
        return np.ones_like(w), np.zeros_like(w)

    monkeypatch.setattr(zeros_mod, "_h_and_deriv_continuation", flat)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert zeros_mod._hankel_zeros(f, 0.1 + 0.3j, radius, sums, err, 1e-8) is None


def _spy_readings(monkeypatch):
    """Records (sums, result, number of Newton evaluations) of each reading."""
    readings = []
    real = zeros_mod._hankel_zeros
    evaluate = zeros_mod._h_and_deriv_continuation
    newton = []

    def spy(f, center, radius, sums, err, floor):
        newton.clear()
        out = real(f, center, radius, sums, err, floor)
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
    # the draw random_atomic_measure(spawn_rng(1032, 1), 32, 32) scaled to
    # unit mass; its zeros are simple, and many cells hold several of them
    with open(DATA / "measure_32_atoms.json") as fh:
        f = CauchyFunction(source=measure_from_jsonable(json.load(fh)), mode=mode)
    zs = zeros_via_argument_principle(f)
    assert zs.count >= 18 and all(m == 1 for _, m in zs.zeros)
    for z, _ in zs.zeros:
        assert abs(z - _newton_mp(f, z)) < 1e-12, z


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
    reason="ROADMAP item 3: zeros 1e-5 apart end inconsistently in overlapping "
    "cells (multiplicities sum to 5, top contour counted 3)",
)
def test_zeros_1e5_apart_sum_to_the_top_count():
    z1 = 0.3 + 0.2j
    f = direct_with_zeros([z1, z1 + 1e-5, -0.1 + 0.4j], [1, 1j, -1])
    assert zeros_via_argument_principle(f).count == 3
