import math
import sys
import threading

import numpy as np
import pytest

from blaschke_verify.bounds import (
    BoundReport,
    check_corollary,
    check_jensen_h1,
    check_real_line_variant,
    check_schur_chain,
    check_theorem1,
    check_theorem2,
    check_theorem3,
    summarize,
    _pair_of,
)
from blaschke_verify.errors import InputError, ZeroOnBoundary
from blaschke_verify.linalg import NumericalRangeSupport
from blaschke_verify.measure import AtomicMeasure, dirac
from blaschke_verify.random_instances import (
    complex_gaussian,
    random_contraction,
    random_lowrank_pair,
    random_real_line_atoms,
    random_system,
    spawn_rng,
)
from blaschke_verify.operator_model import ContractionSystem


def test_bound_report_semantics():
    r = BoundReport(name="x", lhs=1.0, rhs=2.0, tol=0.0)
    assert r.slack == 1.0 and r.passed
    r2 = BoundReport(name="x", lhs=2.0 + 1e-12, rhs=2.0, tol=1e-9)
    assert r2.passed  # inside tolerance
    r3 = BoundReport(name="x", lhs=3.0, rhs=2.0, tol=1e-9)
    assert not r3.passed
    assert summarize([r.to_jsonable(), r3.to_jsonable()]) == {
        "total": 2, "failed": 1, "min_slack": -1.0
    }
    assert summarize([])["min_slack"] is None


def test_report_jsonable_is_plain():
    import json

    r = BoundReport(
        name="x",
        lhs=np.float64(1.0),
        rhs=np.float64(2.0),
        tol=1e-9,
        details={"v": np.float64(3.0), "ok": True, "n": 2},
    )
    payload = r.to_jsonable()
    json.dumps(payload, allow_nan=False)  # must not raise
    assert payload["pass"] is True


def test_sharp_example_attains_equality():
    rep = check_theorem2(dirac(-1.0, 1.0))
    assert rep.passed
    assert rep.lhs == pytest.approx(1.0, abs=1e-12)
    assert rep.rhs == pytest.approx(1.0, abs=1e-12)
    assert abs(rep.slack) < 1e-10


@pytest.mark.parametrize("c", [0.1, 0.5, 1.0, 2.0, 10.0])
def test_equality_family(c):
    # sigma = c delta_{-1}: zero at -1/(1+c), blaschke sum = c = total variation
    rep = check_theorem2(dirac(-1.0, c))
    assert rep.passed
    assert rep.lhs == pytest.approx(c, abs=1e-10)
    assert rep.rhs == pytest.approx(c, abs=1e-10)


def test_theorem2_random():
    from blaschke_verify.random_instances import random_atomic_measure

    for i in range(60):
        rng = spawn_rng(31, i)
        mu = random_atomic_measure(rng, max_atoms=8)
        rep = check_theorem2(mu)
        assert rep.passed, (i, rep.to_jsonable())


def test_theorem2_empty_measure():
    rep = check_theorem2(AtomicMeasure())
    assert rep.passed and rep.lhs == 0.0


def test_theorem1_random():
    for i in range(60):
        rng = spawn_rng(32, i)
        s = random_system(rng, max_dim=8)
        rep = check_theorem1(s)
        assert rep.passed, (i, rep.to_jsonable())


def test_corollary_requires_unit_mass():
    with pytest.raises(InputError, match=r"mu\(T\) = .*, need 1"):
        check_corollary(dirac(1.0, 2.0))


def test_corollary_on_normalized_measure():
    # mass one: direct transform equals 1 at 0, bound reads off shifted rep
    mu = AtomicMeasure([1.0, -1.0], [0.75 + 0.25j, 0.25 - 0.25j])
    assert abs(mu.mass() - 1.0) < 1e-15
    rep = check_corollary(mu)
    assert rep.passed


def test_theorem3_and_schur_random():
    for i in range(60):
        rng = spawn_rng(33, i)
        A, L = random_lowrank_pair(rng, max_dim=8)
        r1 = check_theorem3(A, L)
        r2 = check_schur_chain(A, L)
        assert r1.passed, (i, r1.to_jsonable())
        assert r2.passed, (i, r2.to_jsonable())
        # the chain's middle quantities coincide up to the Schur residual
        for link in r2.details["links"]:
            assert link["pass"], (i, link)


def test_schur_chain_identity_is_tight():
    rng = spawn_rng(34, 0)
    A, L = random_lowrank_pair(rng, max_dim=6)
    rep = check_schur_chain(A, L)
    ident = [l for l in rep.details["links"] if l["name"] == "diagonal-identity"][0]
    assert abs(ident["lhs"] - ident["rhs"]) < 1e-9


@pytest.mark.parametrize("check", [check_theorem3, check_schur_chain])
def test_trace_checks_reject_bad_shapes(check):
    with pytest.raises(InputError, match=r"A is \(3, 3\), L is \(2, 2\)"):
        check(np.eye(3, dtype=complex), np.eye(2, dtype=complex))
    empty = np.zeros((0, 0), complex)
    with pytest.raises(InputError, match=r"non-empty matrix, got shape \(0, 0\)"):
        check(empty, empty)


def _counting(monkeypatch, cls, name, counts):
    orig = getattr(cls, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return orig(*args, **kwargs)

    monkeypatch.setattr(cls, name, counted)


def _fresh_checks(A, L):
    """Both reports, each after another pair has replaced the slot's grid."""
    flush = np.eye(2, dtype=complex)
    reports = []
    for check in (check_theorem3, check_schur_chain):
        check_theorem3(flush, flush)
        reports.append(check(A, L))
    return reports


def test_trace_pair_builds_one_grid(monkeypatch):
    counts = {"__init__": 0, "_support_at": 0}
    _counting(monkeypatch, NumericalRangeSupport, "__init__", counts)
    _counting(monkeypatch, NumericalRangeSupport, "_support_at", counts)
    # four singleton clusters, three of them at a positive distance
    A, L = random_lowrank_pair(spawn_rng(38, 0), max_dim=6)
    fresh = _fresh_checks(A, L)
    flush = np.eye(2, dtype=complex)
    check_theorem3(flush, flush)

    start = dict(counts)
    r3 = check_theorem3(A, L)
    refinements = counts["_support_at"] - start["_support_at"]
    assert refinements > 0
    chain = check_schur_chain(A, L)
    # the chain's eigenvalues are the theorem's singleton centres: no new
    # grid and no new refinement
    assert counts == {"__init__": start["__init__"] + 1,
                      "_support_at": start["_support_at"] + refinements}
    assert [r3, chain] == fresh

    # the slot is one for all threads: another thread checking the pair just
    # checked builds no new grid, and gets the same reports
    before = counts["__init__"]
    out = []
    worker = threading.Thread(
        target=lambda: out.extend([check_theorem3(A, L), check_schur_chain(A, L)])
    )
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert counts["__init__"] == before
    assert out == fresh

    # the slot keeps the last pair only, keyed by A and L together: pairs
    # P, Q, P in turn build three grids, though Q differs from P only in L
    check_theorem3(flush, flush)
    before = counts["__init__"]
    for pair in ((A, L), (A, 2 * L), (A, L)):
        check_theorem3(*pair)
    assert counts["__init__"] == before + 3

    # one changed entry of A, in place, is a different pair: it is rebuilt,
    # and the old pair's support still answers for the matrix it was built
    # from; the entry is put back exactly (x + 0.5 - 0.5 need not be x)
    old = _pair_of(A, L)[2]
    built_from = A.copy()
    a00 = A[0, 0]
    A[0, 0] += 0.5
    before = counts["__init__"]
    check_theorem3(A, L)
    assert counts["__init__"] == before + 1
    assert np.array_equal(old.A, built_from)
    far = 10.0 + 10.0j
    assert old.distance(far) == NumericalRangeSupport(built_from).distance(far)
    assert old.distance(far) != NumericalRangeSupport(A).distance(far)
    A[0, 0] = a00

    # a point far outside Num(A) is refined once, then looked up
    support = NumericalRangeSupport(A)
    refinements = counts["_support_at"]
    d = support.distance(10.0 + 10.0j)
    assert d > 0 and counts["_support_at"] > refinements
    refinements = counts["_support_at"]
    assert support.distance(10.0 + 10.0j) is d
    assert counts["_support_at"] == refinements


def test_trace_pair_factors_l_once(monkeypatch):
    # both checks need the Schur form of L and the SVD of L - A; the pair
    # takes each once, plus the SVD of L for the trace bound's merge radius
    from blaschke_verify import bounds, linalg

    counts = {"schur_decompose": 0, "singular_values": 0}
    for module, name in ((linalg, "schur_decompose"), (bounds, "schur_decompose"),
                         (linalg, "singular_values")):
        _counting(monkeypatch, module, name, counts)
    A, L = random_lowrank_pair(spawn_rng(38, 1), max_dim=6)
    want = _fresh_checks(A, L)
    check_theorem3(np.eye(2, dtype=complex), np.eye(2, dtype=complex))
    counts.update(schur_decompose=0, singular_values=0)
    assert [check_theorem3(A, L), check_schur_chain(A, L)] == want
    assert counts == {"schur_decompose": 1, "singular_values": 2}


def test_trace_checks_agree_across_threads():
    """Eight threads on two cores, switching every 10 us, each running both
    checks over pairs that the other threads run too, give the serial reports."""
    pairs = [random_lowrank_pair(spawn_rng(39, i), max_dim=5) for i in range(6)]
    want = [(check_theorem3(A, L), check_schur_chain(A, L)) for A, L in pairs]
    got = {}

    def work(t):
        for k in range(len(pairs)):
            i = (k + t) % len(pairs)
            A, L = (M.copy() for M in pairs[i])
            got[t, i] = (check_theorem3(A, L), check_schur_chain(A, L))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert got == {(t, i): want[i] for t in range(8) for i in range(len(pairs))}


def test_jensen_centered_example():
    # h = 1 - 2w: single zero at 1/2, geometric mean exp(log 2), centered
    # h1 norm exactly 2
    rep = check_jensen_h1([1.0, -2.0])
    assert rep.passed
    assert rep.lhs == pytest.approx(1.0, abs=1e-9)
    assert rep.rhs == pytest.approx(2.0, abs=1e-12)
    links = {l["name"]: l for l in rep.details["links"]}
    gm = links["blaschke-vs-geometric-mean"]
    assert gm["rhs"] == pytest.approx(math.exp(math.log(2.0)) - 1.0, abs=1e-9)
    h1 = links["geometric-vs-h1"]
    assert h1["rhs"] == pytest.approx(rep.details["h1_norm"] - 1.0, abs=1e-12)


def test_jensen_rejects_bad_constant():
    with pytest.raises(InputError, match="must have constant coefficient 1"):
        check_jensen_h1([0.5, 1.0])


def test_jensen_zero_on_boundary():
    with pytest.raises(ZeroOnBoundary):
        check_jensen_h1([1.0, -1.0])  # h(1) = 0


def _near_circle_polynomial(modulus, angle):
    """h = (1 - w/z)(1 - w/(0.5 + 0.2i)) with |z| = modulus, so h(0) = 1."""
    z = modulus * np.exp(1j * angle)
    return np.polynomial.polynomial.polymul([1.0, -1.0 / z], [1.0, -1.0 / (0.5 + 0.2j)])


def _three_pass_mean(values_at):
    """Reference: one trapezoid doubling loop per integrand, returning (mean, nodes)."""
    n = 4096
    prev = None
    while n <= 2**20:
        theta = 2.0 * np.pi * np.arange(n) / n
        cur = float(np.mean(values_at(theta)))
        if prev is not None and abs(cur - prev) < 1e-9:
            return cur, n
        prev = cur
        n *= 2
    raise AssertionError("reference mean did not settle")


@pytest.mark.parametrize(
    "modulus, angle", [(0.999, 0.3), (0.9995, 1.0), (0.9999, 2.0), (1 / 0.999, 0.5)]
)
def test_jensen_means_match_three_pass_loop(modulus, angle):
    from blaschke_verify.bounds import _circle_means

    coeffs = _near_circle_polynomial(modulus, angle)

    def h(theta):
        return np.polynomial.polynomial.polyval(np.exp(1j * theta), coeffs)

    ref = [
        _three_pass_mean(lambda t: np.log(np.abs(h(t)))),
        _three_pass_mean(lambda t: np.abs(h(t))),
        _three_pass_mean(lambda t: np.abs(h(t) - 1.0)),
    ]
    # the three means settle at different rules, so each is taken on its own
    assert len({n for _, n in ref}) > 1
    assert _circle_means(coeffs) == [m for m, _ in ref]
    d = check_jensen_h1(coeffs).details
    assert d["geometric_mean"] == math.exp(ref[0][0])
    assert d["h1_norm"] == ref[1][0]
    assert d["h1_norm_centered"] == ref[2][0]


def test_jensen_samples_h_once_per_rule(monkeypatch):
    sizes = []
    polyval = np.polyval

    def counting(p, x):
        sizes.append(np.size(x))
        return polyval(p, x)

    monkeypatch.setattr(np, "polyval", counting)
    check_jensen_h1(_near_circle_polynomial(0.9999, 2.0))
    # probe and all three means share the samples: 4096, 8192, ..., 131072
    assert sizes == [4096 * 2**k for k in range(6)]


def test_jensen_random():
    from blaschke_verify.random_instances import random_polynomial_with_unit_constant

    for i in range(20):
        rng = spawn_rng(35, i)
        coeffs = random_polynomial_with_unit_constant(rng)
        rep = check_jensen_h1(coeffs)
        assert rep.passed, (i, rep.to_jsonable(), coeffs)


def test_real_line_two_atom_oracle():
    # h(lam) = c1/(s1-lam) + c2/(s2-lam) with c1+c2 = 1 vanishes exactly at
    # lam = c1 s2 + c2 s1
    c1, c2 = 0.5 + 0.5j, 0.5 - 0.5j
    s1, s2 = -1.0, 2.0
    lam = c1 * s2 + c2 * s1
    assert abs(c1 / (s1 - lam) + c2 / (s2 - lam)) < 1e-14
    rep = check_real_line_variant([(s1, c1), (s2, c2)])
    assert rep.passed
    assert rep.lhs == pytest.approx(abs(lam.imag), abs=1e-10)
    assert rep.rhs == pytest.approx(abs(s1) * abs(c1) + abs(s2) * abs(c2), abs=1e-12)


def test_real_line_fixture(real_line_fixture):
    atoms = [
        (a["s"], complex(a["c"]["re"], a["c"]["im"])) for a in real_line_fixture["atoms"]
    ]
    rep = check_real_line_variant(atoms)
    exp = real_line_fixture["expected"]
    assert rep.passed
    assert rep.lhs == pytest.approx(exp["lhs"], abs=1e-8)
    assert rep.rhs == pytest.approx(exp["rhs"], abs=1e-12)
    zs = rep.details["upper_zeros"]
    assert len(zs) == 1
    assert complex(zs[0]["re"], zs[0]["im"]) == pytest.approx(
        complex(exp["nonreal_zero"]["re"], exp["nonreal_zero"]["im"]), abs=1e-8
    )


def test_real_line_requires_unit_sum():
    with pytest.raises(InputError, match=r"weights sum to .*, need 1"):
        check_real_line_variant([(0.0, 2.0 + 0j)])


def test_real_line_random():
    for i in range(40):
        rng = spawn_rng(36, i)
        atoms = random_real_line_atoms(rng)
        rep = check_real_line_variant(atoms)
        assert rep.passed, (i, rep.to_jsonable(), atoms)


def test_dilation_report_shape():
    rng = spawn_rng(37, 0)
    n = 3
    s = ContractionSystem(
        A=random_contraction(rng, n),
        phi=complex_gaussian(rng, (n,)),
        psi=complex_gaussian(rng, (n,)),
    )
    from blaschke_verify.dilation import roundtrip_check

    rep = roundtrip_check(s, 4)
    assert rep.passed
    assert set(rep.details) >= {"order", "dimension", "taylor_errors", "n_atoms"}
