"""Acceptance gate: every criterion at its stated tolerance and budget.

Each test covers one criterion, asserts the numbers at the required
tolerance, times the measured section after a warmup pass, and prints a
single summary line (visible with -s or on failure).
"""

import json
import time

import numpy as np
import pytest

from blaschke_verify.bounds import (
    check_jensen_h1,
    check_real_line_variant,
    check_schur_chain,
    check_theorem2,
    check_theorem3,
)
from blaschke_verify.dilation import dilate, extract_spectral_measure, roundtrip_check
from blaschke_verify.measure import (
    dirac,
    inverse_shift,
    measure_from_jsonable,
    reflect_measure,
    shift_measure,
    total_variation,
)
from blaschke_verify.operator_model import (
    ContractionSystem,
    build_system_from_measure,
    eval_h_resolvent,
    perturbation_determinant,
)
from blaschke_verify.random_instances import (
    complex_gaussian,
    random_conditioned_measure,
    random_contraction,
    random_lowrank_pair,
    random_polynomial_with_unit_constant,
    random_real_line_atoms,
    random_system,
    spawn_rng,
)
from blaschke_verify.transform import CauchyFunction, eval_K
from blaschke_verify.zeros import (
    match_zero_sets,
    zeros_via_argument_principle,
    zeros_via_L,
    zeros_via_numerator_roots,
)

SEED = 20260822


def report_line(num, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"acceptance {num} [{label}]: {status} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_sharp_example():
    mu = dirac(-1.0, 1.0)
    check_theorem2(mu)  # warmup
    t0 = time.perf_counter()
    rep = check_theorem2(mu)
    elapsed = time.perf_counter() - t0
    zs = rep.details["zeros"]
    ok = (
        rep.passed
        and abs(rep.lhs - 1.0) <= 1e-10
        and abs(rep.rhs - 1.0) <= 1e-10
        and abs(rep.slack) <= 1e-10
        and len(zs) == 1
        and abs(complex(zs[0]["re"], zs[0]["im"]) - (-0.5)) <= 1e-10
        and elapsed < 1e-3
    )
    report_line(1, "sharp example", ok, f"slack={rep.slack:.2e}, {elapsed*1e3:.3f} ms")


def test_criterion_2_equality_family():
    family = (0.1, 0.5, 1.0, 2.0, 10.0)
    check_theorem2(dirac(-1.0, 0.1))  # warmup
    t0 = time.perf_counter()
    worst = 0.0
    for c in family:
        rep = check_theorem2(dirac(-1.0, c))
        z = complex(rep.details["zeros"][0]["re"], rep.details["zeros"][0]["im"])
        worst = max(
            worst,
            abs(rep.lhs - c),
            abs(rep.rhs - c),
            abs(z - (-1.0 / (1.0 + c))),
        )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 10e-3
    report_line(2, "equality family", ok, f"worst={worst:.2e}, {elapsed*1e3:.2f} ms")


def test_criterion_3_three_method_agreement(double_zero_measure):
    # warmup
    zeros_via_argument_principle(
        CauchyFunction(source=dirac(-1.0, 1.0), mode="shifted")
    )
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(200):
        rng = spawn_rng(SEED, i)
        mu = random_conditioned_measure(rng, max_atoms=8)
        f = CauchyFunction(source=mu, mode="shifted")
        za = zeros_via_numerator_roots(f)
        zb = zeros_via_L(build_system_from_measure(mu))
        zc = zeros_via_argument_principle(f)
        ok1, w1 = match_zero_sets(za, zb, tol=1e-7)
        ok2, w2 = match_zero_sets(zc, za.within(zc.radius), tol=1e-7)
        assert ok1 and ok2, (i, w1, w2, za.zeros, zb.zeros, zc.zeros)
        worst = max(worst, w1, w2)
    # frozen fixture: double zero at 0.4+0.3i plus a simple zero
    f = CauchyFunction(source=double_zero_measure, mode="shifted")
    za = zeros_via_numerator_roots(f)
    zc = zeros_via_argument_principle(f)
    zb = zeros_via_L(build_system_from_measure(double_zero_measure), cluster_tol=1e-5)
    okf, wf = match_zero_sets(za, zc, tol=1e-7)
    assert sorted(m for _, m in za.zeros) == [1, 2]
    assert sorted(m for _, m in zb.zeros) == [1, 2]
    assert okf, wf
    elapsed = time.perf_counter() - t0
    ok = elapsed < 30.0
    report_line(3, "zero agreement", ok, f"worst={worst:.2e}, {elapsed:.1f} s")


def test_criterion_4_determinant_identity():
    rng0 = spawn_rng(SEED, 10_000)
    s0 = random_system(rng0, max_dim=4)
    perturbation_determinant(s0, 2.0 + 0j)  # warmup
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(200):
        rng = spawn_rng(SEED, 20_000 + i)
        s = random_system(rng, max_dim=10)
        lams = 2.0 * np.exp(1j * rng.uniform(0, 2 * np.pi, size=10))
        for lam in lams:
            d1 = perturbation_determinant(s, complex(lam), method="rank1")
            d2 = perturbation_determinant(s, complex(lam), method="lu")
            d3 = eval_h_resolvent(s, 1.0 / complex(lam))
            scale = max(1.0, abs(d1))
            worst = max(worst, abs(d1 - d2) / scale, abs(d1 - d3) / scale)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-11 and elapsed < 10.0
    report_line(4, "determinant identity", ok, f"worst={worst:.2e}, {elapsed:.1f} s")


def test_criterion_5_numerical_range_trace_bound():
    A0, L0 = random_lowrank_pair(spawn_rng(SEED, 30_000), max_dim=4)
    check_theorem3(A0, L0)  # warmup
    t0 = time.perf_counter()
    min_slack = np.inf
    for i in range(500):
        rng = spawn_rng(SEED, 40_000 + i)
        A, L = random_lowrank_pair(rng, max_dim=10)
        rep = check_theorem3(A, L, tol=1e-7)
        chain = check_schur_chain(A, L, tol=1e-9)
        assert rep.passed, (i, rep.to_jsonable())
        assert chain.passed, (i, chain.to_jsonable())
        for link in chain.details["links"]:
            assert link["slack"] >= -1e-9, (i, link)
        min_slack = min(min_slack, rep.slack)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    report_line(5, "trace bound suite", ok, f"min slack={min_slack:.2e}, {elapsed:.1f} s")


def test_criterion_6_dilation_roundtrip():
    rng0 = spawn_rng(SEED, 50_000)
    s0 = ContractionSystem(
        A=random_contraction(rng0, 2),
        phi=complex_gaussian(rng0, (2,)),
        psi=complex_gaussian(rng0, (2,)),
    )
    roundtrip_check(s0, 2)  # warmup
    t0 = time.perf_counter()
    for i in range(100):
        rng = spawn_rng(SEED, 60_000 + i)
        n = int(rng.integers(1, 6))
        N = int(rng.integers(1, 11))
        s = ContractionSystem(
            A=random_contraction(rng, n),
            phi=complex_gaussian(rng, (n,)),
            psi=complex_gaussian(rng, (n,)),
        )
        d = dilate(s.A, N)
        unit = np.linalg.norm(d.U.conj().T @ d.U - np.eye(d.dim), 2)
        assert unit <= 1e-10 * d.dim, (i, unit)
        ephi = d.embed @ s.phi
        epsi = d.embed @ s.psi
        Uk = np.eye(d.dim, dtype=complex)
        Ak = np.eye(n, dtype=complex)
        for k in range(N + 1):
            want = complex(np.vdot(s.psi, Ak @ s.phi))
            got = complex(np.vdot(epsi, Uk @ ephi))
            assert abs(want - got) <= 1e-10 * max(1.0, abs(want)), (i, k)
            Uk = Uk @ d.U
            Ak = Ak @ s.A
        rep = roundtrip_check(s, N, taylor_tol=1e-9)
        assert rep.passed, (i, rep.to_jsonable())
        mu = extract_spectral_measure(d, s.phi, s.psi)
        assert total_variation(mu) <= s.norm_product() + 1e-10, i
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    report_line(6, "dilation roundtrip", ok, f"100 instances, {elapsed:.1f} s")


def test_criterion_7_jensen_chain():
    check_jensen_h1([1.0, -0.5])  # warmup
    t0 = time.perf_counter()
    for i in range(20):
        rng = spawn_rng(SEED, 70_000 + i)
        coeffs = random_polynomial_with_unit_constant(rng)
        rep = check_jensen_h1(coeffs, tol=1e-8)
        assert rep.passed, (i, rep.to_jsonable(), coeffs)
        for link in rep.details["links"]:
            assert link["slack"] >= -1e-8, (i, link)
    exact = check_jensen_h1([1.0, -2.0])
    assert abs(exact.rhs - 2.0) <= 1e-12, exact.rhs
    elapsed = time.perf_counter() - t0
    ok = elapsed < 10.0
    report_line(7, "jensen chain", ok, f"centered norm={exact.rhs!r}, {elapsed:.1f} s")


def test_criterion_8_real_line(real_line_fixture):
    atoms = [
        (a["s"], complex(a["c"]["re"], a["c"]["im"])) for a in real_line_fixture["atoms"]
    ]
    check_real_line_variant(atoms)  # warmup
    t0 = time.perf_counter()
    rep = check_real_line_variant(atoms, tol=1e-8)
    exp = real_line_fixture["expected"]
    assert rep.passed
    assert abs(rep.lhs - exp["lhs"]) <= 1e-8
    assert abs(rep.rhs - exp["rhs"]) <= 1e-8
    got = rep.details["upper_zeros"]
    assert len(got) == 1
    z = complex(got[0]["re"], got[0]["im"])
    assert abs(z - complex(exp["nonreal_zero"]["re"], exp["nonreal_zero"]["im"])) <= 1e-8
    for i in range(100):
        rng = spawn_rng(SEED, 80_000 + i)
        rep_i = check_real_line_variant(random_real_line_atoms(rng), tol=1e-8)
        assert rep_i.passed, (i, rep_i.to_jsonable())
    elapsed = time.perf_counter() - t0
    ok = elapsed < 10.0
    report_line(8, "real-line variant", ok, f"fixture slack={rep.slack:.3e}, {elapsed:.1f} s")


def random_disk_points(rng, n: int, rmax: float = 0.9) -> np.ndarray:
    """n points uniform in the disk of radius rmax (area measure)."""
    r = rmax * np.sqrt(rng.random(n))
    return r * np.exp(2j * np.pi * rng.random(n))


def test_criterion_9_measure_calculus():
    rng0 = spawn_rng(SEED, 90_000)
    mu0 = random_conditioned_measure(rng0, max_atoms=4)
    eval_K(mu0, 0.1 + 0.1j)  # warmup
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(200):
        rng = spawn_rng(SEED, 90_001 + i)
        mu = random_conditioned_measure(rng, max_atoms=8)
        w = random_disk_points(rng, 50, rmax=0.9)
        w = w[np.abs(w) > 1e-3]
        sig = shift_measure(mu)
        # backward shift: K(shift mu)(w) = (K(mu)(w) - K(mu)(0)) / w
        lhs = eval_K(sig, w)
        rhs = (eval_K(mu, w) - eval_K(mu, 0.0)) / w
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        # inverse shift recovers the measure pointwise
        back = inverse_shift(sig, h0=mu.mass())
        worst = max(worst, float(np.max(np.abs(eval_K(back, w) - eval_K(mu, w)))))
        # conjugation symmetry: K(conj mu)(w) = conj(K(mu)(conj w))
        worst = max(
            worst,
            float(
                np.max(
                    np.abs(
                        eval_K(mu.conjugate(), w) - np.conj(eval_K(mu, np.conj(w)))
                    )
                )
            ),
        )
        # reflection pushforward: K(refl mu)(w) = int 1/(1 - w zeta) d mu,
        # the change-of-variables formula evaluated directly on the atoms
        refl = reflect_measure(mu)
        direct = (
            np.sum(mu.weights[None, :] / (1.0 - w[:, None] * mu.points[None, :]), axis=1)
            + mu.lebesgue
        )
        worst = max(worst, float(np.max(np.abs(eval_K(refl, w) - direct))))
        assert total_variation(sig) <= total_variation(mu) + 1e-12, i
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 5.0
    report_line(9, "measure calculus", ok, f"worst={worst:.2e}, {elapsed:.1f} s")
