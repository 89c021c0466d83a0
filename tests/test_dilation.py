"""Unitary dilation, spectral measures, and the moment round trip."""

import dataclasses
import inspect

import numpy as np
import pytest

from blaschke_verify import cli
from blaschke_verify.dilation import (
    TAYLOR_TOL,
    DilationResult,
    dilate,
    extract_spectral_measure,
    roundtrip_check,
    roundtrip_report,
)
from blaschke_verify.errors import DilationError, NotAContraction
from blaschke_verify.measure import total_variation
from blaschke_verify.operator_model import ContractionSystem
from blaschke_verify.random_instances import complex_gaussian, random_contraction, spawn_rng
from blaschke_verify.transform import CauchyFunction, eval_h, taylor_moment


def random_sys(seed, n):
    rng = spawn_rng(seed, 0)
    return ContractionSystem(
        A=random_contraction(rng, n),
        phi=complex_gaussian(rng, (n,)),
        psi=complex_gaussian(rng, (n,)),
    )


def test_dilation_is_unitary():
    rng = spawn_rng(40, 0)
    for trial in range(10):
        n = int(rng.integers(1, 5))
        N = int(rng.integers(1, 8))
        A = random_contraction(rng, n)
        d = dilate(A, N)
        assert d.dim == (N + 1) * n
        I = np.eye(d.dim)
        assert np.linalg.norm(d.U.conj().T @ d.U - I, 2) < 1e-10 * d.dim
        assert np.linalg.norm(d.U @ d.U.conj().T - I, 2) < 1e-10 * d.dim


def test_compression_up_to_order():
    rng = spawn_rng(41, 0)
    n, N = 3, 5
    A = random_contraction(rng, n)
    d = dilate(A, N)
    P = d.embed  # dim x n isometry onto the first block
    Uk = np.eye(d.dim, dtype=complex)
    Ak = np.eye(n, dtype=complex)
    for k in range(N + 1):
        comp = P.conj().T @ Uk @ P
        assert np.linalg.norm(comp - Ak, 2) < 1e-10, k
        Uk = Uk @ d.U
        Ak = Ak @ A
    # one past the order the defect leaks back in; for a strict contraction
    # the identity genuinely breaks, which is why N must exceed the taylor
    # order of interest
    comp = P.conj().T @ np.linalg.matrix_power(d.U, N + 1) @ P
    assert np.linalg.norm(comp - np.linalg.matrix_power(A, N + 1), 2) > 1e-8


def test_unitary_input_dilates_trivially_per_order():
    # a unitary A has zero defect; compressions agree at every order
    th = 2 * np.pi / 5
    A = np.diag([np.exp(1j * th), np.exp(3j * th)])
    d = dilate(A, 4)
    P = d.embed
    for k in range(10):
        comp = P.conj().T @ np.linalg.matrix_power(d.U, k) @ P
        assert np.linalg.norm(comp - np.linalg.matrix_power(A, k), 2) < 1e-9


def test_dilate_takes_svds_of_n_square_matrices_only(monkeypatch):
    # the gates of the (N+1)n-square products read Frobenius norms; the
    # residual is formed again only when it is read
    import blaschke_verify.linalg as la

    shapes = []
    svd = la.singular_values
    monkeypatch.setattr(la, "singular_values", lambda A: shapes.append(np.shape(A)) or svd(A))
    A = random_contraction(spawn_rng(42, 0), 3)
    d = dilate(A, 6)
    assert set(shapes) == {(3, 3)}
    want = np.linalg.svd(d.U.conj().T @ d.U - np.eye(d.dim), compute_uv=False)[0]
    assert d.unitarity_residual == want
    assert shapes[-1] == (21, 21)


def test_dilate_rejects_expansion():
    with pytest.raises(NotAContraction):
        dilate(np.array([[1.2 + 0j]]), 2)


def test_swap_matrix_spectral_measure():
    # A = [0]: the order-1 dilation is the swap [[0,1],[1,0]] whose spectral
    # measure for phi = psi = e0 is (delta_1 + delta_{-1})/2
    s = ContractionSystem(
        A=np.array([[0.0 + 0j]]),
        phi=np.array([1.0 + 0j]),
        psi=np.array([1.0 + 0j]),
    )
    d = dilate(s.A, 1)
    assert np.allclose(d.U, np.array([[0.0, 1.0], [1.0, 0.0]]))
    mu = extract_spectral_measure(d, s.phi, s.psi)
    assert mu.natoms == 2
    pts = sorted(mu.points, key=lambda z: z.real)
    assert pts[0] == pytest.approx(-1.0) and pts[1] == pytest.approx(1.0)
    assert np.allclose(sorted(w.real for w in mu.weights), [0.5, 0.5])
    assert np.allclose([w.imag for w in mu.weights], 0.0)


def test_swap_matrix_moments_by_hand():
    # moments of (delta_1 + delta_{-1})/2 alternate 1, 0, 1, 0, ...
    s = ContractionSystem(
        A=np.array([[0.0 + 0j]]), phi=np.array([1.0 + 0j]), psi=np.array([1.0 + 0j])
    )
    mu = extract_spectral_measure(dilate(s.A, 1), s.phi, s.psi)
    for m in range(6):
        want = 1.0 if m % 2 == 0 else 0.0
        assert taylor_moment(mu, m) == pytest.approx(want, abs=1e-12)


def test_spectral_measure_mass_equals_pairing():
    rng = spawn_rng(42, 0)
    for trial in range(10):
        n = int(rng.integers(1, 4))
        N = int(rng.integers(1, 6))
        s = ContractionSystem(
            A=random_contraction(rng, n),
            phi=complex_gaussian(rng, (n,)),
            psi=complex_gaussian(rng, (n,)),
        )
        d = dilate(s.A, N)
        mu = extract_spectral_measure(d, s.phi, s.psi)
        want = complex(np.vdot(d.embed @ s.psi, d.embed @ s.phi))
        assert mu.mass() == pytest.approx(want, abs=1e-9)
        # embedding is isometric, so the pairing equals the original one
        assert want == pytest.approx(complex(np.vdot(s.psi, s.phi)), abs=1e-12)


@pytest.mark.xfail(
    strict=True,
    raises=DilationError,
    reason="ROADMAP item 12b: the total-variation guard is absolute, and its sum "
    "rounds 2 ulps above ||phi|| ||psi|| = 2e300",
)
def test_spectral_measure_at_large_phi():
    # phi = psi = [1e150, 1e150]: the measure is valid, its total variation is
    # ||phi|| ||psi|| in exact arithmetic
    phi = np.array([1e150, 1e150], dtype=complex)
    mu = extract_spectral_measure(dilate(np.diag([0.5, -0.5]).astype(complex), 1), phi, phi)
    assert mu.mass() == pytest.approx(2e300, rel=1e-12)


def test_roundtrip_random():
    rng = spawn_rng(43, 0)
    for trial in range(20):
        n = int(rng.integers(1, 5))
        N = int(rng.integers(1, 9))
        s = ContractionSystem(
            A=random_contraction(rng, n),
            phi=complex_gaussian(rng, (n,)),
            psi=complex_gaussian(rng, (n,)),
        )
        rep = roundtrip_check(s, N)
        assert rep.passed, (trial, rep.to_jsonable())
        assert max(rep.details["taylor_errors"]) < 1e-9
        assert rep.details["reflection_residual"] < 1e-10


def test_roundtrip_of_phi_zero_extracts_the_empty_measure():
    # every spectral weight <P_k phi, psi> is 0, so no atom survives and the
    # reflection identity holds with nothing to sum
    s = random_sys(46, 3)
    s = ContractionSystem(A=s.A, phi=np.zeros(3, dtype=complex), psi=s.psi)
    rep = roundtrip_check(s, 4)
    assert rep.details["n_atoms"] == 0
    assert rep.details["reflection_residual"] == 0.0
    assert rep.details["taylor_errors"] == [0.0] * 6
    assert rep.passed and rep.lhs == rep.rhs == 0.0


def test_roundtrip_reads_the_powers_dilate_kept():
    # the compression gate forms A^0..A^N once; the round trip reads them
    s = random_sys(45, 3)
    d = dilate(s.A, 5)
    assert len(d.powers) == 6
    for k, Ak in enumerate(d.powers):
        assert np.allclose(Ak, np.linalg.matrix_power(s.A, k), rtol=0, atol=1e-14)
    assert roundtrip_report(s, d, TAYLOR_TOL).passed
    # a kept power that is off shows in the Taylor coefficient it feeds
    bad = dataclasses.replace(d, powers=d.powers[:3] + (2 * d.powers[3],) + d.powers[4:])
    with pytest.raises(DilationError, match="diverge at order 4"):
        roundtrip_report(s, bad, TAYLOR_TOL)


def test_taylor_tolerance_has_one_home():
    assert inspect.signature(roundtrip_check).parameters["taylor_tol"].default is TAYLOR_TOL
    assert cli._TOL_DEFAULTS["taylor"] is TAYLOR_TOL


def test_roundtrip_bound_is_norm_product():
    s = random_sys(44, 3)
    rep = roundtrip_check(s, 4)
    mu = extract_spectral_measure(dilate(s.A, 4), s.phi, s.psi)
    assert rep.lhs == pytest.approx(total_variation(mu), abs=1e-12)
    assert rep.rhs == pytest.approx(
        float(np.linalg.norm(s.phi) * np.linalg.norm(s.psi)), abs=1e-12
    )


def test_spectral_measure_reproduces_unitary_resolvent():
    # the spectral theorem is exact for the dilated pair: the transform of
    # the reflected spectral measure equals the resolvent h of (U, Ephi, Epsi)
    # at every interior point, all orders included
    s = random_sys(45, 2)
    N = 6
    d = dilate(s.A, N)
    mu = extract_spectral_measure(d, s.phi, s.psi)
    from blaschke_verify.measure import reflect_measure
    from blaschke_verify.operator_model import eval_h_resolvent

    big = ContractionSystem(A=d.U, phi=d.embed @ s.phi, psi=d.embed @ s.psi)
    f = CauchyFunction(source=reflect_measure(mu))
    for w in (0.31 + 0.4j, -0.55 - 0.2j, 0.05 + 0.85j):
        assert eval_h(f, w) == pytest.approx(eval_h_resolvent(big, w), abs=1e-9)
