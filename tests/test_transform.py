"""Transform evaluation against independent oracles.

The derivative oracle is a central finite difference, the Taylor moment
oracle a discrete contour integral at radius 1/2, and the rational form is
cross-evaluated against the atom-sum definition at random disk points.
"""

import ast
import pathlib

import numpy as np
import pytest

import blaschke_verify
from blaschke_verify.errors import InputError
from blaschke_verify.measure import AtomicMeasure, dirac
from blaschke_verify.transform import (
    CauchyFunction,
    eval_K,
    eval_h,
    rational_form,
    taylor_moment,
)

from blaschke_verify.random_instances import complex_gaussian, random_atomic_measure, spawn_rng
from blaschke_verify.zeros import _h_and_deriv_continuation

from conftest import data_measures, random_measure_simple


def disk_points(rng, n, rmax=0.95):
    r = rmax * np.sqrt(rng.random(n))
    th = rng.uniform(0, 2 * np.pi, n)
    return r * np.exp(1j * th)


def test_lebesgue_transform_is_constant():
    mu = AtomicMeasure(lebesgue=3.0 - 1.0j)
    rng = np.random.default_rng(0)
    w = disk_points(rng, 50)
    assert np.allclose(eval_K(mu, w), 3.0 - 1.0j)


def test_single_atom_geometric_series():
    # K(delta_zeta)(w) = sum_n (w conj(zeta))^n, checked against partial sums
    zeta = np.exp(0.9j)
    mu = dirac(zeta, 1.0)
    w = 0.5 * np.exp(0.3j)
    partial = sum((w * np.conj(zeta)) ** n for n in range(200))
    assert eval_K(mu, w) == pytest.approx(partial, abs=1e-15)


def test_h_at_zero_is_one_exactly():
    rng = np.random.default_rng(1)
    for _ in range(20):
        mu = random_measure_simple(rng, int(rng.integers(1, 6)))
        f = CauchyFunction(source=mu)
        assert eval_h(f, 0.0) == 1.0  # exact, not approx


def test_shifted_h_is_one_plus_wK():
    rng = np.random.default_rng(2)
    mu = random_measure_simple(rng, 4)
    f = CauchyFunction(source=mu, mode="shifted")
    w = disk_points(rng, 30)
    assert np.allclose(eval_h(f, w), 1.0 + w * eval_K(mu, w))


def test_direct_mode_is_K():
    rng = np.random.default_rng(3)
    mu = random_measure_simple(rng, 4)
    f = CauchyFunction(source=mu, mode="direct")
    w = disk_points(rng, 30)
    assert np.allclose(eval_h(f, w), eval_K(mu, w))


def test_eval_rejects_outside_disk():
    mu = dirac(1.0, 1.0)
    for bad in (1.0, 1.0 + 0j, np.exp(0.4j), 1.7 - 0.2j):
        with pytest.raises(InputError, match=r"evaluation point\(s\) with \|w\| >= 1"):
            eval_K(mu, bad)
    with pytest.raises(InputError, match=r"evaluation point\(s\) with \|w\| >= 1"):
        eval_K(mu, np.array([0.1, 0.99999, 1.0]))


def test_derivative_against_finite_difference():
    rng = np.random.default_rng(4)
    step = 1e-6
    for _ in range(10):
        mu = random_measure_simple(rng, int(rng.integers(1, 6)))
        w = disk_points(rng, 10, rmax=0.8)
        for mode in ("direct", "shifted"):
            f = CauchyFunction(source=mu, mode=mode)
            _, exact = _h_and_deriv_continuation(f, w)
            fd = (eval_h(f, w + step) - eval_h(f, w - step)) / (2 * step)
            scale = np.maximum(1.0, np.abs(exact))
            assert np.max(np.abs(exact - fd) / scale) < 1e-7


def test_taylor_moments_against_contour_oracle():
    # n-th coefficient of K via FFT of samples on |w| = 1/2
    rng = np.random.default_rng(5)
    M = 256
    w = 0.5 * np.exp(2j * np.pi * np.arange(M) / M)
    for _ in range(10):
        mu = random_measure_simple(rng, int(rng.integers(1, 6)))
        vals = eval_K(mu, w)
        coeffs = np.fft.fft(vals) / M
        for n in range(8):
            want = coeffs[n] / 0.5**n
            assert taylor_moment(mu, n) == pytest.approx(want, abs=1e-10)


def test_taylor_moment_zero_includes_lebesgue():
    mu = AtomicMeasure([1j], [2.0], lebesgue=1.5 + 0j)
    assert taylor_moment(mu, 0) == pytest.approx(3.5)
    assert taylor_moment(mu, 1) == pytest.approx(2.0 * np.conj(1j))


def test_rational_form_matches_eval():
    rng = np.random.default_rng(6)
    for _ in range(20):
        mu = random_measure_simple(rng, int(rng.integers(1, 7)))
        w = disk_points(rng, 25)
        for mode in ("direct", "shifted"):
            f = CauchyFunction(source=mu, mode=mode)
            rf = rational_form(f)
            num = np.polyval(rf.numerator[::-1], w)
            den = np.prod(1.0 - w[:, None] * np.conj(mu.points), axis=-1)
            scale = np.maximum(1.0, np.abs(eval_h(f, w)))
            assert np.max(np.abs(num / den - eval_h(f, w)) / scale) < 1e-10


def _reference_numerator(f):
    """The former rational_form: every partial product formed afresh and
    summed with numpy.polynomial's series helpers, which drop exact trailing
    zeros at every step."""
    from numpy.polynomial import polynomial as P

    from blaschke_verify.transform import COEFF_TRIM_REL

    mu = f.source
    zb = np.conj(mu.points)
    n = mu.natoms
    Q = np.array([1.0 + 0j])
    for j in range(n):
        Q = P.polymul(Q, np.array([1.0, -zb[j]]))
    S = np.zeros(max(n, 1), dtype=complex)
    for j in range(n):
        part = np.array([1.0 + 0j])
        for k in range(n):
            if k != j:
                part = P.polymul(part, np.array([1.0, -zb[k]]))
        S = P.polyadd(S, mu.weights[j] * part)
    KQ = P.polyadd(S, mu.lebesgue * Q)
    if f.mode == "direct":
        num = KQ
    else:
        num = P.polyadd(Q, P.polymul(np.array([0.0, 1.0]), KQ))
    num = np.asarray(num, dtype=complex)
    top = np.max(np.abs(num))
    if top > 0:
        keep = num.size
        while keep > 1 and abs(num[keep - 1]) <= COEFF_TRIM_REL * top:
            keep -= 1
        num = num[:keep]
    else:
        num = np.zeros(1, dtype=complex)
    return num


def _bit_identity_measures():
    # 1 to 32 atoms, with and without a Lebesgue part, and atoms on the axes,
    # whose conjugates carry signed zeros into the products
    rng = np.random.default_rng(2011)
    for n in range(1, 33):
        yield random_measure_simple(rng, n)
        yield random_atomic_measure(spawn_rng(2011, n), max_atoms=n, min_atoms=n)
    axes = (1.0, 1j, -1.0, -1j)
    yield AtomicMeasure(axes, (1, 1j, -1, 0.5), lebesgue=-0.25j)
    # the numerator of this one is exactly zero in direct mode
    yield AtomicMeasure([1.0, -1.0], [1.0, -1.0])
    yield from data_measures()
    # 500 draws of 1 to 12 atoms, half of them with a Lebesgue part
    for i in range(500):
        mu = random_atomic_measure(spawn_rng(2012, i), max_atoms=12)
        if i % 2:
            mu = AtomicMeasure(mu.points, mu.weights, lebesgue=complex_gaussian(rng))
        yield mu


def test_rational_form_bytes_match_the_former_product_loop():
    # the partial products reuse their prefixes but multiply in the former
    # order, so the numerator is the same to the last bit
    for mu in _bit_identity_measures():
        for mode in ("direct", "shifted"):
            f = CauchyFunction(source=mu, mode=mode)
            got = rational_form(f).numerator
            want = _reference_numerator(f)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (
                mu.natoms, mode,
            )


def _numpy_polynomial_uses(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names if a.name.startswith("numpy.polynomial"))
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.startswith("numpy.polynomial"):
                yield node.module
            elif node.module == "numpy":
                yield from (a.name for a in node.names if a.name == "polynomial")
        elif (isinstance(node, ast.Attribute) and node.attr == "polynomial"
              and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            yield f"{node.value.id}.polynomial"


def test_no_module_uses_numpy_polynomial():
    # the numerator is assembled in plain arrays under one trim rule; the
    # series helpers would add a second one, dropping exact trailing zeros
    uses = {}
    for path in sorted(pathlib.Path(blaschke_verify.__file__).parent.glob("*.py")):
        found = sorted(set(_numpy_polynomial_uses(ast.parse(path.read_text()))))
        if found:
            uses[path.name] = found
    assert uses == {}


def test_rational_form_shifted_constant_coeff_is_one():
    rng = np.random.default_rng(7)
    mu = random_measure_simple(rng, 5)
    rf = rational_form(CauchyFunction(source=mu, mode="shifted"))
    assert rf.numerator[0] == pytest.approx(1.0)  # h(0) = 1 and Q(0) = 1




def test_scalar_in_scalar_out():
    mu = dirac(-1.0, 1.0)
    out = eval_K(mu, 0.25)
    assert np.isscalar(out) or out.shape == ()
    arr = eval_K(mu, np.array([0.25, 0.5]))
    assert arr.shape == (2,)
