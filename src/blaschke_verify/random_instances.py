"""Seeded random instance generators for suites and tests.

Streams are reproducible across runs and platforms: instance k of a suite
draws from a fresh PCG64 generator keyed by (seed, k) through numpy's
SeedSequence spawn mechanism (a hash-based splitting scheme in the splitmix
tradition), so instances are independent of each other and of the order in
which they run.

Distribution choices, fixed here so results are comparable across runs:
contractions are i.i.d. complex Gaussian matrices rescaled by u/||G|| with u
uniform in (0, 1]; atom points are uniform on the circle (resampled if two
land within 1e-3 of each other); weights are complex Gaussians clipped to
modulus 5.  A rejection sampler that gives up raises NumericalError.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError
from .linalg import operator_norm, polynomial_roots
from .measure import AtomicMeasure
from .operator_model import ContractionSystem
from .transform import CauchyFunction, rational_form

MAX_WEIGHT_MODULUS = 5.0
MIN_POINT_SEPARATION = 1e-3
MIN_SYSTEM_DIM = 1
MIN_PAIR_DIM = 2
MAX_PAIR_RANK = 3
MAX_CONDITIONED_TRIES = 500
MAX_POLYNOMIAL_DEGREE = 6


def spawn_rng(seed: int, index: int) -> np.random.Generator:
    """Generator for instance `index` of the stream keyed by `seed`."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=int(seed), spawn_key=(int(index),))
    )


def complex_gaussian(rng, shape=()):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_unit_points(rng, n: int) -> np.ndarray:
    """n points uniform on the circle, pairwise at least MIN_POINT_SEPARATION apart."""
    for _ in range(200):
        pts = np.exp(2j * np.pi * rng.random(n))
        d = np.abs(pts[:, None] - pts[None, :]) + 2.0 * np.eye(n)
        if float(np.min(d)) >= MIN_POINT_SEPARATION:
            return pts
    raise NumericalError(f"could not draw well-separated circle points ({n} atoms)")


def random_weights(rng, n: int) -> np.ndarray:
    """Complex Gaussian weights, modulus clipped to 5, never exactly 0."""
    w = complex_gaussian(rng, (n,))
    mod = np.abs(w)
    w = np.where(mod > MAX_WEIGHT_MODULUS, w * (MAX_WEIGHT_MODULUS / mod), w)
    w[np.abs(w) == 0] = 1e-3  # measure-zero event, but keep atoms alive
    return w


def random_atomic_measure(rng, max_atoms: int = 8, min_atoms: int = 1) -> AtomicMeasure:
    n = int(rng.integers(min_atoms, max_atoms + 1))
    pts = random_unit_points(rng, n)
    return AtomicMeasure(pts, random_weights(rng, n))


def random_contraction(rng, n: int) -> np.ndarray:
    """u/||G||-scaled complex Gaussian; operator norm uniform in (0, 1]."""
    G = complex_gaussian(rng, (n, n))
    nrm = operator_norm(G)
    if nrm == 0:
        return np.zeros((n, n), dtype=complex)
    u = 1.0 - rng.random()  # (0, 1]
    return G * (u / nrm)


def random_system(rng, max_dim: int = 10) -> ContractionSystem:
    n = int(rng.integers(MIN_SYSTEM_DIM, max_dim + 1))
    return ContractionSystem(
        A=random_contraction(rng, n),
        phi=complex_gaussian(rng, (n,)),
        psi=complex_gaussian(rng, (n,)),
    )


def random_lowrank_pair(rng, max_dim: int = 10):
    """(A, L) with A an arbitrary Gaussian matrix and L - A of rank <= MAX_PAIR_RANK."""
    n = int(rng.integers(MIN_PAIR_DIM, max_dim + 1))
    A = complex_gaussian(rng, (n, n))
    r = int(rng.integers(1, MAX_PAIR_RANK + 1))
    P = sum(
        np.outer(complex_gaussian(rng, (n,)), np.conj(complex_gaussian(rng, (n,))))
        for _ in range(r)
    )
    return A, A + P


def random_conditioned_measure(rng, max_atoms: int = 8) -> AtomicMeasure:
    """A measure whose shifted transform has well-conditioned zeros.

    Rejects draws with numerator roots of modulus in [0.97, 1.03] (too close
    to the circle for contour methods and to the eigenvalue boundary cut) or
    with two roots closer than 1e-5 (cluster tolerances would blur them).
    """
    for _ in range(MAX_CONDITIONED_TRIES):
        mu = random_atomic_measure(rng, max_atoms=max_atoms)
        f = CauchyFunction(source=mu, mode="shifted")
        roots = polynomial_roots(rational_form(f).numerator)
        mods = np.abs(roots)
        if np.any((mods >= 0.97) & (mods <= 1.03)):
            continue
        if roots.size >= 2:
            d = np.abs(roots[:, None] - roots[None, :]) + 2.0 * np.eye(roots.size)
            if float(np.min(d)) < 1e-5:
                continue
        return mu
    raise NumericalError(
        f"rejection sampling for conditioned measures stalled (up to {max_atoms} atoms)"
    )


def random_polynomial_with_unit_constant(rng) -> np.ndarray:
    """Ascending coefficients of h = prod (1 - w/z_j), so h(0) = 1 exactly.

    Root moduli are drawn away from the unit circle (in [0.25, 0.85] or
    [1.2, 3.0]) so boundary quadrature and disk zero counting stay clean.
    """
    deg = int(rng.integers(1, MAX_POLYNOMIAL_DEGREE + 1))
    coeffs = np.array([1.0 + 0j])
    for _ in range(deg):
        if rng.random() < 0.5:
            mod = rng.uniform(0.25, 0.85)
        else:
            mod = rng.uniform(1.2, 3.0)
        z = mod * np.exp(2j * np.pi * rng.random())
        coeffs = np.convolve(coeffs, np.array([1.0, -1.0 / z]))
    return coeffs


def random_real_line_atoms(rng, max_atoms: int = 6):
    """Real atom positions with complex weights normalized to sum 1."""
    for _ in range(200):
        n = int(rng.integers(1, max_atoms + 1))
        s = np.sort(rng.uniform(-3.0, 3.0, n))
        if n >= 2 and float(np.min(np.diff(s))) < 1e-2:
            continue
        c = complex_gaussian(rng, (n,))
        tot = np.sum(c)
        if abs(tot) < 0.1:
            continue
        c = c / tot
        return [(float(sj), complex(cj)) for sj, cj in zip(s, c)]
    raise NumericalError(f"rejection sampling for line atoms stalled (up to {max_atoms} atoms)")
