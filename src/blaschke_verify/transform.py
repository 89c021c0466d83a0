"""Cauchy transforms of atomic measures and the holomorphic functions built
from them.

Two function modes cover all uses downstream:

* direct: h(w) = (K mu)(w) = sum_j c_j / (1 - w conj(zeta_j)) + lebesgue
* shifted: h(w) = 1 + w (K sigma)(w), the normalized form with h(0) = 1 whose
  zero bounds are controlled by sigma

Since the measures are finite atomic (plus a constant), h is rational; the
exact numerator/denominator form gives a third zero route.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import InputError
from .measure import AtomicMeasure

MODES = ("direct", "shifted")

# relative threshold for dropping trailing numerator coefficients
COEFF_TRIM_REL = 1e-12


@dataclasses.dataclass(frozen=True)
class CauchyFunction:
    source: AtomicMeasure
    mode: str = "shifted"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")


def _check_disk(w):
    warr = np.asarray(w, dtype=complex)
    mask = np.abs(warr) >= 1.0
    if np.any(mask):
        bad = np.atleast_1d(warr)[np.atleast_1d(mask)]
        raise InputError(f"evaluation point(s) with |w| >= 1: {bad[:4]!r}")
    return warr


def _K_values(mu: AtomicMeasure, warr: np.ndarray) -> np.ndarray:
    vals = np.sum(mu.weights / (1.0 - warr[..., None] * np.conj(mu.points)), axis=-1)
    return vals + mu.lebesgue


def _K_derivative(mu: AtomicMeasure, warr: np.ndarray) -> np.ndarray:
    # d/dw [c/(1-w zbar)] = c zbar/(1-w zbar)^2
    zbar = np.conj(mu.points)
    return np.sum(mu.weights * zbar / (1.0 - warr[..., None] * zbar) ** 2, axis=-1)


def _as_input_shape(vals, w):
    return complex(vals) if np.isscalar(w) or np.ndim(w) == 0 else vals


def eval_K(mu: AtomicMeasure, w):
    """(K mu)(w) for |w| < 1; w may be a scalar or any-shape array.

    Direct summation over atoms; the Lebesgue component contributes its
    coefficient (only the zeroth moment survives the kernel).
    """
    return _as_input_shape(_K_values(mu, _check_disk(w)), w)


def eval_h(f: CauchyFunction, w):
    """h(w): the transform itself in direct mode, 1 + w*(K sigma)(w) in shifted."""
    warr = _check_disk(w)
    if f.mode == "direct":
        vals = _K_values(f.source, warr)
    else:
        vals = 1.0 + warr * _K_values(f.source, warr)
    return _as_input_shape(vals, w)


def taylor_moment(mu: AtomicMeasure, n: int) -> complex:
    """n-th Taylor coefficient of K mu: sum_j c_j conj(zeta_j)^n, + lebesgue at n=0."""
    if n < 0:
        raise ValueError("moment index must be >= 0")
    acc = complex(np.sum(mu.weights * np.conj(mu.points) ** n))
    if n == 0:
        acc += mu.lebesgue
    return acc


@dataclasses.dataclass(frozen=True)
class RationalForm:
    """h = numerator / prod_j (1 - w conj(zeta_j)) over the atoms zeta_j.

    Coefficients ascend in w.  The poles sit exactly at the atom points (the
    kernel denominator 1 - w conj(zeta) vanishes at w = zeta), hence on the
    unit circle, never inside the disk where zeros are counted.
    """

    numerator: np.ndarray


def rational_form(f: CauchyFunction) -> RationalForm:
    """Clear denominators to expose h as an exact ratio of polynomials.

    In exact arithmetic the numerator's roots inside the disk are the zeros
    of h with matching multiplicity, which makes this one of the three
    independent zero routes.  It is not a reference for the other two: the
    monomial coefficients are ill-conditioned, and above about 24 atoms its
    roots are the least accurate of the three.  Trailing coefficients below
    1e-12 of the largest are trimmed so that cancellation dust cannot
    masquerade as a leading term.
    """
    mu = f.source
    zb = np.conj(mu.points)
    n = mu.natoms
    # Q = prod (1 - w conj(zeta_j)); prefix[j] is the product of the factors
    # before j, so Q = prefix[n]
    factors = [np.array([1.0, -z]) for z in zb]
    prefix = [np.array([1.0 + 0j])]
    for fac in factors:
        prefix.append(np.convolve(prefix[-1], fac))
    Q = prefix[n]
    S = np.zeros(n + 1, dtype=complex)
    for j in range(n):
        # Q without factor j, multiplied left to right like Q itself: floating
        # point products do not associate, so any other order (one product
        # and a synthetic division per atom, say) would move the numerator's
        # bits and with them every root the numerator route reports
        part = prefix[j]
        for fac in factors[j + 1:]:
            part = np.convolve(part, fac)
        S[:n] += mu.weights[j] * part
    KQ = S + mu.lebesgue * Q  # numerator of K mu over Q
    if f.mode == "direct":
        num = KQ
    else:
        num = np.append(Q, 0) + np.append(0, KQ)
    top = np.max(np.abs(num))
    if top > 0:
        keep = num.size
        while keep > 1 and abs(num[keep - 1]) <= COEFF_TRIM_REL * top:
            keep -= 1
        return RationalForm(numerator=num[:keep])
    return RationalForm(numerator=np.zeros(1, dtype=complex))
