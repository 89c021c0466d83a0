"""Finite complex Borel measures on the unit circle: atoms plus a scalar
multiple of normalized Lebesgue measure.

The calculus implemented here (total variation, the shift that realizes the
backward-shift operator on Cauchy transforms, its right inverse, reflection)
is everything the rest of the package needs.  Only the zeroth moment of the
Lebesgue component survives a Cauchy transform, so a scalar coefficient is
all we track for it; general absolutely continuous parts are out of scope.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .codec import atom_entries, complex_from_json, complex_to_json, finite, real_from_json
from .errors import InputError

# points nearer the circle than this are snapped onto it, further are rejected
POINT_REPAIR_BAND = 1e-9
# atom points closer than this are considered the same atom
ATOM_MERGE_TOL = 1e-12


def _unit(z: np.ndarray) -> np.ndarray:
    """z / |z| elementwise, rounded as Python divides a complex by a float:
    (re + im*0.0) / r and (im - re*0.0) / r with r = hypot(re, im).  Plain
    re / r would keep the -0.0 of -0.0+1j, where Python gives +0.0."""
    re, im = z.real, z.imag
    r = np.hypot(re, im)
    out = np.empty(z.shape, dtype=complex)
    out.real = (re + im * 0.0) / r
    out.imag = (im - re * 0.0) / r
    return out


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b elementwise, rounded as Python multiplies two complex numbers:
    each real product and sum on its own (numpy's complex multiply may fuse
    or reorder them, and then rounds differently)."""
    out = np.empty(a.shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


@dataclasses.dataclass(frozen=True, eq=False)
class AtomicMeasure:
    """sum_j weights[j] delta(points[j]) + lebesgue * m, m normalized Lebesgue.

    The one constructor takes point and weight sequences of one length and
    canonicalizes them, so that equal measures compare equal.  Points,
    weights and the Lebesgue coefficient must be finite, and a point further
    than 1e-9 from the circle raises InputError naming its atom.  Each
    point is snapped onto the circle by z / hypot(Re z, Im z), rounded as
    Python divides a complex by a float, twice: before the merge and after.
    In input order, each atom joins the first earlier representative within
    1e-12 (ATOM_MERGE_TOL) or becomes one; a representative pools its atoms'
    weights in input order, weights that are exactly 0 are dropped, and the
    atoms are sorted by (Re, Im).  points and weights are read-only arrays,
    and a total variation that overflows is rejected.  Measures compare by
    value.  A point is any complex number: there is no class of circle points.
    """

    points: np.ndarray = ()
    weights: np.ndarray = ()
    lebesgue: complex = 0.0

    def __post_init__(self):
        pts = np.array(self.points, dtype=complex)
        wts = np.array(self.weights, dtype=complex)
        if pts.ndim != 1 or pts.shape != wts.shape:
            raise InputError(f"{pts.shape} points, {wts.shape} weights: not one flat length")
        for what, arr in (("point", pts), ("weight", wts)):
            bad = np.flatnonzero(~np.isfinite(arr))
            if bad.size:
                finite(complex(arr[bad[0]]), f"atoms[{bad[0]}].{what}")
        lebesgue = finite(complex(self.lebesgue), "lebesgue coefficient")
        with np.errstate(over="ignore"):  # an overflowing modulus is off the circle
            r = np.hypot(pts.real, pts.imag)
        off = np.flatnonzero(np.abs(r - 1.0) > POINT_REPAIR_BAND)
        if off.size:
            i = off[0]
            raise InputError(
                f"atoms[{i}].point |{complex(pts[i])!r}| = {float(r[i])!r} is not within 1e-9 of 1"
            )
        once = _unit(pts)
        # only an atom whose real part lies within 2 * ATOM_MERGE_TOL of
        # another's (twice, to cover rounding) can merge, so only those enter
        # the greedy loop
        head = np.arange(once.size)  # each atom's representative
        order = np.argsort(once.real)
        re = once.real[order]
        lo = np.searchsorted(re, re - 2 * ATOM_MERGE_TOL, side="left")
        hi = np.searchsorted(re, re + 2 * ATOM_MERGE_TOL, side="right")
        crowded = np.sort(order[hi - lo > 1])
        reps: list = []
        for i, p in zip(crowded.tolist(), once[crowded].tolist()):
            for k, q in reps:
                if abs(p - q) <= ATOM_MERGE_TOL:
                    head[i] = k
                    break
            else:
                reps.append((i, p))
        alone = head == np.arange(once.size)
        np.add.at(wts, head[~alone], wts[~alone])
        keep = wts[alone] != 0
        pts = _unit(once[alone][keep])
        order = np.lexsort((pts.imag, pts.real))
        pts, wts = pts[order], wts[alone][keep][order]
        # Python's abs of a complex this large raises OverflowError
        with np.errstate(over="ignore"):
            finite(float(np.sum(np.abs(np.append(wts, lebesgue)))), "total variation")
        pts.flags.writeable = wts.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)
        object.__setattr__(self, "lebesgue", lebesgue)

    def __eq__(self, other):
        if not isinstance(other, AtomicMeasure):
            return NotImplemented
        return (
            np.array_equal(self.points, other.points)
            and np.array_equal(self.weights, other.weights)
            and self.lebesgue == other.lebesgue
        )

    @property
    def natoms(self) -> int:
        return self.points.size

    def mass(self) -> complex:
        """mu(T) = sum of weights + lebesgue coefficient."""
        return complex(np.sum(self.weights) + self.lebesgue)


def dirac(point, weight: complex = 1.0) -> AtomicMeasure:
    """weight * delta_point, a single atom."""
    return AtomicMeasure([point], [weight])


def total_variation(mu: AtomicMeasure) -> float:
    """||mu|| = sum |c_j| + |lebesgue|; atoms are singular with respect to m."""
    return float(np.sum(np.abs(mu.weights)) + abs(mu.lebesgue))


def shift_measure(mu: AtomicMeasure) -> AtomicMeasure:
    """The measure conj(zeta) mu(d zeta), restricted to the atoms.

    Its Cauchy transform is the backward shift of K mu:
    K(result)(w) = (K mu(w) - K mu(0)) / w.  The Lebesgue-derived part
    conj(zeta) * c * m transforms to 0 (every moment integral vanishes), so it
    is dropped rather than carried as dead weight in the total variation.
    """
    return AtomicMeasure(mu.points, _product(mu.weights, np.conj(mu.points)))


def inverse_shift(sigma: AtomicMeasure, h0: complex) -> AtomicMeasure:
    """A measure mu with K(mu)(w) = h0 + w * K(sigma)(w) on the disk.

    Construction: mu(d zeta) = zeta sigma(d zeta) + (h0 - c_sigma) m(d zeta)
    where c_sigma is the first moment of sigma.  A Lebesgue component of sigma
    contributes nothing to c_sigma (the first moment of m is 0) and its exact
    transform would need a w-linear term outside the representable class, so
    only sigma's atoms enter; the identity above is exact whenever
    sigma.lebesgue = 0, which holds for every output of shift_measure.
    """
    c_sigma = complex(np.sum(sigma.points * sigma.weights))
    return AtomicMeasure(
        sigma.points, _product(sigma.weights, sigma.points), complex(h0) - c_sigma
    )


def reflect_measure(mu: AtomicMeasure) -> AtomicMeasure:
    """Pushforward under conjugation: atoms move to conj(zeta), weights kept."""
    return AtomicMeasure(np.conj(mu.points), mu.weights, mu.lebesgue)


# ---------------------------------------------------------------------------
# JSON interchange


def _point_from_json(obj, what: str) -> complex:
    if isinstance(obj, dict) and "angle_deg" in obj:
        theta = np.deg2rad(real_from_json(obj["angle_deg"], f"{what}.angle_deg"))
        return complex(np.cos(theta), np.sin(theta))
    return complex_from_json(obj, what)


def measure_to_jsonable(mu: AtomicMeasure) -> dict:
    return {
        "atoms": [
            {"point": complex_to_json(p), "weight": complex_to_json(w)}
            for p, w in zip(mu.points, mu.weights)
        ],
        "lebesgue": complex_to_json(mu.lebesgue),
    }


def measure_from_jsonable(obj) -> AtomicMeasure:
    points, weights = [], []
    for i, e in enumerate(atom_entries(obj, "measure", ("point", "weight"))):
        points.append(_point_from_json(e["point"], f"atoms[{i}].point"))
        weights.append(complex_from_json(e["weight"], f"atoms[{i}].weight"))
    leb = complex_from_json(obj.get("lebesgue", {}), "lebesgue coefficient")
    return AtomicMeasure(points, weights, leb)
