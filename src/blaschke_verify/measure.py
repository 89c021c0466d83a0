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
from functools import cached_property

import numpy as np

from .codec import atom_entries, complex_from_json, complex_to_json, finite, real_from_json
from .errors import PointNotOnCircle

# points nearer the circle than this are snapped onto it, further are rejected
POINT_REPAIR_BAND = 1e-9
# atom points closer than this are considered the same atom
ATOM_MERGE_TOL = 1e-12


@dataclasses.dataclass(frozen=True)
class UnitPoint:
    """A point on the unit circle.

    Inputs with | |value| - 1 | <= 1e-9 are renormalized onto the circle,
    anything further off or not finite is rejected; after construction the
    modulus is 1 to within 1e-12 (in practice to machine precision).
    """

    value: complex

    def __post_init__(self):
        v = finite(complex(self.value), "point")
        r = abs(v)
        if abs(r - 1.0) > POINT_REPAIR_BAND:
            raise PointNotOnCircle(f"|{v!r}| = {r!r} is not within 1e-9 of 1")
        object.__setattr__(self, "value", v / r)

    def conj(self) -> "UnitPoint":
        return UnitPoint(self.value.conjugate())


@dataclasses.dataclass(frozen=True)
class AtomicMeasure:
    """Atoms (point, complex weight) plus lebesgue * m, m normalized Lebesgue.

    Construction canonicalizes: points are snapped to the circle, atoms closer
    than 1e-12 are merged by weight addition, weights that are exactly 0 are
    dropped, and atoms are sorted by (Re, Im) of the point so that equal
    measures compare equal.  Non-finite weights or Lebesgue coefficients are
    rejected, and so is a total variation that overflows.
    """

    atoms: tuple = ()
    lebesgue: complex = 0.0

    def __post_init__(self):
        reps: list[complex] = []
        weights: list[complex] = []
        for point, weight in self.atoms:
            p = point.value if isinstance(point, UnitPoint) else UnitPoint(point).value
            w = finite(complex(weight), "weight")
            for k, rep in enumerate(reps):
                if abs(p - rep) <= ATOM_MERGE_TOL:
                    weights[k] += w
                    break
            else:
                reps.append(p)
                weights.append(w)
        pairs = [
            (UnitPoint(p), w) for p, w in zip(reps, weights) if w != 0
        ]
        pairs.sort(key=lambda pw: (pw[0].value.real, pw[0].value.imag))
        lebesgue = finite(complex(self.lebesgue), "lebesgue coefficient")
        # Python's abs of a complex this large raises OverflowError
        with np.errstate(over="ignore"):
            finite(float(np.sum(np.abs([w for _, w in pairs] + [lebesgue]))), "total variation")
        object.__setattr__(self, "atoms", tuple(pairs))
        object.__setattr__(self, "lebesgue", lebesgue)

    @cached_property
    def points(self) -> np.ndarray:
        """Atom locations as a complex array (empty for the zero measure)."""
        return np.array([p.value for p, _ in self.atoms], dtype=complex)

    @cached_property
    def weights(self) -> np.ndarray:
        return np.array([w for _, w in self.atoms], dtype=complex)

    @property
    def natoms(self) -> int:
        return len(self.atoms)

    def mass(self) -> complex:
        """mu(T) = sum of weights + lebesgue coefficient."""
        return complex(np.sum(self.weights) + self.lebesgue) if self.atoms else complex(self.lebesgue)

    def conjugate(self) -> "AtomicMeasure":
        """The measure with conjugated weights at conjugated atoms."""
        return AtomicMeasure(
            atoms=[(p.conj(), w.conjugate()) for p, w in self.atoms],
            lebesgue=self.lebesgue.conjugate(),
        )


def dirac(point, weight: complex = 1.0) -> AtomicMeasure:
    """weight * delta_point, a single atom."""
    return AtomicMeasure(atoms=[(point, weight)])


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
    return AtomicMeasure(
        atoms=[(p, w * p.value.conjugate()) for p, w in mu.atoms],
        lebesgue=0.0,
    )


def inverse_shift(sigma: AtomicMeasure, h0: complex) -> AtomicMeasure:
    """A measure mu with K(mu)(w) = h0 + w * K(sigma)(w) on the disk.

    Construction: mu(d zeta) = zeta sigma(d zeta) + (h0 - c_sigma) m(d zeta)
    where c_sigma is the first moment of sigma.  A Lebesgue component of sigma
    contributes nothing to c_sigma (the first moment of m is 0) and its exact
    transform would need a w-linear term outside the representable class, so
    only sigma's atoms enter; the identity above is exact whenever
    sigma.lebesgue = 0, which holds for every output of shift_measure.
    """
    c_sigma = complex(np.sum(sigma.points * sigma.weights)) if sigma.atoms else 0.0
    return AtomicMeasure(
        atoms=[(p, w * p.value) for p, w in sigma.atoms],
        lebesgue=complex(h0) - c_sigma,
    )


def reflect_measure(mu: AtomicMeasure) -> AtomicMeasure:
    """Pushforward under conjugation: atoms move to conj(zeta), weights kept."""
    return AtomicMeasure(
        atoms=[(p.conj(), w) for p, w in mu.atoms],
        lebesgue=mu.lebesgue,
    )


# ---------------------------------------------------------------------------
# JSON interchange


def _point_from_json(obj, what: str) -> UnitPoint:
    if isinstance(obj, dict) and "angle_deg" in obj:
        theta = np.deg2rad(real_from_json(obj["angle_deg"], f"{what}.angle_deg"))
        return UnitPoint(complex(np.cos(theta), np.sin(theta)))
    return UnitPoint(complex_from_json(obj, what))


def measure_to_jsonable(mu: AtomicMeasure) -> dict:
    return {
        "atoms": [
            {"point": complex_to_json(p.value), "weight": complex_to_json(w)}
            for p, w in mu.atoms
        ],
        "lebesgue": complex_to_json(mu.lebesgue),
    }


def measure_from_jsonable(obj) -> AtomicMeasure:
    atoms = [
        (
            _point_from_json(e["point"], f"atoms[{i}].point"),
            complex_from_json(e["weight"], f"atoms[{i}].weight"),
        )
        for i, e in enumerate(atom_entries(obj, "measure", ("point", "weight")))
    ]
    leb = complex_from_json(obj.get("lebesgue", {}), "lebesgue coefficient")
    return AtomicMeasure(atoms=atoms, lebesgue=leb)
