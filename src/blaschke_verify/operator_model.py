"""Finite-dimensional operator model tying Cauchy transforms to spectra.

A purely atomic measure sigma = sum c_j delta_{zeta_j} with polar weights
c_j = nu_j |c_j| turns into the system

    A = diag(conj(zeta_j)),  phi_j = sqrt|c_j|,  psi_j = conj(nu_j) sqrt|c_j|,

for which <(I - wA)^{-1} phi, psi> = (K sigma)(w).  The rank-one perturbation
L = A - phi psi* then carries the zeros of h(w) = 1 + w (K sigma)(w) as the
reciprocals of its eigenvalues outside the closed unit disk, with matching
algebraic multiplicity, and h(1/lam) coincides with the perturbation
determinant det(I + phi psi* (lam - A)^{-1}).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .codec import (
    json_object,
    matrix_from_json,
    matrix_to_json,
    vector_from_json,
    vector_to_json,
)
from .errors import InputError, NumericalError, SingularResolvent
from .linalg import DEFAULT_CLUSTER_TOL, as_square_matrix, eigenvalues_clustered, operator_norm
from .measure import AtomicMeasure

CONTRACTION_SLACK = 1e-10
BOUNDARY_TOL = 1e-8


@dataclasses.dataclass(frozen=True)
class ContractionSystem:
    """A contraction A with vectors phi, psi of matching dimension."""

    A: np.ndarray
    phi: np.ndarray
    psi: np.ndarray

    def __post_init__(self):
        A = as_square_matrix(self.A)
        phi = np.asarray(self.phi, dtype=complex).ravel()
        psi = np.asarray(self.psi, dtype=complex).ravel()
        if phi.size != A.shape[0] or psi.size != A.shape[0]:
            raise InputError(
                f"A is {A.shape[0]}x{A.shape[0]} but |phi|={phi.size}, |psi|={psi.size}"
            )
        for name, v in (("phi", phi), ("psi", psi)):
            if not np.all(np.isfinite(v)):
                raise InputError(f"{name} entries must be finite")
        nrm = operator_norm(A)
        if nrm > 1.0 + CONTRACTION_SLACK:
            raise InputError(f"||A|| = {nrm!r} exceeds 1 + 1e-10")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "psi", psi)
        # ||phi|| may overflow while ||psi|| underflows, and inf * 0 is nan
        with np.errstate(over="ignore", invalid="ignore"):
            norms = self.norm_product()
        if not math.isfinite(norms):
            raise InputError(f"||phi|| * ||psi|| is {norms!r}; it must be finite")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    def norm_product(self) -> float:
        """||phi|| * ||psi||, the trace norm of the rank-one perturbation."""
        return float(np.linalg.norm(self.phi) * np.linalg.norm(self.psi))


def build_system_from_measure(sigma: AtomicMeasure) -> ContractionSystem:
    """Model of a purely atomic measure with weights absorbed into phi, psi.

    The sqrt|c_j| scaling converts the weighted inner product of
    L^2(d|sigma|) into the standard one, so <(I-wA)^{-1}phi,psi> = (K sigma)(w)
    and ||phi||*||psi|| = total variation of sigma.  A is unitary diagonal;
    the empty measure gives the 0 x 0 system, whose h is 1.
    """
    if sigma.lebesgue != 0:
        raise InputError("operator model needs a purely atomic measure")
    phi, psi = rank_one_factors(sigma.weights)
    return ContractionSystem(A=np.diag(np.conj(sigma.points)), phi=phi, psi=psi)


def rank_one_factors(weights) -> tuple[np.ndarray, np.ndarray]:
    """phi = sqrt|c| and psi = conj(c/|c|) sqrt|c| (0 where c = 0), entrywise,
    so phi_j conj(psi_j) = c_j and ||phi|| ||psi|| = sum |c_j|."""
    c = np.asarray(weights, dtype=complex)
    moduli = np.abs(c)
    root = np.sqrt(moduli)
    # numpy's complex division overflows on a subnormal divisor, so a subnormal
    # c and |c| are first scaled by 2**54, exactly; normal moduli keep their bits
    lift = np.where(moduli < np.finfo(float).tiny, 2.0**54, 1.0)
    phases = (c * lift) / np.where(moduli > 0, moduli * lift, 1.0)
    return root.astype(complex), np.conj(phases) * root


def _solve(B: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    """B^{-1} rhs by LU with partial pivoting (LAPACK gesv); what names B."""
    try:
        x = np.linalg.solve(B, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularResolvent(f"{what} singular: {exc}") from exc
    if not np.all(np.isfinite(x.view(float))):
        raise SingularResolvent(f"{what}: resolvent overflow")
    return x


def _finite(value, what: str) -> complex:
    """value as a complex, which must be finite; what names it."""
    value = complex(value)
    if not np.isfinite(value):
        raise NumericalError(f"{what} is not finite: {value!r}")
    return value


def eval_h_resolvent(s: ContractionSystem, w: complex) -> complex:
    """h(w) = 1 + w <(I - wA)^{-1} phi, psi> by LU solve, |w| < 1."""
    w = complex(w)
    if abs(w) >= 1.0:
        raise InputError(f"|w| = {abs(w)!r} >= 1")
    B = np.eye(s.n, dtype=complex) - w * s.A
    x = _solve(B, s.phi, f"I - wA at w = {w!r}")
    with np.errstate(over="ignore", invalid="ignore"):  # _finite refuses an overflow
        h = 1.0 + w * np.vdot(s.psi, x)
    return _finite(h, f"h at w = {w!r}")


def build_L(s: ContractionSystem) -> np.ndarray:
    """The rank-one perturbation L = A - phi psi* (Mf = -<f,psi> phi)."""
    return s.A - np.outer(s.phi, np.conj(s.psi))


def perturbation_determinant(
    s: ContractionSystem, lam: complex, method: str = "rank1"
) -> complex:
    """det(I - M (lam - A)^{-1}) for the rank-one M = -phi psi*, |lam| > 1.

    method 'rank1' uses the identity det = 1 + <(lam-A)^{-1} phi, psi>;
    method 'lu' forms the full matrix I + phi psi* (lam-A)^{-1} and takes its
    LU-based determinant.  Both coincide with h(1/lam), which is how
    eigenvalues of L outside the closed disk correspond to zeros of h inside.
    """
    lam = complex(lam)
    if abs(lam) <= 1.0:
        raise InputError(f"|lam| = {abs(lam)!r} must exceed 1")
    if method not in ("rank1", "lu"):
        raise ValueError(f"unknown method {method!r}")
    B = lam * np.eye(s.n, dtype=complex) - s.A
    what = f"lam - A at lam = {lam!r}"
    with np.errstate(over="ignore", invalid="ignore"):  # _finite refuses an overflow
        if method == "rank1":
            d = 1.0 + np.vdot(s.psi, _solve(B, s.phi, what))
        else:
            R = _solve(B, np.eye(s.n, dtype=complex), what)
            d = np.linalg.det(np.eye(s.n, dtype=complex) + np.outer(s.phi, np.conj(s.psi)) @ R)
    return _finite(d, f"the {method} determinant at lam = {lam!r}")


def eigenvalues_outside_disk(L, cluster_tol: float = DEFAULT_CLUSTER_TOL):
    """Eigenvalue clusters of L with |center| > 1 + 1e-8 (BOUNDARY_TOL).

    Clusters within BOUNDARY_TOL of the unit circle are indeterminate: on a
    finite grid of digits they cannot be told apart from circle spectrum, and
    leaving them out can only shrink Blaschke sums, the conservative direction
    for every bound checked here.
    """
    clusters = eigenvalues_clustered(L, tol=cluster_tol)
    return [cl for cl in clusters if abs(cl.center) > 1.0 + BOUNDARY_TOL]


# ---------------------------------------------------------------------------
# JSON interchange


def system_to_jsonable(s: ContractionSystem) -> dict:
    return {"A": matrix_to_json(s.A), "phi": vector_to_json(s.phi), "psi": vector_to_json(s.psi)}


def system_from_jsonable(obj) -> ContractionSystem:
    json_object(obj, "system file", ("A", "phi", "psi"))
    return ContractionSystem(
        A=matrix_from_json(obj["A"], "A"),
        phi=vector_from_json(obj["phi"], "phi"),
        psi=vector_from_json(obj["psi"], "psi"),
    )
