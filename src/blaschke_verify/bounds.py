"""All inequality checks, each packaged as a BoundReport.

The right-hand sides involving the representation-norm of h are replaced by
the total variation of the explicit representative at hand, which upper
bounds the infimum over representations; reports label such sides as
surrogates.  Every check's result depends on its arguments alone.  The one
state kept between calls is the numerical-range support and the factors of
the last pair checked (see _pair_of): they let the trace bound and the Schur
chain of one pair share one grid, one Schur form and one SVD, and they are
never visible in a result.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .codec import complex_to_json
from .errors import InputError, NumericalError, QuadratureNoConvergence, ZeroOnBoundary
from .linalg import (
    NumericalRangeSupport,
    as_square_matrix,
    eigenvalues_clustered,
    polynomial_roots,
    schur_decompose,
    trace_norm,
)
from .measure import AtomicMeasure, shift_measure, total_variation
from .operator_model import ContractionSystem, build_system_from_measure, rank_one_factors
from .transform import CauchyFunction
from .zeros import ZeroSet, blaschke_sum, zeros_via_L, zeros_via_numerator_roots

BLASCHKE_TOL = 1e-7
SCHUR_LINK_TOL = 1e-9
JENSEN_TOL = 1e-8
REAL_LINE_TOL = 1e-8
# rhs_kind of a bound whose right side is the total variation of one representative
_SURROGATE = "total variation surrogate"


@dataclasses.dataclass(frozen=True)
class BoundReport:
    """One checked inequality lhs <= rhs; slack = rhs - lhs, pass iff slack >= -tol."""

    name: str
    lhs: float
    rhs: float
    tol: float
    details: dict = dataclasses.field(default_factory=dict)
    zeros: ZeroSet | None = None  # a zero bound's set, whose Blaschke sum is lhs; not emitted

    def __post_init__(self):
        object.__setattr__(self, "lhs", float(self.lhs))
        object.__setattr__(self, "rhs", float(self.rhs))
        object.__setattr__(self, "tol", float(self.tol))

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    @property
    def passed(self) -> bool:
        return self.slack >= -self.tol

    def to_jsonable(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "tol": self.tol,
            "pass": self.passed,
            "details": self.details,
        }


def _link(name: str, lhs: float, rhs: float, tol: float) -> dict:
    """One link of a chain: a report's row without details."""
    row = BoundReport(name, lhs, rhs, tol).to_jsonable()
    del row["details"]
    return row


def _blaschke_report(name: str, zs: ZeroSet, rhs: float, tol: float, **details) -> BoundReport:
    """Blaschke sum of zs against rhs; zs is the report's zeros, listed in details["zeros"]."""
    zeros = [{**complex_to_json(loc), "multiplicity": m} for loc, m in zs.zeros]
    return BoundReport(
        name=name, lhs=blaschke_sum(zs), rhs=rhs, tol=tol, details={"zeros": zeros, **details},
        zeros=zs,
    )


def summarize(rows) -> dict:
    """Totals of payload rows (BoundReport.to_jsonable dicts)."""
    slacks = [row["slack"] for row in rows]
    return {
        "total": len(rows),
        "failed": sum(1 for row in rows if not row["pass"]),
        "min_slack": min(slacks) if slacks else None,
    }


def check_theorem1(s: ContractionSystem, tol: float = BLASCHKE_TOL) -> BoundReport:
    """Blaschke sum of the zeros of h(w) = 1 + w<(I-wA)^{-1}phi,psi> vs ||phi|| ||psi||.

    Zeros come through the reciprocal-eigenvalue route, so this is the
    contraction bound checked end to end through the operator model.
    """
    return _blaschke_report(
        "contraction-zero-bound", zeros_via_L(s), s.norm_product(), tol, dimension=s.n
    )


def check_theorem2(sigma: AtomicMeasure, tol: float = BLASCHKE_TOL) -> BoundReport:
    """Blaschke sum for shifted h = 1 + w K(sigma) vs total variation of sigma.

    The total variation of this particular representative upper bounds the
    representation norm of the shifted transform, so the check instantiates
    the zero bound with a surrogate right side.
    """
    if sigma.lebesgue != 0:
        raise InputError("shifted-mode zero bound needs an atomic measure")
    zs = zeros_via_L(build_system_from_measure(sigma))
    return _blaschke_report(
        "shifted-transform-zero-bound", zs, total_variation(sigma), tol, rhs_kind=_SURROGATE
    )


def check_corollary(mu: AtomicMeasure, tol: float = BLASCHKE_TOL) -> BoundReport:
    """Blaschke sum for direct h = K(mu), h(0) = 1, vs total variation of mu.

    Requires unit mass so that h(0) = 1.  Zeros come from the numerator-root
    oracle since the direct transform need not fit the operator model (its
    Lebesgue part is allowed).  Also reports shifted_rhs, the shifted bound's
    right side on shift_measure(mu); the shift keeps every atom modulus and
    drops the Lebesgue part, so it does not exceed rhs beyond rounding.
    """
    if abs(mu.mass() - 1.0) > 1e-12:
        raise InputError(f"mu(T) = {mu.mass()!r}, need 1")
    f = CauchyFunction(source=mu, mode="direct")
    zs = zeros_via_numerator_roots(f)
    rhs = total_variation(mu)
    shifted_rhs = total_variation(shift_measure(mu))
    return _blaschke_report(
        "direct-transform-zero-bound", zs, rhs, tol, rhs_kind=_SURROGATE, shifted_rhs=shifted_rhs
    )


_pair_slot = None  # see _pair_of


def _pair_of(A, L):
    """(A, L, NumericalRangeSupport of A, Schur form of L, trace_norm(L - A))
    of the validated pair; raises InputError for unequal shapes.

    One module slot holds the last pair checked as one immutable tuple
    (key, support, schur, trace_norm), keyed by (shape, A.tobytes(),
    L.tobytes()), so check_theorem3 and check_schur_chain of one pair share
    the grid, every refined distance, one Schur form and one SVD.  Any other
    pair, or the same arrays changed in place, replaces the tuple whole.  It
    is read once, so threads can recompute a pair but never read a mixed one.
    """
    global _pair_slot
    A, L = as_square_matrix(A), as_square_matrix(L)
    if A.shape != L.shape:
        raise InputError(f"A is {A.shape}, L is {L.shape}")
    key = (A.shape, A.tobytes(), L.tobytes())
    slot = _pair_slot
    if slot is None or slot[0] != key:
        slot = (key, NumericalRangeSupport(A), schur_decompose(L), trace_norm(L - A))
        _pair_slot = slot
    return (A, L) + slot[1:]


def check_theorem3(A, L, tol: float = BLASCHKE_TOL) -> BoundReport:
    """Sum of distances from eigenvalues of L to the numerical range of A
    against the trace norm of L - A.

    Each distance is the lower end of a certified bracket that is closed to
    NR_BRACKET_TOL * max(1, |lam|) (see NumericalRangeSupport): it never
    exceeds the true distance and is within that width of it.  So a failure
    is real, and a pass holds up to that width per eigenvalue.
    Raises InputError when the shapes differ or the pair is empty.
    """
    A, L, support, sf, tn = _pair_of(A, L)
    clusters = eigenvalues_clustered(L, schur=sf)
    lhs = 0.0
    dists = []
    for cl in clusters:
        d = support.distance(cl.center)
        dists.append({**complex_to_json(cl.center), "mult": cl.multiplicity, "dist": d})
        lhs += cl.multiplicity * d
    return BoundReport(
        name="numerical-range-trace-bound",
        lhs=lhs,
        rhs=tn,
        tol=tol,
        details={"eigenvalues": dists},
    )


def check_schur_chain(A, L, tol: float = SCHUR_LINK_TOL) -> BoundReport:
    """The inequality chain through the Schur basis of L.

    With L = Q T Q*, g_n the columns of Q and lam_n = T_nn:

        S1 = sum dist(lam_n, Num(A))
           <= S2 = sum |lam_n - <A g_n, g_n>|
           <= S3 = sum |<(L-A) g_n, g_n>|
           <= trace_norm(L - A).

    S2 and S3 agree up to the Schur residual (lam_n = <L g_n, g_n>); each
    adjacent link is reported in details["links"], and the top-level report
    compares S1 with the trace norm.  Raises InputError when the shapes
    differ or the pair is empty.
    """
    A, L, support, sf, tn = _pair_of(A, L)
    lams = sf.eigenvalues
    S1 = float(sum(support.distance(lam) for lam in lams))
    AG = A @ sf.Q
    diagA = np.einsum("ij,ij->j", np.conj(sf.Q), AG)
    S2 = float(np.sum(np.abs(lams - diagA)))
    DG = (L - A) @ sf.Q
    S3 = float(np.sum(np.abs(np.einsum("ij,ij->j", np.conj(sf.Q), DG))))
    links = [
        _link("distance-vs-diagonal", S1, S2, tol),
        _link("diagonal-identity", S2, S3, tol),
        _link("diagonal-vs-trace-norm", S3, tn, tol),
    ]
    return BoundReport(
        name="schur-chain",
        lhs=S1,
        rhs=tn,
        tol=tol,
        details={"links": links, "S2": S2, "S3": S3},
    )


# ---------------------------------------------------------------------------
# boundary quadrature for the Hardy-space chain

_QUAD_BASE = 4096
_QUAD_MAX = 2**20


def _circle_means(coeffs):
    """Circle means of log|h|, |h| and |h - 1| by one trapezoid loop.

    h is sampled once per rule, starting at 4096 nodes and doubling; each
    mean is taken at the first rule where it moved by less than 1e-9.  The
    first rule doubles as the boundary-zero probe, so every integrand is
    smooth on the circle and doubling converges geometrically.
    """
    means = [None, None, None]
    prev = [math.inf] * 3
    n = _QUAD_BASE
    while None in means:
        if n > _QUAD_MAX:
            raise QuadratureNoConvergence(f"boundary mean still moving at {n // 2} nodes")
        theta = 2.0 * np.pi * np.arange(n) / n
        h = np.polyval(coeffs[::-1], np.exp(1j * theta))
        absh = np.abs(h)
        if n == _QUAD_BASE and float(np.min(absh)) <= 1e-8:
            raise ZeroOnBoundary(f"min |h| on the circle is {float(np.min(absh)):.3e}")
        cur = [float(np.mean(v)) for v in (np.log(absh), absh, np.abs(h - 1.0))]
        means = [c if m is None and abs(c - p) < 1e-9 else m for m, c, p in zip(means, cur, prev)]
        prev = cur
        n *= 2
    return means


def check_jensen_h1(numerator_coeffs, tol: float = JENSEN_TOL) -> BoundReport:
    """The Hardy-space chain for a polynomial h with h(0) = 1.

    Checks, with boundary integrals against normalized arc length,

        sum(1/|z| - 1)  <=  exp(int log|h|) - 1  <=  int|h| - 1  <=  int|h - 1|

    over the zeros z of h inside the open disk.  Boundary zeros are rejected
    up front (the log integral would be singular).
    """
    coeffs = np.asarray(numerator_coeffs, dtype=complex).ravel()
    if coeffs.size == 0 or abs(coeffs[0] - 1.0) > 1e-12:
        raise InputError("polynomial must have constant coefficient 1")
    log_mean, h1, h1m1 = _circle_means(coeffs)
    roots = polynomial_roots(coeffs)
    inside = roots[np.abs(roots) < 1.0]
    lhs = float(np.sum(1.0 / np.abs(inside) - 1.0))
    geo = math.exp(log_mean)
    links = [
        _link("blaschke-vs-geometric-mean", lhs, geo - 1.0, tol),
        _link("geometric-vs-h1", geo - 1.0, h1 - 1.0, tol),
        _link("h1-vs-centered-h1", h1 - 1.0, h1m1, tol),
    ]
    return BoundReport(
        name="hardy-chain",
        lhs=lhs,
        rhs=h1m1,
        tol=tol,
        details={
            "links": links,
            "geometric_mean": geo,
            "h1_norm": h1,
            "h1_norm_centered": h1m1,
            "zeros_inside": [complex_to_json(z) for z in inside],
        },
    )


def check_real_line_variant(atoms, tol: float = REAL_LINE_TOL) -> BoundReport:
    """Upper-half-plane zeros of a line measure's transform vs its first moment norm.

    For mu = sum c_j delta_{s_j} on the real line with sum c_j = 1 and
    h(lam) = sum c_j/(s_j - lam), the bound is sum Im(lam) over zeros with
    Im(lam) > 0 (numerically, > 1e-8) against sum |s_j| |c_j|.

    The operator route: the resolvent identity needs the first-moment weights
    c'_j = s_j c_j.  With A = diag(s_j), (phi', psi') = rank_one_factors(c')
    and L = A - phi' psi'*,

        1 + <(lam - A)^{-1} phi', psi'> = -lam h(lam),

    so the spectrum of L is {0} together with the zeros of h, multiplicities
    included; plain sqrt|c_j| weighting would tie eigenvalues to solutions of
    h = 1 instead.  Each counted eigenvalue is checked to be an actual zero
    of h (residual <= 1e-8).
    """
    ss = np.array([float(s) for s, _ in atoms])
    cc = np.array([complex(c) for _, c in atoms])
    # finite positions and weights may still overflow their sums and products
    with np.errstate(over="ignore", invalid="ignore"):
        if abs(np.sum(cc) - 1.0) > 1e-12:
            raise InputError(f"weights sum to {complex(np.sum(cc))!r}, need 1")
        rhs = float(np.sum(np.abs(ss) * np.abs(cc)))
        phi, psi = rank_one_factors(ss * cc)
        L = np.diag(ss).astype(complex) - np.outer(phi, np.conj(psi))
    if not (math.isfinite(rhs) and np.all(np.isfinite(L))):
        raise InputError(f"atoms: sum |s_j| |c_j| = {rhs!r}; it, s_j c_j and L must be finite")
    clusters = eigenvalues_clustered(L)
    lhs = 0.0
    counted = []
    for cl in clusters:
        if cl.center.imag > 1e-8:
            lam = cl.center
            resid = abs(np.sum(cc / (ss - lam)))
            if resid > 1e-8:
                raise NumericalError(
                    f"eigenvalue {lam!r} counted but h({lam!r}) = {resid:.3e} != 0"
                )
            lhs += cl.multiplicity * lam.imag
            counted.append({**complex_to_json(lam), "mult": cl.multiplicity, "residual": resid})
    return BoundReport(
        name="half-plane-zero-bound",
        lhs=lhs,
        rhs=rhs,
        tol=tol,
        details={"upper_zeros": counted, "n_atoms": int(cc.size)},
    )
