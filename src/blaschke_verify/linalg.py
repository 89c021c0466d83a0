"""Dense complex linear algebra used by every other module.

Eigenvalues come from the complex Schur form (unitary Q, upper triangular T),
singular values from the SVD, and numerical-range geometry from the support
function max_theta(Re(e^{-i theta} lam) - lambda_max(Re(e^{-i theta} A))).
All kernels are deterministic and single threaded; callers may run independent
invocations concurrently on disjoint data.  The one memo here is the distance
table of a NumericalRangeSupport: it lives on that object, holds its own copy
of the matrix, and maps each point only to the value a fresh query would
compute, so threads sharing a support at worst refine a point twice.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import scipy.linalg

from .errors import (
    DimensionMismatch,
    NoConvergence,
    NonFiniteValue,
    NotHermitian,
    NotPSD,
)

DEFAULT_CLUSTER_TOL = 1e-6
# Hermitian and PSD slack of psd_sqrt, relative to max(||H||, 1)
PSD_TOL = 1e-10
# support-function grid of NumericalRangeSupport
NR_ANGLES = 720


def as_square_matrix(A) -> np.ndarray:
    """Validate and convert to a square complex ndarray (copies if needed)."""
    M = np.asarray(A, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M.view(float))):
        raise NonFiniteValue("matrix entries must be finite")
    return M


@dataclasses.dataclass(frozen=True)
class SchurForm:
    """Complex Schur decomposition input = Q T Q* with Q unitary, T upper triangular."""

    Q: np.ndarray
    T: np.ndarray

    @property
    def eigenvalues(self) -> np.ndarray:
        return np.diag(self.T).copy()


@dataclasses.dataclass(frozen=True)
class EigenCluster:
    """A group of nearby eigenvalues treated as one point with multiplicity.

    spread is the largest distance of a member from the cluster center; it is
    diagnostic only (large spread flags severe defectiveness).
    """

    center: complex
    multiplicity: int
    spread: float = 0.0


def schur_decompose(A) -> SchurForm:
    """Complex Schur form via the implicitly shifted QR algorithm (LAPACK zgees).

    Returns
    -------
    SchurForm with ||Q*Q - I|| <= 1e-10*n, ||QTQ* - A|| <= 1e-9*||A||, and a
    strictly upper triangular T; diag(T) lists eigenvalues with algebraic
    multiplicity.

    Raises
    ------
    NoConvergence if the QR iteration stalls.
    """
    M = as_square_matrix(A)
    if M.shape[0] == 0:
        return SchurForm(Q=M.copy(), T=M.copy())
    try:
        T, Q = scipy.linalg.schur(M, output="complex")
    except (scipy.linalg.LinAlgError, np.linalg.LinAlgError) as exc:
        raise NoConvergence(f"Schur iteration failed: {exc}") from exc
    return SchurForm(Q=Q, T=T)


def cluster_points(points, radius: float) -> list[EigenCluster]:
    """Greedy clustering of complex points with an absolute merge radius.

    Points are visited in (Re, Im) lexicographic order; each point joins the
    first existing cluster whose running-mean center is within `radius`,
    otherwise it opens a new cluster.  Deterministic for a given input multiset.
    """
    pts = np.asarray(points, dtype=complex).ravel()
    order = np.lexsort((pts.imag, pts.real))
    centers: list[complex] = []
    members: list[list[complex]] = []
    for p in pts[order]:
        placed = False
        for k, c in enumerate(centers):
            if abs(p - c) <= radius:
                members[k].append(p)
                centers[k] = sum(members[k]) / len(members[k])
                placed = True
                break
        if not placed:
            centers.append(complex(p))
            members.append([complex(p)])
    out = []
    for c, ms in zip(centers, members):
        spread = max(abs(m - c) for m in ms)
        out.append(EigenCluster(center=complex(c), multiplicity=len(ms), spread=spread))
    out.sort(key=lambda cl: (cl.center.real, cl.center.imag))
    return out


def eigenvalues_clustered(A, tol: float = DEFAULT_CLUSTER_TOL) -> list[EigenCluster]:
    """Eigenvalues of A grouped with merge radius tol*max(1, ||A||).

    Cluster multiplicities sum to n.  The default tolerance balances the
    O(eps^(1/k)) scatter of defective eigenvalues against spurious merging.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    M = as_square_matrix(A)
    if M.shape[0] == 0:
        return []
    sf = schur_decompose(M)
    radius = tol * max(1.0, operator_norm(M))
    return cluster_points(sf.eigenvalues, radius)


def singular_values(A) -> np.ndarray:
    """Singular values in nonincreasing order, always >= 0.

    Computed by the SVD rather than eigenvalues of A*A: the Gram route loses
    half the digits on small singular values (measured worst case ~3e-8
    relative on rank-one matrices vs ~1e-15 for the SVD), and downstream
    invariants need trace_norm(phi psi*) = ||phi|| ||psi|| to 1e-12.
    """
    M = as_square_matrix(A)
    if M.shape[0] == 0:
        return np.zeros(0)
    s = np.linalg.svd(M, compute_uv=False)
    return np.maximum(s, 0.0)


def trace_norm(A) -> float:
    """Sum of singular values (nuclear norm)."""
    return float(np.sum(singular_values(A)))


def operator_norm(A) -> float:
    """Largest singular value (spectral norm)."""
    s = singular_values(A)
    return float(s[0]) if s.size else 0.0


def psd_sqrt(H) -> np.ndarray:
    """Hermitian square root of a PSD matrix via the Hermitian eigensolver.

    Accepts H with ||H - H*|| <= 1e-10*max(||H||, 1) and eigenvalues down to
    -1e-10*max(||H||, 1); negative eigenvalues are clamped to 0.  The floor at
    1 keeps near-zero defect matrices (unitary inputs upstream) from failing a
    relative test against their own roundoff.  The result S is exactly
    Hermitian with S @ S = H to ~1e-9 relative.
    """
    M = as_square_matrix(H)
    if M.shape[0] == 0:
        return M.copy()
    scale = max(operator_norm(M), 1.0)
    herm_defect = operator_norm(M - M.conj().T)
    if herm_defect > PSD_TOL * scale:
        raise NotHermitian(
            f"||H - H*|| = {herm_defect:.3e} exceeds {PSD_TOL:.1e}*max(||H||, 1)"
        )
    sym = (M + M.conj().T) / 2
    w, V = np.linalg.eigh(sym)
    if w.size and w[0] < -PSD_TOL * scale:
        raise NotPSD(f"eigenvalue {w[0]:.3e} below -{PSD_TOL:.1e}*max(||H||, 1)")
    S = (V * np.sqrt(np.maximum(w, 0.0))) @ V.conj().T
    return (S + S.conj().T) / 2


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class NumericalRangeSupport:
    """Support function of the numerical range of A on a grid of 720 angles.

    The numerical range is convex (Toeplitz-Hausdorff), so
    dist(lam, Num(A)) = max_theta (Re(e^{-i theta} lam) - s(theta)) clamped at
    0, where s(theta) = lambda_max((e^{-i theta} A + e^{i theta} A*)/2).  The
    grid is evaluated once per matrix with a batched Hermitian eigensolver;
    distance queries then cost one vectorized pass plus a golden-section
    refinement around the maximizing angle.  Grid truncation can only
    under-estimate the distance, which is the safe direction for every
    inequality this package checks.

    Each distance is memoized per complex(lam) on this object, so a point
    queried again (the trace bound and the Schur chain of one pair ask for the
    same eigenvalues) is a lookup.  The support keeps its own copy of A, so
    the grid and every memoized distance stay those of the matrix it was built
    from.  The memo is a plain dict with one deterministic value per key:
    threads sharing a support can only compute a missing entry twice, never
    read a wrong one.  Raises DimensionMismatch for an empty matrix, whose
    numerical range is empty.
    """

    def __init__(self, A):
        self.A = as_square_matrix(A).copy()
        if self.A.shape[0] == 0:
            raise DimensionMismatch(
                f"numerical range needs a non-empty matrix, got shape {self.A.shape}"
            )
        self.thetas = 2.0 * np.pi * np.arange(NR_ANGLES) / NR_ANGLES
        ph = np.exp(-1j * self.thetas)
        # stack of Hermitian parts, one batched eigvalsh call
        stack = (
            ph[:, None, None] * self.A[None, :, :]
            + np.conj(ph)[:, None, None] * self.A.conj().T[None, :, :]
        ) / 2
        self.support = np.linalg.eigvalsh(stack)[:, -1]
        self._distances: dict[complex, float] = {}

    def _support_at(self, theta: float) -> float:
        H = (np.exp(-1j * theta) * self.A + np.exp(1j * theta) * self.A.conj().T) / 2
        return float(np.linalg.eigvalsh(H)[-1])

    def distance(self, lam: complex) -> float:
        lam = complex(lam)
        d = self._distances.get(lam)
        if d is None:
            d = self._distances[lam] = self._refined_distance(lam)
        return d

    def _refined_distance(self, lam: complex) -> float:
        vals = (lam * np.exp(-1j * self.thetas)).real - self.support
        k = int(np.argmax(vals))
        best = float(vals[k])
        if best > -1e-13:
            step = 2.0 * np.pi / NR_ANGLES

            def f(theta):
                return (lam * np.exp(-1j * theta)).real - self._support_at(theta)

            # golden-section maximization on the bracket around the grid argmax;
            # the 48 steps shrink it from 2*step to 2.6e-12
            a = self.thetas[k] - step
            b = self.thetas[k] + step
            x1 = b - _GOLDEN * (b - a)
            x2 = a + _GOLDEN * (b - a)
            f1, f2 = f(x1), f(x2)
            for _ in range(48):
                if f1 < f2:
                    a, x1, f1 = x1, x2, f2
                    x2 = a + _GOLDEN * (b - a)
                    f2 = f(x2)
                else:
                    b, x2, f2 = x2, x1, f1
                    x1 = b - _GOLDEN * (b - a)
                    f1 = f(x1)
            best = max(best, f1, f2)
        return max(best, 0.0)


def polynomial_roots(coeffs) -> np.ndarray:
    """All complex roots of a polynomial with ascending coefficients.

    Trailing zero coefficients are dropped first, so the companion matrix is
    built on a nonzero leading coefficient.  Roots come from its Schur form,
    sorted by (Re, Im).
    """
    c = np.trim_zeros(np.asarray(coeffs, dtype=complex).ravel(), "b")
    n = c.size - 1
    if n < 1:
        return np.zeros(0, dtype=complex)
    C = np.zeros((n, n), dtype=complex)
    C[1:, :-1] = np.eye(n - 1)
    C[:, -1] = -c[:-1] / c[-1]
    ev = schur_decompose(C).eigenvalues
    order = np.lexsort((ev.imag, ev.real))
    return ev[order]
