"""Finite unitary dilations of contractions and their spectral measures.

A contraction A on C^n embeds into a unitary U on (N+1) copies of C^n whose
corner blocks reproduce the powers of A up to order N:

    row 0: [A,   0, ..., 0,  D_{A*}]
    row 1: [D_A, 0, ..., 0, -A*    ]
    row k: identity in block column k-1          (2 <= k <= N)

with the defect operators D_A = (I - A*A)^{1/2}, D_{A*} = (I - AA*)^{1/2}.
Column orthogonality reduces to D_A A* = A* D_{A*}, the adjoint of the
intertwining relation A D_A = D_{A*} A, which is checked before assembly.
Tracking a state (x_0, ..., x_N): each application feeds D_A x_0 into block 1
and shifts blocks 1..N-1 down, so the defect leakage needs N+1 steps to wrap
back into block 0; compressions of U^k therefore equal A^k for all k <= N and
generically break at k = N+1.

Diagonalizing U (a normal matrix, so its Schur form is diagonal) yields
spectral projections P_k; the complex measure with atoms <P_k f, g> at the
unimodular eigenvalues represents the matrix elements of all powers of U, and
through the corner property, of the transform h built from (A, phi, psi).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .bounds import BoundReport
from .errors import DilationError, InputError
from .linalg import cluster_points, operator_norm, operator_norm_over, psd_sqrt, schur_decompose
from .measure import AtomicMeasure, reflect_measure, total_variation
from .operator_model import CONTRACTION_SLACK, ContractionSystem
from .transform import eval_K, taylor_moment

UNITARITY_TOL = 1e-10  # times dimension
COMPRESSION_TOL = 1e-10
EIGENVALUE_MODULUS_TOL = 1e-9
EIGEN_CLUSTER_TOL = 1e-8
DIAGONAL_RESIDUAL_TOL = 1e-8
# Taylor coefficients of h and of the extracted measure's transform agree to this
TAYLOR_TOL = 1e-9
# spectral weights below this (relative to ||phi|| ||psi||) are rounding dust
WEIGHT_DROP_REL = 1e-14


@dataclasses.dataclass(frozen=True)
class DilationResult:
    """Unitary N-dilation of an n x n contraction A on (N+1)*n dimensions."""

    U: np.ndarray
    embed: np.ndarray
    N: int
    powers: tuple  # A^0, ..., A^N, the corners of U^0, ..., U^N

    @property
    def unitarity_residual(self) -> float:
        """||U*U - I||, which dilate only gated against 1e-10 * dim."""
        return operator_norm(self.U.conj().T @ self.U - np.eye(self.dim))

    @property
    def n(self) -> int:
        return self.embed.shape[1]

    @property
    def dim(self) -> int:
        return self.U.shape[0]


def dilate(A, N: int) -> DilationResult:
    """Build the unitary N-dilation; unitarity and compression are enforced.

    Raises InputError for ||A|| > 1 + 1e-10, DilationError if the
    assembled matrix misses unitarity (1e-10 * dim) or any compression
    block(U^k)_00 = A^k for 1 <= k <= N (1e-10 * ||A||^k each).
    """
    A = np.asarray(A, dtype=complex)
    if N < 1:
        raise ValueError("dilation order N must be >= 1")
    nrm = operator_norm(A)
    if nrm > 1.0 + CONTRACTION_SLACK:
        raise InputError(f"||A|| = {nrm!r} exceeds 1 + 1e-10")
    n = A.shape[0]
    eye = np.eye(n, dtype=complex)
    DA = psd_sqrt(eye - A.conj().T @ A)
    DAs = psd_sqrt(eye - A @ A.conj().T)
    bound = 1e-8 * max(1.0, nrm)
    inter = operator_norm_over(A @ DA - DAs @ A, bound)
    if inter > bound:
        raise DilationError(f"defect intertwining broke: ||A D - D' A|| = {inter:.3e}")
    dim = (N + 1) * n
    U = np.zeros((dim, dim), dtype=complex)
    b = lambda k: slice(k * n, (k + 1) * n)
    U[b(0), b(0)] = A
    U[b(0), b(N)] = DAs
    U[b(1), b(0)] = DA
    U[b(1), b(N)] = -A.conj().T
    for k in range(2, N + 1):
        U[b(k), b(k - 1)] = eye
    bound = UNITARITY_TOL * dim
    resid = operator_norm_over(U.conj().T @ U - np.eye(dim), bound)
    if resid > bound:
        raise DilationError(f"unitarity residual {resid:.3e} > 1e-10 * {dim}")
    embed = np.zeros((dim, n), dtype=complex)
    embed[:n, :] = eye
    # k = 0 compares I with I, so the check starts at the first power; the
    # corner of U^k is the top block of its first block column V_k = U V_{k-1}
    Vk, powers = embed, [eye]
    for k in range(1, N + 1):
        Vk = U @ Vk
        powers.append(powers[-1] @ A)
        bound = COMPRESSION_TOL * max(nrm, 1e-30) ** k
        err = operator_norm_over(Vk[:n] - powers[-1], bound)
        if err > bound:
            raise DilationError(
                f"compression broke at order {k}: residual {err:.3e}"
            )
    return DilationResult(U=U, embed=embed, N=N, powers=tuple(powers))


def extract_spectral_measure(d: DilationResult, phi, psi) -> AtomicMeasure:
    """The complex measure <E_U(.) embed(phi), embed(psi)> as circle atoms:
    weight <P_k embed(phi), embed(psi)> at each eigenvalue of U.

    U is normal, so its Schur form must come out diagonal (residual above
    1e-8 is an error, not something to repair).  Eigenvalues are snapped to
    the circle (deviation up to 1e-9 tolerated), near-coincident ones within
    1e-8 pool their weights since only the joint projection of a cluster is
    stable.  Weights below 1e-14 * ||phi|| ||psi|| are dropped as dust.
    """
    phi = np.asarray(phi, dtype=complex).ravel()
    psi = np.asarray(psi, dtype=complex).ravel()
    if phi.size != d.n or psi.size != d.n:
        raise DilationError(
            f"phi/psi must live in the original {d.n}-space, got {phi.size}, {psi.size}"
        )
    sf = schur_decompose(d.U)
    off = sf.T - np.diag(np.diag(sf.T))
    offres = operator_norm_over(off, DIAGONAL_RESIDUAL_TOL)
    if offres > DIAGONAL_RESIDUAL_TOL:
        raise DilationError(
            f"Schur form of the unitary is not diagonal: residual {offres:.3e}"
        )
    lams = sf.eigenvalues
    moduli = np.abs(lams)
    if np.any(np.abs(moduli - 1.0) > EIGENVALUE_MODULUS_TOL):
        worst = float(np.max(np.abs(moduli - 1.0)))
        raise DilationError(f"eigenvalue modulus off the circle by {worst:.3e}")
    lams = lams / moduli
    ephi = d.embed @ phi
    epsi = d.embed @ psi
    a = sf.Q.conj().T @ ephi
    bcoef = sf.Q.conj().T @ epsi
    raw_w = np.conj(bcoef) * a  # per-eigenvector <P phi', psi'>, pooled below
    clusters = cluster_points(lams, radius=EIGEN_CLUSTER_TOL)
    scale = float(np.linalg.norm(phi) * np.linalg.norm(psi))
    centers = np.array([c.center for c in clusters])
    nearest = np.argmin(np.abs(lams[:, None] - centers[None, :]), axis=1)
    pooled = np.zeros(len(clusters), dtype=complex)
    np.add.at(pooled, nearest, raw_w)
    kept = np.hypot(pooled.real, pooled.imag) > WEIGHT_DROP_REL * max(1.0, scale)
    measure = AtomicMeasure([c / abs(c) for c in centers[kept].tolist()], pooled[kept])
    total = measure.mass()
    inner = complex(np.vdot(epsi, ephi))
    if abs(total - inner) > 1e-10 * max(1.0, abs(inner)) + 1e-10:
        raise DilationError(
            f"spectral weights sum to {total!r}, expected <phi,psi> = {inner!r}"
        )
    # sum_k |conj(b_k) a_k| <= ||a|| ||b|| = scale, Q being unitary; both
    # sides round by O(dim * eps) * scale, so the slack is relative
    tv = total_variation(measure)
    if tv > scale + 1e-10 * max(1.0, scale):
        raise DilationError(f"total variation {tv!r} exceeds ||phi|| ||psi|| = {scale!r}")
    return measure


def roundtrip_check(s: ContractionSystem, N: int, taylor_tol: float = TAYLOR_TOL) -> BoundReport:
    """Dilate A to order N and run roundtrip_report on the result."""
    return roundtrip_report(s, dilate(s.A, N), taylor_tol)


def roundtrip_report(s: ContractionSystem, d: DilationResult, taylor_tol: float) -> BoundReport:
    """Extract the spectral measure of the dilation d of s.A and compare transforms.

    h(w) = 1 + w <(I - wA)^{-1} phi, psi> has Taylor coefficients
    <A^{m-1} phi, psi> for m >= 1; the reconstruction
    h~(w) = 1 + w sum_k w_k/(1 - w lam_k) from the extracted measure must
    match them for m = 0..N+1 (the dilation carries moments up to U^N).
    Equivalently, the reflected measure's transform is the backward shift of
    h~, which ties the construction back to the measure calculus.  The report
    compares total_variation(measure) with ||phi|| ||psi||.
    """
    mu = extract_spectral_measure(d, s.phi, s.psi)
    refl = reflect_measure(mu)
    # both transforms are exactly 1 at the origin; the m-th coefficient of h~,
    # m >= 1, is the (m-1)-th moment of the reflection
    coeff_errs = [0.0] + [
        abs(complex(np.vdot(s.psi, Ak @ s.phi)) - taylor_moment(refl, k))
        for k, Ak in enumerate(d.powers)
    ]
    worst = max(coeff_errs)
    if worst > taylor_tol:
        raise DilationError(
            f"Taylor coefficients diverge at order {coeff_errs.index(worst)}: {worst:.3e}"
        )
    # the reflected measure's transform is the backward shift of h~: check the
    # defining identity h~(w) = 1 + w K(refl)(w) at a few interior points
    probes = np.array([0.31 + 0.4j, -0.55 - 0.2j, 0.05 + 0.85j, -0.7 + 0.1j])
    direct = 1.0 + probes * np.array([np.sum(mu.weights / (1.0 - w * mu.points)) for w in probes])
    via_refl = 1.0 + probes * np.array([eval_K(refl, w) for w in probes])
    shift_err = float(np.max(np.abs(direct - via_refl)))
    if shift_err > 1e-10:
        raise DilationError(f"reflected-measure representation off by {shift_err:.3e}")
    return BoundReport(
        name="dilation-roundtrip",
        lhs=total_variation(mu),
        rhs=s.norm_product(),
        tol=1e-10,
        details={
            "order": d.N,
            "dimension": d.dim,
            "taylor_errors": coeff_errs,
            "reflection_residual": shift_err,
            "n_atoms": mu.natoms,
        },
    )
