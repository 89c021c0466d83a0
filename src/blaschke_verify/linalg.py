"""Dense complex linear algebra used by every other module.

Eigenvalues come from the complex Schur form (unitary Q, upper triangular T),
singular values from the SVD, and numerical-range geometry from the support
function max_theta(Re(e^{-i theta} lam) - lambda_max(Re(e^{-i theta} A))).
Each distance to a numerical range is the lower end of a certified bracket
closed to NR_BRACKET_TOL * max(1, |lam|): it never exceeds the true distance
and is within that width of it (see NumericalRangeSupport).
All kernels are deterministic and single threaded; callers may run independent
invocations concurrently on disjoint data.  The one memo here is the bracket
table of a NumericalRangeSupport: it lives on that object, holds its own copy
of the matrix, and maps each point only to the value a fresh query would
compute, so threads sharing a support at worst refine a point twice.
"""

from __future__ import annotations

import cmath
import dataclasses

import numpy as np

from .errors import InputError, NoConvergence

DEFAULT_CLUSTER_TOL = 1e-6
# Hermitian and PSD slack of psd_sqrt, relative to max(||H||, 1)
PSD_TOL = 1e-10
# support-function grid of NumericalRangeSupport
NR_ANGLES = 32
# closing width of a distance bracket, relative to max(1, |lam|)
NR_BRACKET_TOL = 1e-13
# single-angle evaluations one distance may take before NoConvergence
NR_MAX_STEPS = 200
_TINY = np.finfo(float).tiny


def as_square_matrix(A) -> np.ndarray:
    """Validate and convert to a square complex ndarray (copies if needed)."""
    M = np.asarray(A, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InputError(f"expected a square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M.view(float))):
        raise InputError("matrix entries must be finite")
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
    # imported here, at scipy's one call site, so that a run which never
    # forms a Schur form never pays scipy's start-up
    import scipy.linalg

    M = as_square_matrix(A)
    if M.shape[0] == 0:
        return SchurForm(Q=M.copy(), T=M.copy())
    try:
        # as_square_matrix has rejected non-finite entries already
        T, Q = scipy.linalg.schur(M, output="complex", check_finite=False)
    except np.linalg.LinAlgError as exc:  # scipy.linalg.LinAlgError is this class
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


def eigenvalues_clustered(
    A, tol: float = DEFAULT_CLUSTER_TOL, schur: SchurForm | None = None
) -> list[EigenCluster]:
    """Eigenvalues of A grouped with merge radius tol*max(1, ||A||).

    Cluster multiplicities sum to n.  The default tolerance balances the
    O(eps^(1/k)) scatter of defective eigenvalues against spurious merging.
    A caller that already holds schur_decompose(A) passes it as schur.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    M = as_square_matrix(A)
    if M.shape[0] == 0:
        return []
    sf = schur_decompose(M) if schur is None else schur
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


def operator_norm_over(A, bound: float) -> float:
    """A value that exceeds bound exactly when operator_norm(A) does, and
    equals operator_norm(A) then: for a check that only gates on the norm.

    The Frobenius norm bounds the spectral norm from above, so a Frobenius
    norm at or below bound (less 1e-12 relative, for the rounding of both)
    is returned as it is, and only a larger one takes the SVD.
    """
    f = float(np.linalg.norm(A))
    return f if f <= bound * (1.0 - 1e-12) else operator_norm(A)


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
    herm_defect = operator_norm_over(M - M.conj().T, PSD_TOL * scale)
    if herm_defect > PSD_TOL * scale:
        raise InputError(
            f"||H - H*|| = {herm_defect:.3e} exceeds {PSD_TOL:.1e}*max(||H||, 1)"
        )
    sym = (M + M.conj().T) / 2
    w, V = np.linalg.eigh(sym)
    if w.size and w[0] < -PSD_TOL * scale:
        raise InputError(f"eigenvalue {w[0]:.3e} below -{PSD_TOL:.1e}*max(||H||, 1)")
    S = (V * np.sqrt(np.maximum(w, 0.0))) @ V.conj().T
    return (S + S.conj().T) / 2


def _segment_distance(z: complex, a: complex, b: complex) -> float:
    """Distance from z to the segment [a, b], which may be the point a == b."""
    e = b - a
    w = z - a
    ee = e.real * e.real + e.imag * e.imag
    t = 0.0 if ee == 0.0 else min(1.0, max(0.0, (w.real * e.real + w.imag * e.imag) / ee))
    return abs(w - t * e)


class NumericalRangeSupport:
    """Distances to the numerical range W(A), each closed in a certified bracket.

    W(A) is convex (Toeplitz-Hausdorff), so dist(lam, W(A)) is the maximum of
    0 and f(theta) = Re(e^{-i theta} lam) - s(theta), where s(theta) is the
    largest eigenvalue of H(theta) = (e^{-i theta} A + e^{i theta} A*)/2.  The
    top unit eigenvector v of H(theta) gives the boundary point p = v*Av of
    W(A) (Johnson, SIAM J. Numer. Anal. 15, 1978) and, by Hellmann-Feynman,
    the slope s'(theta) = v*H'(theta)v = Im(e^{-i theta} p).  The grid is
    NR_ANGLES angles in antipodal pairs: H(theta + pi) = -H(theta), so one
    batched Hermitian eigensolve on the NR_ANGLES // 2 angles in [0, pi)
    gives s and p at theta from its top eigenpair and at theta + pi from its
    bottom one.  The p, in angle order, span a convex polygon inside W(A).
    Rounding scatters the copies of one vertex of W(A), the boundary point of
    a whole arc of angles; points within NR_BRACKET_TOL * max(1, r/16) of the
    previous one (r the numerical radius) are merged, which moves the polygon
    by less than a closing width.

    Each query lam gets a bracket lo <= dist(lam, W(A)) <= hi.  Its lower end
    is the best f evaluated, clamped at 0; its upper end is the distance from
    lam to boundary points: the polygon, or the chord [p_a, p_b] between the
    ends of the current angle bracket, which closes the bracket at a kink of f
    too (lam nearest to an edge of W(A)).  There are three cases:

    - lam inside the polygon: the distance is 0, and certified;
    - some grid angle has f > 0: f is unimodal where it is positive (its
      superlevel sets there are arcs of separating directions), so its
      maximum lies within one grid step of the grid argmax.  A safeguarded
      secant on f'(theta) = Im((lam - p) e^{-i theta}) shrinks that angle
      bracket by the sign of f'.  When its last step did not halve |f'| (as
      at a kink, where f' jumps), the next step goes to the normal angle of
      the chord [p_a, p_b], where the maximum of f sits when lam is nearest
      to the edge of W(A) that the chord approximates.  A step that would
      leave the bracket bisects it instead;
    - otherwise the query is ambiguous: the polygon edges that lam lies
      outside are bisected in angle until lam falls inside the refined
      polygon, an angle gives f > 0 (then as above), or the bracket closes.
      Such a query is never reported as 0 without this step.

    A bracket is closed when hi - lo <= NR_BRACKET_TOL * max(1, |lam|); when
    the numerical radius r of A exceeds 16, the target is at least
    NR_BRACKET_TOL * r / 16, which keeps it above the rounding of s and p.
    The grid only seeds the refinement; the certificate holds at any grid
    size.  A closed bracket with f > 0 takes one more support value, at the
    angle its next step would go to (the secant's root of f', or the chord's
    normal at a kink) when that lies strictly inside the angle bracket and
    the budget has a step left.  Every f is at most the distance, so this
    only raises lo, from up to a closing width below the distance to about
    its rounding.
    distance() returns the lower end, so it never exceeds the true distance
    (up to the rounding of s, about eps * r) and is within the closing width
    of it: a check that fails on these distances fails for the true ones,
    and a pass holds up to that width.  A bracket still open after
    NR_MAX_STEPS single-angle evaluations raises NoConvergence; no unclosed
    bracket is ever returned.

    Each bracket is memoized per complex(lam) on this object, so a point
    queried again (the trace bound and the Schur chain of one pair ask for the
    same eigenvalues) is a lookup.  The support keeps its own copy of A, so
    the grid and every memoized bracket stay those of the matrix it was built
    from.  The memo is a plain dict with one deterministic value per key:
    threads sharing a support can only compute a missing entry twice, never
    read a wrong one.  Raises InputError for an empty matrix, whose
    numerical range is empty.
    """

    def __init__(self, A):
        self.A = as_square_matrix(A).copy()
        if self.A.shape[0] == 0:
            raise InputError(
                f"numerical range needs a non-empty matrix, got shape {self.A.shape}"
            )
        self._AH = self.A.conj().T.copy()
        half = NR_ANGLES // 2
        self.thetas = 2.0 * np.pi * np.arange(NR_ANGLES) / NR_ANGLES
        self.thetas[half:] = self.thetas[:half] + np.pi
        self._phases = np.exp(-1j * self.thetas)
        self._phases[half:] = -self._phases[:half]
        # H(theta + pi) = -H(theta): one batched eigh on [0, pi) gives the top
        # eigenpair at theta and, negated, the bottom one at theta + pi
        ph = self._phases[:half, None, None]
        w, V = np.linalg.eigh((ph * self.A + np.conj(ph) * self._AH) / 2)
        self.support = np.concatenate([w[:, -1], -w[:, 0]])
        v = np.concatenate([V[:, :, -1], V[:, :, 0]])
        self._floor = max(1.0, float(np.max(np.abs(self.support))) / 16)
        self._gap = NR_BRACKET_TOL * self._floor
        self.points = _merge_repeats(np.sum(v.conj() * (v @ self.A.T), axis=1), self._gap)
        self._brackets: dict[complex, tuple[float, float]] = {}

    def _support_at(self, theta: float) -> tuple[float, float, complex]:
        """(s, s', p) at one angle: support, its slope and the boundary point."""
        ph = cmath.exp(-1j * theta)
        w, V = np.linalg.eigh((ph * self.A + ph.conjugate() * self._AH) / 2)
        v = V[:, -1]
        p = complex(v.conj() @ (self.A @ v))
        return float(w[-1]), (ph * p).imag, p

    def distance(self, lam: complex) -> float:
        """dist(lam, W(A)): the lower end of its closed bracket."""
        return self.bracket(lam)[0]

    def bracket(self, lam: complex) -> tuple[float, float]:
        """(lo, hi) with lo <= dist(lam, W(A)) <= hi, closed as described above."""
        lam = complex(lam)
        br = self._brackets.get(lam)
        if br is None:
            br = self._brackets[lam] = self._closed_bracket(lam)
        return br

    def _closed_bracket(self, lam: complex) -> tuple[float, float]:
        tol = NR_BRACKET_TOL * max(self._floor, abs(lam))
        vals = (lam * self._phases).real - self.support
        k = int(np.argmax(vals))
        if vals[k] > 0:
            return self._secant(lam, tol, self.thetas, self.points, k, float(vals[k]),
                                NR_MAX_STEPS)
        return self._settle(lam, tol)

    def _settle(self, lam: complex, tol: float) -> tuple[float, float]:
        """No evaluated angle has f > 0: refine the polygon next to lam."""
        angles, pts, steps = self.thetas, self.points, NR_MAX_STEPS
        while True:
            w = lam - pts
            e = _roll(pts, -1) - pts
            cross = e.real * w.imag - e.imag * w.real
            # lam is inside a counterclockwise polygon of positive area when
            # it is on the inner side of every edge; a degenerate polygon has
            # every cross product 0 and is left to the distance below
            if np.all(cross >= 0) and np.any(cross > 0):
                return 0.0, 0.0
            ee = e.real * e.real + e.imag * e.imag
            t = np.clip((w.real * e.real + w.imag * e.imag) / np.maximum(ee, _TINY), 0.0, 1.0)
            hi = float(np.min(np.abs(w - t * e)))
            if hi <= tol:
                return 0.0, hi
            out = np.flatnonzero(cross < 0)
            if out.size == 0 or out.size > steps:
                raise NoConvergence(
                    f"distance bracket [0, {hi:.3e}] at {lam} did not close "
                    f"within {NR_MAX_STEPS} evaluations"
                )
            nxt = _roll(angles, -1)
            nxt[-1] += 2.0 * np.pi
            mids = (angles[out] + nxt[out]) / 2
            evals = [self._support_at(float(t)) for t in mids]
            steps -= out.size
            f = [(lam * cmath.exp(-1j * t)).real - s for t, (s, _, _) in zip(mids, evals)]
            angles = np.insert(angles, out + 1, mids)
            pts = _merge_repeats(np.insert(pts, out + 1, [p for _, _, p in evals]), self._gap)
            j = int(np.argmax(f))
            if f[j] > 0:
                return self._secant(lam, tol, angles, pts, int(out[j]) + 1 + j, f[j], steps)

    def _secant(self, lam, tol, angles, pts, k, lo, steps) -> tuple[float, float]:
        """Close the bracket around angles[k], where f = lo > 0 is the largest
        evaluated value and both neighbours are lower."""
        m = angles.size
        a, pa = float(angles[k - 1]) - (2.0 * np.pi if k == 0 else 0.0), complex(pts[k - 1])
        b, pb = (float(angles[k + 1]), complex(pts[k + 1])) if k + 1 < m else (
            float(angles[0]) + 2.0 * np.pi, complex(pts[0]))
        c, pc = float(angles[k]), complex(pts[k])

        def slope(t, p):
            return ((lam - p) * cmath.exp(-1j * t)).imag

        hi = min(_segment_distance(lam, pa, pc), _segment_distance(lam, pc, pb))
        dc = slope(c, pc)
        if dc > 0:
            x0, d0, a, pa = b, slope(b, pb), c, pc
        else:
            x0, d0, b, pb = a, slope(a, pa), c, pc
        x1, d1, best, stalled = c, dc, c, False
        while True:
            t = a
            if stalled and pb != pa:
                # at a kink the maximum is the normal angle of the edge that
                # the chord approximates
                t = a + (cmath.phase(-1j * (pb - pa)) - a) % (2.0 * np.pi)
            elif not stalled and d1 != d0:
                t = x1 - d1 * (x1 - x0) / (d1 - d0)
            guessed = a < t < b
            if hi - lo <= tol:
                # closed, but lo may sit a width below the maximum: f at the
                # predicted maximiser can only raise it towards it
                if guessed and steps:
                    lo = max(lo, (lam * cmath.exp(-1j * t)).real - self._support_at(t)[0])
                return lo, max(lo, hi)
            if steps == 0:
                raise NoConvergence(
                    f"distance bracket [{lo:.17g}, {hi:.17g}] at {lam} did not "
                    f"close within {NR_MAX_STEPS} evaluations"
                )
            if not guessed:
                t = (a + b) / 2
            s, ds, p = self._support_at(t)
            steps -= 1
            z = lam * cmath.exp(-1j * t)
            f, d = z.real - s, z.imag - ds
            if f > lo:
                lo, best = f, t
            # where f > 0 the sign of f' points to the maximum; elsewhere the
            # maximum lies on the side of the best angle
            if (d > 0) if f > 0 else (t < best):
                a, pa = t, p
            else:
                b, pb = t, p
            # a secant or chord-normal step that did not halve |f'| has stalled
            stalled = guessed and not abs(d) <= abs(d1) / 2
            hi = min(hi, _segment_distance(lam, pa, pb))
            x0, d0, x1, d1 = x1, d1, t, d


def _merge_repeats(pts: np.ndarray, gap: float) -> np.ndarray:
    """Cyclic boundary points with each run of repeats merged into its first.

    A vertex of W(A) is the boundary point of a whole arc of angles, and
    rounding scatters its copies by about eps*|A|.  The edges between them
    would point anywhere, and lam could lie outside one of them from any
    side; merged copies (within gap of the previous point) make them edges of
    length 0, which no point lies outside.
    """
    same = np.abs(pts - _roll(pts, 1)) <= gap
    if same.all():
        return np.full_like(pts, pts[0])
    s = int(np.argmin(same))  # pts[s] starts a run
    starts = np.where(_roll(~same, -s), np.arange(pts.size), 0)
    return _roll(_roll(pts, -s)[np.maximum.accumulate(starts)], s)


def _roll(x: np.ndarray, shift: int) -> np.ndarray:
    """np.roll of a 1-d array by |shift| < x.size, without its n-d overhead."""
    return np.concatenate((x[-shift:], x[:-shift]))


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
