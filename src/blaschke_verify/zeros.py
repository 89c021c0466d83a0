"""Zeros of h in the open unit disk by three independent routes.

1. reciprocal-eigenvalue: eigenvalues of the rank-one perturbation L outside
   the closed disk are exactly the reciprocals of zeros of h, multiplicity
   matching algebraic multiplicity;
2. argument-principle: adaptive winding-number quadrature on circles; a cell
   holding any number of zeros, the top circle first, is read off its own
   contour (the scaled power sums give a Hankel pencil whose eigenvalues,
   finished by Newton on h, are the zeros), and only a cell whose reading
   fails its checks is quadrisected into covering circles;
3. numerator-roots: companion-matrix roots of the exact rational numerator.

Cross-validating the three on random instances is the core scientific check
of this package, so the routes share no computational machinery beyond the
eigensolver.
"""

from __future__ import annotations

import cmath
import dataclasses
import math

import numpy as np

from . import transform
from .errors import (
    ContourThroughZero,
    MaxDepthExceeded,
    NonIntegerWinding,
    NumericalError,
)
from .linalg import DEFAULT_CLUSTER_TOL, cluster_points, polynomial_roots
from .operator_model import ContractionSystem, build_L, eigenvalues_outside_disk
from .transform import CauchyFunction, rational_form

METHOD_L = "reciprocal-eigenvalue"
METHOD_ARG = "argument-principle"
METHOD_ROOTS = "numerator-roots"

# zeros reported by different routes are considered the same within this
PAIRING_TOL = 1e-7
# the contour route searches |w| < radius <= CONTOUR_CAP and leaves the rim to the others
CONTOUR_CAP = 0.999


@dataclasses.dataclass(frozen=True)
class ZeroSet:
    """Zeros (location, multiplicity) in the open disk, sorted by (Re, Im).

    radius is the radius the search certified, for a route that searches a
    smaller disk (the contour route, after any nudge of its top circle);
    None for the routes that search the whole disk.
    """

    zeros: tuple
    method: str
    radius: float | None = None

    def __post_init__(self):
        zs = []
        for loc, mult in self.zeros:
            loc = complex(loc)
            mult = int(mult)
            if not cmath.isfinite(loc):
                raise NumericalError(f"zero {loc!r} is not finite")
            if abs(loc) >= 1.0:
                raise NumericalError(f"zero {loc!r} is not inside the open disk")
            if mult < 1:
                raise NumericalError(f"multiplicity {mult} < 1 at {loc!r}")
            zs.append((loc, mult))
        zs.sort(key=lambda zm: (zm[0].real, zm[0].imag))
        object.__setattr__(self, "zeros", tuple(zs))

    @property
    def count(self) -> int:
        return sum(m for _, m in self.zeros)

    def within(self, radius: float) -> "ZeroSet":
        """The zeros with |z| < radius, the radius another route certified;
        the method is kept and the radius left unset."""
        return ZeroSet(tuple((z, m) for z, m in self.zeros if abs(z) < radius), self.method)


def blaschke_sum(z: ZeroSet) -> float:
    """sum multiplicity * (1/|zero| - 1); zero for the empty set."""
    return float(sum(m * (1.0 / abs(loc) - 1.0) for loc, m in z.zeros))


def _distances(a: ZeroSet, b: ZeroSet) -> np.ndarray:
    """|a_i - b_j| between the distinct zeros of a (rows) and of b (columns)."""
    za, zb = (np.array([z for z, _ in s.zeros], dtype=complex) for s in (a, b))
    return np.abs(za[:, None] - zb[None, :])


def match_zero_sets(a: ZeroSet, b: ZeroSet, tol: float = PAIRING_TOL):
    """Pair each zero of a with its nearest zero of b.

    Returns (matched, worst).  matched: the sets have the same number of
    distinct zeros and the same count, the nearest-neighbour map (the row
    argmin of the distances) is a bijection, every row minimum is <= tol,
    and the paired multiplicities agree.  worst: the largest row minimum
    (0.0 for two empty sets, inf when the counts differ).

    Never looser than a minimum-sum assignment.  No permutation sums below
    the row minima, so a bijective argmin is an optimal assignment: a match
    here is one there, with the same worst.  Conversely let an optimal p
    pair every a_i within tol of b_p(i).  If the argmin map is no bijection,
    two zeros a_i, a_k share their nearest b_j, and |a_i - a_k| <=
    |a_i - b_p(i)| + |a_k - b_p(k)| <= 2*tol; if it is a bijection other
    than p, both sum to the row minima, so some a_i is nearest to two zeros
    of b, within 2*tol of each other.  So only a set holding two zeros
    within 2*tol can split the verdicts, and then this one is no match.
    """
    if len(a.zeros) != len(b.zeros) or a.count != b.count:
        return False, math.inf
    if not a.zeros:
        return True, 0.0
    cost = _distances(a, b)
    cols = cost.argmin(axis=1).tolist()
    worst = float(cost.min(axis=1).max())
    mults_ok = all(m == b.zeros[j][1] for (_, m), j in zip(a.zeros, cols))
    return (len(set(cols)) == len(cols) and worst <= tol and mults_ok), worst


def unpaired_zeros(a: ZeroSet, b: ZeroSet, tol: float):
    """For a and for b, (zero, multiplicity, distance) of each zero whose
    nearest zero in the other set is farther than tol (inf if that is empty)."""
    cost = _distances(a, b)
    return [[(z, m, float(d)) for (z, m), d in zip(s.zeros, cost.min(axis=k, initial=math.inf))
             if d > tol] for s, k in ((a, 1), (b, 0))]


def zeros_via_L(s: ContractionSystem, cluster_tol: float = DEFAULT_CLUSTER_TOL) -> ZeroSet:
    """Reciprocals of the eigenvalues of L = A - phi psi* outside the disk.

    Eigenvalue clusters within 1e-8 (operator_model.BOUNDARY_TOL) of the unit
    circle are indeterminate and excluded (their reciprocal zeros would hug
    the boundary from inside); multiplicities are cluster sizes, merged with
    radius cluster_tol*max(1, ||L||).
    """
    outside = eigenvalues_outside_disk(build_L(s), cluster_tol=cluster_tol)
    zeros = tuple((1.0 / cl.center, cl.multiplicity) for cl in outside)
    # h(0) = 1 for every system, so only underflow puts a zero at 0
    if any(z == 0 for z, _ in zeros):
        raise NumericalError("the reciprocal of an eigenvalue of L underflows to 0, where h(0) = 1")
    return ZeroSet(zeros=zeros, method=METHOD_L)


def zeros_via_numerator_roots(f: CauchyFunction) -> ZeroSet:
    """Roots of the exact rational numerator, filtered to the open disk.

    The companion-matrix eigenvalues of the numerator polynomial are the only
    candidates for zeros of h; clustering with radius 1e-6 recovers
    multiplicities.
    """
    rf = rational_form(f)
    roots = polynomial_roots(rf.numerator)
    inside = roots[np.abs(roots) < 1.0]
    clusters = cluster_points(inside, radius=1e-6)
    return ZeroSet(
        zeros=tuple((cl.center, cl.multiplicity) for cl in clusters),
        method=METHOD_ROOTS,
    )


# ---------------------------------------------------------------------------
# argument principle


class _NearZeroContour(Exception):
    """Internal: |h| dipped below the guard on a contour; caller nudges."""


def _h_and_deriv_continuation(f: CauchyFunction, warr: np.ndarray):
    # The rational continuation of h, legal anywhere off the poles.  Covering
    # disks of the subdivision bulge past the unit circle, which the public
    # evaluators reject; zeros isolated out there are discarded at the end.
    K = transform._K_values(f.source, warr)
    Kp = transform._K_derivative(f.source, warr)
    if f.mode == "direct":
        return K, Kp
    return 1.0 + warr * K, K + warr * Kp


_BASE_NODES = 1024
_MAX_NODES = 65536
_WINDING_TOL = 1e-3
_GUARD_REL = 1e-12
# reject contours passing closer than this (relative) to an atom pole; the
# nudge ladder reaches 4e-4 so a rejected radius can always be cleared
_POLE_CLEARANCE_REL = 2e-4
# relative radius nudges of a contour, growing first: 0, +1e-4, -1e-4, ...,
# -4e-4 (k * 1e-4 as computed, which for k = 3 is not the literal 3e-4)
_NUDGES = (0.0,) + tuple(sign * k * 1e-4 for k in range(1, 5) for sign in (1, -1))
# the trapezoid nodes new at each doubling level n, computed once per process:
# all n at the first level, the odd ones after it.  Levels up to _MAX_NODES
# hold _MAX_NODES values (1 MiB) in all; the levels past it, reached only when
# the winding settles at 32768 nodes or more, are not kept
_LEVEL_NODES: dict = {}


def _level_nodes(n: int) -> np.ndarray:
    """exp(2 pi i j / n) for the j new at level n, as a read-only array."""
    e = _LEVEL_NODES.get(n)
    if e is None:
        j = np.arange(n) if n == _BASE_NODES else np.arange(1, n, 2)
        theta = 2.0 * np.pi * j / n
        e = np.exp(1j * theta)
        e.flags.writeable = False
        if n <= _MAX_NODES:
            _LEVEL_NODES[n] = e
    return e


def _interleave(old: np.ndarray, new: np.ndarray) -> np.ndarray:
    """Merge the values of the previous rule (even nodes) with the new odd ones."""
    out = np.empty(old.size + new.size, dtype=complex)
    out[0::2] = old
    out[1::2] = new
    return out


def _contour_moments(f: CauchyFunction, center: complex, rho: float):
    """Zero count, moments and the cell's reading over |w - center| = rho.

    Returns (k, M1, M2, err, zeros): M1 and M2 are the sums of the zeros
    inside and of their squares, err the moment error estimate below, and
    zeros the k simple zeros of the cell from its accepted reading, or None
    when it was not read (k < 1) or every reading was refused.  A reading is
    _hankel_zeros on the scaled power sums s_p = sum_i ((z_i - center)/rho)^p,
    p = 0..2k: the means of e^p g over the current rule, e = (w - center)/rho,
    so they cost one vector product each and no kernel evaluation.

    The integrand is the logarithmic derivative of F = h prod_j (w - zeta_j),
    which has the zeros of h and no poles, so the winding counts zeros alone
    even when the disk swallows atom poles (subdivision cells bulge well past
    the unit circle; without the pole-free form a cell holding one zero and
    one pole nets winding zero and the zero is silently lost).  Contours
    passing within 2e-4 (relative) of an atom are rejected up front.

    Trapezoid nodes double until the winding settles at n_s nodes, within
    1e-3 of an integer (NonIntegerWinding beyond 65536 nodes); the moments
    then take the geometric tail of the rule, and err is their change over
    the last doubling.  This is the one place a cell is read, and a contour
    reads it at most twice: at 2 n_s when k >= 1 and the moments have
    converged there (err from n_s to 2 n_s at most 1e-10 of the radius, so
    the s_2k tolerance is the bare k * 1e-10 floor), and an accepted reading
    ends the contour; otherwise, or when that reading is refused, at 4 n_s,
    where the contour ends with the moments and err of that level.  The node
    budget bounds the search for the settle, not the levels after it: a
    winding that settles at the budget (a zero near the circle slows the
    rule) still needs the doublings that converge its moments and measure
    err, so the last level of a contour holds at most 4 * 65536 nodes.  Raises
    _NearZeroContour when |h| dips below 1e-12 of its maximum over the nodes
    seen so far or the contour hugs a pole, and NumericalError when that
    maximum or the winding mean is not finite: h or h' overflowed.

    The rules nest: the nodes of one level are the even nodes of the next,
    so each doubling evaluates the kernel only at the new odd angles and
    reuses everything else; the nodes themselves come from _level_nodes, and
    M1 and M2 are formed only at the settle level and after it, the only
    ones that read them.  The integrand g is nevertheless formed
    after interleaving, on the full-length arrays: numpy's complex multiply
    can round the same inputs differently depending on array length and
    alignment, and forming g on the odd subset alone would move the last
    bits of the moments away from those of the unnested rule.
    """
    poles = f.source.points
    clearance = np.abs(np.abs(poles - center) - rho)
    if float(np.min(clearance, initial=np.inf)) < _POLE_CLEARANCE_REL * rho:
        raise _NearZeroContour
    n = _BASE_NODES
    k = None
    settled_at = None
    e = w = logd = None
    amax, amin = 0.0, math.inf
    while True:
        e_new = _level_nodes(n)
        w_new = center + rho * e_new
        h, hp = _h_and_deriv_continuation(f, w_new)
        ah = np.abs(h)
        amax = max(float(np.max(ah)), amax)  # first, so that a NaN carries
        if not math.isfinite(amax):
            raise NumericalError(f"|h| is not finite on |w - {center!r}| = {rho!r}")
        amin = min(amin, float(np.min(ah)))
        if amax == 0.0 or amin <= _GUARD_REL * amax:
            raise _NearZeroContour
        logd_new = hp / h + np.sum(1.0 / (w_new[:, None] - poles[None, :]), axis=1)
        if e is None:
            e, w, logd = e_new, w_new, logd_new
        else:
            e = _interleave(e, e_new)
            w = _interleave(w, w_new)
            logd = _interleave(logd, logd_new)
        g = logd * (rho * e)
        W = complex(np.mean(g))
        if not cmath.isfinite(W):
            raise NumericalError(f"the winding of h'/h is not finite on |w - {center!r}| = {rho!r}")
        if settled_at is None:
            cand = round(W.real)
            if abs(W - cand) < _WINDING_TOL:
                k, settled_at = cand, n
            elif n >= _MAX_NODES:
                raise NonIntegerWinding(
                    f"winding {W!r} not near an integer after {n} nodes"
                )
        elif abs(W - k) > _WINDING_TOL:
            # a coincidental early settle; resume the search if budget remains
            if n >= _MAX_NODES:
                raise NonIntegerWinding(
                    f"winding drifted from {k} to {W!r} at {n} nodes"
                )
            k, settled_at = None, None
        if settled_at is not None:
            M1 = complex(np.mean(w * g))
            M2 = complex(np.mean(w * w * g))
            if n > settled_at:
                err = abs(M1 - prev[0]) + abs(M2 - prev[1])
                late = n == settled_at * 4
                zeros = None
                if k >= 1 and (late or err <= _POWER_SUM_FLOOR * rho):
                    sums, eg = [W], g
                    for _ in range(2 * k):
                        eg = eg * e
                        sums.append(complex(np.mean(eg)))
                    zeros = _hankel_zeros(f, center, rho, sums, err)
                if zeros is not None or late:
                    return k, M1, M2, err, zeros
            prev = (M1, M2)
        n *= 2


def _contour_with_nudges(f: CauchyFunction, center: complex, rho: float):
    """Retry the contour with small relative radius nudges, growing first.

    A zero (or pole) hugging the contour shows up either as the |h| guard
    tripping or as a winding that refuses to settle, so both reroute here;
    the ladder reaches +-4e-4 relative, enough to clear anything the 65536
    node budget cannot resolve.
    """
    tried = []
    for nudge in _NUDGES:
        r = rho * (1.0 + nudge)
        tried.append(r)
        try:
            return (r, *_contour_moments(f, center, r))
        except (_NearZeroContour, NonIntegerWinding):
            continue
    raise ContourThroughZero(
        f"no clean contour around {center!r}, tried radii {tried!r}"
    )


# children cover the parent disk: quadrant centers at rho/2 (1 +- i) etc.,
# radius rho/sqrt(2); the hair of margin keeps boundary points strictly inside
_CHILD_OFFSETS = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / 2.0
_CHILD_FACTOR = (1.0 / math.sqrt(2.0)) * 1.000001
_CELL_FLOOR = 1e-8
_SPREAD_FLOOR = 1e-8
_MAX_DEPTH = 60
# acceptance thresholds of the moment reading, see _hankel_zeros
_HANKEL_RCOND = 1e-8
_NEWTON_TOL = 1e-8
_POWER_SUM_FLOOR = 1e-10


def _spread_floor(err: float) -> float:
    """The moment noise floor of a cell: zeros closer than twice it, or a
    centroid spread below it, are not told apart."""
    return max(_SPREAD_FLOOR, 3.0 * math.sqrt(err))


def _hankel_zeros(f, center, radius, sums, err):
    """The k simple zeros of a cell read off its scaled power sums, or None.

    sums[p] = s_p = sum_i ((z_i - center)/radius)^p for p = 0..2k.  The
    scaled zeros are the eigenvalues of the Hankel pencil (H1, H0) with
    H0 = [s_{i+j}] and H1 = [s_{i+j+1}] (Delves and Lyness 1967; Kravanja and
    Van Barel 2000), s_1 / s_0 for k = 1; two Newton steps on h, by direct
    kernel summation, finish them.  None (the caller quadrisects) when
      * H0 is singular: s_min <= 1e-8 s_max, a multiple zero or two
        near-coincident ones;
      * a Newton step would be longer than the radius, h' = 0 included;
      * a zero lies outside the cell, two lie within twice the cell's
        _spread_floor(err) (the spread test would merge them), or the last
        Newton step exceeds 1e-8 of the radius;
      * sum_i z_i^(2k) misses s_2k, which the pencil does not use, by more
        than k * max(err / radius, 1e-10).
    """
    k = (len(sums) - 1) // 2
    s = np.array(sums)
    idx = np.add.outer(np.arange(k), np.arange(k))
    H0, H1 = s[idx], s[idx + 1]
    sv = np.linalg.svd(H0, compute_uv=False)
    if not sv[-1] > _HANKEL_RCOND * sv[0]:
        return None
    z = center + radius * np.linalg.eigvals(np.linalg.solve(H0, H1))
    for _ in range(2):
        h, hp = _h_and_deriv_continuation(f, z)
        # compared before dividing, so h' = 0 is refused, not divided by
        if not np.all(np.abs(h) < np.abs(hp) * radius):
            return None
        step = h / hp
        z = z - step
    zt = (z - center) / radius
    gaps = np.abs(z[:, None] - z[None, :])[np.triu_indices(k, 1)]
    tol = max(err / radius, _POWER_SUM_FLOOR) * k
    if (
        np.all(np.abs(zt) < 1.0)
        and np.all(gaps > 2.0 * _spread_floor(err))
        and np.all(np.abs(step) <= _NEWTON_TOL * radius)
        and abs(complex(np.sum(zt ** (2 * k))) - sums[2 * k]) <= tol
    ):
        return [complex(zi) for zi in z]
    return None


def _isolate(f, center, rho, depth, out):
    """Append the zeros in |w - center| < rho to out; return (nudged radius, count)."""
    radius, k, M1, M2, err, zeros = _contour_with_nudges(f, center, rho)
    if k < 0:
        # the integrand is pole-free, so a settled negative count means the
        # quadrature itself went wrong
        cell = "top-level contour" if depth == 0 else f"cell at {center!r}"
        raise NonIntegerWinding(f"{cell} winding {k} is negative")
    if k == 0:
        return radius, k
    if zeros is not None:
        out.extend((z, 1) for z in zeros)
        return radius, k
    centroid = M1 / k
    spread = math.sqrt(abs(M2 / k - centroid * centroid))
    sane = abs(centroid - center) <= radius * 1.05
    if (spread <= _spread_floor(err) and sane) or radius <= _CELL_FLOOR:
        out.append((complex(centroid), k))
        return radius, k
    if depth >= _MAX_DEPTH:
        raise MaxDepthExceeded(
            f"cell at {center!r} radius {radius!r} still mixed at depth {depth}"
        )
    for off in _CHILD_OFFSETS:
        child = center + radius * complex(off)
        _isolate(f, child, radius * _CHILD_FACTOR, depth + 1, out)
    return radius, k


def zeros_via_argument_principle(f: CauchyFunction, radius: float = CONTOUR_CAP) -> ZeroSet:
    """Count and isolate zeros of h in |w| < radius by winding numbers.

    The top-level contour certifies the total count and is then a cell like
    any other.  A cell holding any number of zeros is read off its own
    contour: the eigenvalues of the Hankel pencil of its scaled power sums,
    polished by two Newton steps, are reported as simple zeros when they pass
    the checks of _hankel_zeros.  The cell is read only where its contour
    ends, in _contour_moments: one doubling after its winding settles when
    its moments have converged there to 1e-10 of its radius and the reading
    is accepted, and otherwise two doublings after the settle.  A refused
    last reading (a multiple or near-coincident zero, say) falls to the
    spread test: a cell whose zero-centroid spread is below the moment noise
    floor (or whose radius hits 1e-8) reports the centroid with its count as
    multiplicity.  Only a cell that both refuse is quadrisected with
    covering disks, at most 60 levels deep.  Covering disks overlap, so
    duplicate reports within 1e-7 are merged; the surviving multiplicities
    must add up to the certified total.  The route evaluates h by kernel
    summation only and solves no eigenproblem but its own k x k pencils; it
    never touches the numerator or L.
    Search is capped below the boundary (CONTOUR_CAP = 0.999): the contour route
    degrades near the circle, so zeros on the rim are left to the other two
    routes.  The nudge ladder may move the top circle by up to 4e-4
    (relative); the radius it certified is returned as ZeroSet.radius, and a
    comparison with another route cuts that route there.  Neither is a
    reference for this one; the numerator roots in particular lose accuracy
    above about 24 atoms.
    """
    if not 0.0 < radius <= CONTOUR_CAP:
        raise ValueError(f"radius must lie in (0, {CONTOUR_CAP}]")
    raw: list = []
    # an h or h' that overflows raises NumericalError where it is read, not a
    # RuntimeWarning at each operation it passes through
    with np.errstate(all="ignore"):
        cap, k_top = _isolate(f, 0.0, radius, 0, raw)
    # dedupe overlap duplicates; the same zero keeps its full multiplicity in
    # every covering cell, so groups take the max, not the sum
    groups: list[list] = []
    for z, m in raw:
        for grp in groups:
            if abs(z - grp[0][0]) <= PAIRING_TOL:
                grp.append((z, m))
                break
        else:
            groups.append([(z, m)])
    zeros = []
    total = 0
    for grp in groups:
        z = sum(g[0] for g in grp) / len(grp)
        m = max(g[1] for g in grp)
        if abs(z) < cap:
            zeros.append((z, m))
            total += m
    if total != k_top:
        raise NumericalError(
            f"isolated multiplicities sum to {total}, top contour counted {k_top}"
        )
    return ZeroSet(zeros=tuple(zeros), method=METHOD_ARG, radius=cap)
