import numpy as np
import pytest
from scipy.spatial import ConvexHull

from blaschke_verify.errors import InputError
from blaschke_verify.linalg import (
    NR_ANGLES,
    NR_BRACKET_TOL,
    NumericalRangeSupport,
    cluster_points,
    eigenvalues_clustered,
    operator_norm,
    operator_norm_over,
    polynomial_roots,
    psd_sqrt,
    schur_decompose,
    singular_values,
    trace_norm,
)
from blaschke_verify.random_instances import random_lowrank_pair, spawn_rng


def rand_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def leverrier_charpoly(A):
    """Faddeev-LeVerrier characteristic polynomial, descending coefficients.

    Pure-python recurrence, independent of any eigensolver; only usable for
    small matrices but exact enough to serve as the eigenvalue oracle.
    """
    n = A.shape[0]
    coeffs = [1.0 + 0j]
    M = np.zeros_like(A)
    c = 1.0 + 0j
    for k in range(1, n + 1):
        M = A @ M + c * np.eye(n)
        c = -np.trace(A @ M) / k
        coeffs.append(c)
    return np.array(coeffs)


def test_schur_factorization_properties():
    rng = np.random.default_rng(10)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        A = rand_complex(rng, (n, n))
        f = schur_decompose(A)
        assert np.allclose(f.Q @ f.T @ f.Q.conj().T, A, atol=1e-10 * max(1, np.linalg.norm(A)))
        assert np.allclose(f.Q.conj().T @ f.Q, np.eye(n), atol=1e-12)
        assert np.allclose(np.tril(f.T, -1), 0, atol=1e-12)


def test_schur_eigenvalues_against_leverrier():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        A = rand_complex(rng, (n, n))
        eigs = np.sort_complex(schur_decompose(A).eigenvalues)
        roots = np.sort_complex(np.roots(leverrier_charpoly(A)))
        scale = max(1.0, float(np.max(np.abs(eigs))))
        assert np.max(np.abs(eigs - roots)) / scale < 1e-8


def test_cluster_points_groups_and_counts():
    pts = np.array([1.0, 1.0 + 1e-8, 5.0, 5.0 - 1e-8j, 5.0 + 1e-8j, -2.0j])
    cl = cluster_points(pts, radius=1e-6)
    mults = sorted(c.multiplicity for c in cl)
    assert mults == [1, 2, 3]
    centers = sorted((c.center for c in cl), key=lambda z: (z.real, z.imag))
    assert centers[0] == pytest.approx(-2.0j)


def test_cluster_points_empty():
    assert cluster_points(np.array([]), radius=1e-6) == []


def test_jordan_block_cluster():
    """A defective eigenvalue must come back as one cluster of full
    multiplicity; a unitary conjugation makes the eps**(1/m) scatter real."""
    lam = 0.3 - 0.7j
    J = np.diag(np.full(3, lam)) + np.diag(np.ones(2), 1)
    # triangular input: the Schur diagonal is exact, spread is roundoff-level
    cl = eigenvalues_clustered(J, tol=1e-4)
    assert len(cl) == 1
    assert cl[0].multiplicity == 3
    assert abs(cl[0].center - lam) < 1e-4
    assert cl[0].spread < 1e-8

    rng = np.random.default_rng(12)
    G = rand_complex(rng, (3, 3))
    Q, _ = np.linalg.qr(G)
    cl2 = eigenvalues_clustered(Q @ J @ Q.conj().T, tol=1e-4)
    assert len(cl2) == 1 and cl2[0].multiplicity == 3
    assert cl2[0].spread < 1e-4


def test_running_mean_chain_spread_is_harmonic():
    """Each join moves a cluster's running-mean center by at most radius/k,
    so k members spread at most radius * H_k.  A chain that places every
    point just inside the radius from the current center comes within one
    radius of it; spread beyond 10 radii would need more than 12,000 members.
    """
    radius = 1e-6
    members = [0.0 + 0.0j]
    for _ in range(199):
        center = sum(members) / len(members)
        members.append(center + radius * (1.0 - 1e-6))
    clusters = cluster_points(np.array(members), radius=radius)
    assert len(clusters) == 1 and clusters[0].multiplicity == 200
    harmonic = sum(1.0 / k for k in range(1, 201))
    assert radius * (harmonic - 1.01) < clusters[0].spread <= radius * harmonic
    assert sum(1.0 / k for k in range(1, 12_001)) < 10.0


def test_singular_values_frobenius_identity():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        A = rand_complex(rng, (n, n))
        sv = singular_values(A)
        assert np.all(np.diff(sv) <= 1e-12)
        assert np.sum(sv**2) == pytest.approx(np.linalg.norm(A, "fro") ** 2, rel=1e-12)


def test_trace_and_operator_norm():
    A = np.diag([3.0, -4.0]).astype(complex)
    assert trace_norm(A) == pytest.approx(7.0)
    assert operator_norm(A) == pytest.approx(4.0)


def test_operator_norm_over_gates_like_the_svd(monkeypatch):
    rng = np.random.default_rng(17)
    for _ in range(300):
        n = int(rng.integers(1, 9))
        A = rand_complex(rng, (n, n))
        if rng.uniform() < 0.3:  # rank one: ||A||_2 = ||A||_F up to rounding
            A = np.outer(rand_complex(rng, n), rand_complex(rng, n).conj())
        two, fro = operator_norm(A), float(np.linalg.norm(A))
        for bound in (0.0, 0.5 * two, two * (1 - 1e-15), two, (two + fro) / 2, fro,
                      fro * (1 + 1e-15)):
            got = operator_norm_over(A, bound)
            assert (got > bound) == (two > bound)
            if got > bound:
                assert got == two
    # a Frobenius norm below the bound settles the gate without an SVD
    A = rand_complex(rng, (6, 6))
    bound = 2 * np.linalg.norm(A)
    monkeypatch.setattr("blaschke_verify.linalg.singular_values", None)
    assert operator_norm_over(A, bound) <= bound


def test_numerical_range_takes_no_np_roll(monkeypatch):
    # this pair has an eigenvalue of L that only refining the polygon places,
    # so the grid, the merge of repeats and the refinement all run
    A, L = random_lowrank_pair(spawn_rng(4, 175), max_dim=10)
    want = NumericalRangeSupport(A)
    lams = [cl.center for cl in eigenvalues_clustered(L)]
    brackets = [want.bracket(lam) for lam in lams]

    def refuse(*args, **kwargs):
        raise AssertionError("np.roll called")

    monkeypatch.setattr(np, "roll", refuse)
    s = NumericalRangeSupport(A)
    assert [s.bracket(lam) for lam in lams] == brackets
    assert np.array_equal(s.points, want.points)


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(14)
    for _ in range(10):
        n = int(rng.integers(1, 7))
        G = rand_complex(rng, (n, n))
        H = G @ G.conj().T
        S = psd_sqrt(H)
        assert np.allclose(S @ S, H, atol=1e-9 * max(1, np.linalg.norm(H)))
        assert np.allclose(S, S.conj().T)  # exactly hermitian by construction


def test_psd_sqrt_rejects():
    with pytest.raises(InputError, match=r"\|\|H - H\*\|\| = .* exceeds"):
        psd_sqrt(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    with pytest.raises(InputError, match=r"eigenvalue .* below -"):
        psd_sqrt(np.array([[-1.0]], dtype=complex))
    with pytest.raises(InputError, match="matrix entries must be finite"):
        psd_sqrt(np.array([[np.inf]], dtype=complex))


def test_numerical_range_of_normal_matrix():
    # for a normal matrix the numerical range is the convex hull of the
    # spectrum; distance from an outside point has a closed form for 2x2 real
    A = np.diag([1.0 + 0j, -1.0 + 0j])
    s = NumericalRangeSupport(A)
    assert s.distance(2.0 + 0j) == pytest.approx(1.0, abs=1e-9)
    assert s.distance(0.0 + 1.0j) == pytest.approx(1.0, abs=1e-9)
    assert s.distance(0.3 + 0j) == pytest.approx(0.0, abs=1e-12)
    assert s.distance(0.0 + 2.0j) == pytest.approx(2.0, abs=1e-9)


def test_numerical_range_nilpotent():
    # numerical range of [[0,1],[0,0]] is the closed disk of radius 1/2
    A = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    s = NumericalRangeSupport(A)
    rng = np.random.default_rng(15)
    for _ in range(20):
        z = 2.0 * np.exp(1j * rng.uniform(0, 2 * np.pi))
        assert s.distance(z) == pytest.approx(1.5, abs=1e-8)


def test_antipodal_grid_matches_direct_eigensolves():
    # support and boundary point at theta + pi come from the bottom eigenpair
    # at theta, and each phase is exactly the negated one its Hermitian part
    # was solved with.  They match a top eigenpair solved at theta + pi, the
    # point wherever that eigenvalue is simple (its vector is then defined).
    half = NR_ANGLES // 2
    rng = np.random.default_rng(23)
    fixtures = [rand_complex(rng, (n, n)) for n in range(1, 11)] + [
        np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
        np.diag([1.0 + 0j, -1.0 + 0j]),
    ]
    for A in fixtures:
        s = NumericalRangeSupport(A)
        assert np.array_equal(s._phases[half:], -s._phases[:half])
        assert np.array_equal(s.thetas[half:], s.thetas[:half] + np.pi)
        scale = max(1.0, float(np.max(np.abs(s.support))))
        for k in range(half, NR_ANGLES):
            ph = np.exp(-1j * s.thetas[k])
            w, V = np.linalg.eigh((ph * A + np.conj(ph) * A.conj().T) / 2)
            assert abs(s.support[k] - w[-1]) <= 1e-14 * scale
            if w.size == 1 or w[-1] - w[-2] > 1e-2 * scale:
                v = V[:, -1]
                assert abs(s.points[k] - v.conj() @ A @ v) <= 1e-14 * scale


def test_grid_is_one_eigensolve_of_half_the_angles(monkeypatch):
    shapes = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    NumericalRangeSupport(rand_complex(np.random.default_rng(24), (6, 6)))
    assert shapes == [(NR_ANGLES // 2, 6, 6)]


def _segment_distance(z, a, b):
    e = b - a
    t = min(1.0, max(0.0, ((z - a) * np.conj(e)).real / abs(e) ** 2))
    return abs(z - a - t * e)


@pytest.mark.parametrize("offset", [0.5, 1e-3])
def test_numerical_range_distance_matches_hull_of_normal_matrix(offset):
    # A = U diag(mu) U* is normal, so W(A) is the convex hull of mu, and the
    # distance of an outside point is its distance to the nearest hull edge.
    # Points off an edge's interior sit at a kink of the support gap f, where
    # the maximizing angle is the edge normal; points off a vertex do not.
    rng = np.random.default_rng(21)
    mu = 0.9 * np.exp(2j * np.pi * rng.random(7)) * np.sqrt(rng.random(7))
    U, _ = np.linalg.qr(rand_complex(rng, (7, 7)))
    s = NumericalRangeSupport(U @ np.diag(mu) @ U.conj().T)
    hull = mu[ConvexHull(np.column_stack([mu.real, mu.imag])).vertices]  # ccw
    m = hull.size
    normals = [-1j * (hull[(k + 1) % m] - hull[k]) / abs(hull[(k + 1) % m] - hull[k])
               for k in range(m)]
    points = []
    for k in range(m):
        # off the middle of edge k, and off vertex k between its edge normals
        points.append((hull[k] + hull[(k + 1) % m]) / 2 + offset * normals[k])
        bisector = normals[k - 1] + normals[k]
        points.append(hull[k] + offset * bisector / abs(bisector))
    for lam in points:
        want = min(_segment_distance(lam, hull[k], hull[(k + 1) % m]) for k in range(m))
        assert want == pytest.approx(offset, rel=1e-9)
        lo, hi = s.bracket(lam)
        assert s.distance(lam) == lo
        assert abs(lo - want) <= 1e-12
        assert 0.0 <= hi - lo <= NR_BRACKET_TOL * max(1.0, abs(lam))
    assert s.bracket(np.mean(mu)) == (0.0, 0.0)


@pytest.mark.parametrize("offset", [0.5, 1e-3])
def test_numerical_range_distance_matches_cone(offset, monkeypatch):
    # W(A) for A = [[0, 1], [0, 0]] (+) [c] is the hull of the disk |z| <= r,
    # r = 1/2, and the point c: a cone whose flat edges run from c to the
    # tangent points r e^{+-i phi}, cos(phi) = r/c.  No grid angle is the
    # edge normal, so only refined boundary points close a bracket there.
    # Off a flat edge f' jumps and the secant stalls; a step to the normal
    # angle of the chord between the bracket ends closes each such bracket
    # within 30 single-angle eigensolves.
    calls = []
    support_at = NumericalRangeSupport._support_at

    def counting(self, theta):
        calls.append(theta)
        return support_at(self, theta)

    monkeypatch.setattr(NumericalRangeSupport, "_support_at", counting)
    c, r = 1.5, 0.5
    A = np.zeros((3, 3), dtype=complex)
    A[0, 1], A[2, 2] = 1.0, c
    s = NumericalRangeSupport(A)
    phi = np.arccos(r / c)
    points = [c + offset, (r + offset) * np.exp(2.5j)]
    for sign in (1, -1):
        tangent = r * np.exp(sign * 1j * phi)
        points += [w * c + (1 - w) * tangent + offset * np.exp(sign * 1j * phi)
                   for w in (0.1, 0.5, 0.9)]
    for k, lam in enumerate(points):
        calls.clear()
        lo, hi = s.bracket(lam)
        assert abs(lo - offset) <= 1e-12
        assert 0.0 <= hi - lo <= NR_BRACKET_TOL * max(1.0, abs(lam))
        if k >= 2:  # off a flat edge
            assert 0 < len(calls) <= 30
    assert s.bracket(0.5 * c) == (0.0, 0.0)


def _ambiguous_on_grid(support, lam):
    """lam is outside the polygon of the grid's boundary points, and no grid
    angle separates it from W(A)."""
    gap = (lam * np.exp(-1j * support.thetas)).real - support.support
    p = support.points
    e = np.roll(p, -1) - p
    cross = e.real * (lam - p).imag - e.imag * (lam - p).real
    return gap.max() <= 0 and cross.min() < 0


@pytest.mark.parametrize("seed, index, want", [
    # a 200000-angle grid gives 1.5577646e-3 as a lower bound
    (4, 175, 1.5577653e-3),
    (2, 209, 0.0),
    (6, 73, 0.0),
    (6, 159, 0.0),
    (7, 29, 0.0),
])
def test_ambiguous_grid_queries_are_settled(seed, index, want):
    # each pair has one eigenvalue of L that the 32-angle grid cannot place:
    # only refining the polygon next to it shows whether it is in W(A)
    A, L = random_lowrank_pair(spawn_rng(seed, index), max_dim=10)
    s = NumericalRangeSupport(A)
    lams = [cl.center for cl in eigenvalues_clustered(L)
            if _ambiguous_on_grid(s, cl.center)]
    assert len(lams) == 1
    lo, hi = s.bracket(lams[0])
    assert s.distance(lams[0]) == lo
    if want:
        assert lams[0] == 4.464392148092122 - 1.2509218958052728j
        assert lo == pytest.approx(want, abs=1e-9)
        assert hi - lo <= NR_BRACKET_TOL * max(1.0, abs(lams[0]))
    else:
        # inside the refined polygon: a certified 0
        assert (lo, hi) == (0.0, 0.0)


def _nr_distance_mp(A, lam, dps=40):
    """max_theta f(theta) in dps-digit arithmetic on the double entries of A:
    a secant on the Hellmann-Feynman slope f'(theta) = Im((lam - p) e^{-i theta}),
    started at the argmax of f on a 4096-angle double grid."""
    import mpmath

    n = A.shape[0]
    thetas = 2.0 * np.pi * np.arange(4096) / 4096
    ph = np.exp(-1j * thetas)[:, None, None]
    s = np.linalg.eigvalsh((ph * A + np.conj(ph) * A.conj().T) / 2)[:, -1]
    with mpmath.workdps(dps):
        Am = mpmath.matrix([[mpmath.mpc(complex(A[i, j])) for j in range(n)] for i in range(n)])
        lm = mpmath.mpc(lam)

        def f_and_slope(t):
            e = mpmath.expj(-t)
            E, Q = mpmath.eighe((e * Am + mpmath.conj(e) * Am.H) / 2)
            v = Q[:, n - 1]
            p = (v.H * Am * v)[0]
            return (lm * e).real - E[n - 1], ((lm - p) * e).imag

        t0 = mpmath.mpf(thetas[int(np.argmax((lam * ph[:, 0, 0]).real - s))])
        t1 = t0 + mpmath.mpf("1e-4")
        d0, (f1, d1) = f_and_slope(t0)[1], f_and_slope(t1)
        while abs(t1 - t0) > mpmath.mpf(10) ** (5 - dps) and d1 != d0:
            t0, d0, t1 = t1, d1, t1 - d1 * (t1 - t0) / (d1 - d0)
            f1, d1 = f_and_slope(t1)
        return f1


def test_closed_bracket_takes_the_distance_to_rounding():
    # a bracket may close a whole 1e-13 * |lam| width below the distance, as
    # this one did at 2.0e-13 on a 128-angle grid with no last step; f at
    # the predicted maximiser after closing takes lo to rounding
    A, _ = random_lowrank_pair(spawn_rng(3, 97), max_dim=10)
    lam = 4.1113644326572265 - 0.4559569954895602j
    lo, hi = NumericalRangeSupport(A).bracket(lam)
    ref = _nr_distance_mp(A, lam)
    assert abs(lo - ref) <= 4 * np.finfo(float).eps * max(1.0, abs(lam))
    assert hi - lo <= NR_BRACKET_TOL * max(1.0, abs(lam))


@pytest.mark.parametrize("seed, index, origin_outside", [(4, 175, False), (1, 0, True)])
def test_large_numerical_radius_closes_at_its_floor(seed, index, origin_outside):
    # scaled by 1e3, the numerical radius r is far above 16, so each bracket
    # closes to NR_BRACKET_TOL * max(r/16, |lam|), and the scaled bracket is
    # 1e3 times the unscaled one up to the two widths
    A, L = random_lowrank_pair(spawn_rng(seed, index), max_dim=10)
    lams = [cl.center for cl in eigenvalues_clustered(L)] + [0j]
    s, big = NumericalRangeSupport(A), NumericalRangeSupport(1e3 * A)
    r = float(np.max(np.abs(big.support)))
    assert r > 16
    floor_sets = []
    for lam in lams:
        lo, hi = s.bracket(lam)
        blo, bhi = big.bracket(1e3 * lam)
        width = NR_BRACKET_TOL * max(r / 16, abs(1e3 * lam))
        assert 0.0 <= bhi - blo <= width
        both = width + 1e3 * NR_BRACKET_TOL * max(1.0, abs(lam))
        assert abs(blo - 1e3 * lo) <= both
        assert abs(bhi - 1e3 * hi) <= both
        floor_sets.append(blo > 0 and r / 16 > abs(1e3 * lam))
    # where the origin is outside W(A), r/16 sets the width of its bracket
    assert any(floor_sets) == origin_outside


def test_polynomial_roots_match_numpy():
    rng = np.random.default_rng(16)
    for _ in range(20):
        deg = int(rng.integers(1, 8))
        coeffs = rand_complex(rng, deg + 1)
        coeffs[-1] += 3.0  # keep leading coefficient well away from zero
        mine = np.sort_complex(polynomial_roots(coeffs))
        ref = np.sort_complex(np.roots(coeffs[::-1]))
        assert np.allclose(mine, ref, atol=1e-8)


def test_polynomial_roots_constant_and_empty():
    assert polynomial_roots(np.array([1.0 + 0j])).size == 0
    assert polynomial_roots(np.array([], dtype=complex)).size == 0
