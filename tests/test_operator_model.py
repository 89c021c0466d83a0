import ast
import pathlib
import warnings

import numpy as np
import pytest

import blaschke_verify

from blaschke_verify.errors import InputError, NumericalError, SingularResolvent
from blaschke_verify.bounds import check_theorem2
from blaschke_verify.measure import AtomicMeasure, dirac, inverse_shift, shift_measure
from blaschke_verify.operator_model import (
    ContractionSystem,
    build_L,
    build_system_from_measure,
    eigenvalues_outside_disk,
    eval_h_resolvent,
    perturbation_determinant,
    rank_one_factors,
    system_from_jsonable,
    system_to_jsonable,
)
from blaschke_verify.transform import CauchyFunction, eval_h, eval_K, taylor_moment
from blaschke_verify.zeros import METHOD_L, ZeroSet, zeros_via_L

from conftest import random_measure_simple


def rand_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def test_rank_one_factors():
    c = np.array([-2.0 + 0j, 0.0, 3.0 - 4.0j, 1e-300j])
    phi, psi = rank_one_factors(c)
    assert phi.dtype == psi.dtype == complex
    assert phi[1] == 0 and psi[1] == 0  # a zero weight gives zero factors
    assert np.allclose(phi * np.conj(psi), c, rtol=1e-15, atol=0)
    assert np.array_equal(phi, np.sqrt(np.abs(c)))
    assert np.allclose(np.abs(psi), np.abs(phi), rtol=1e-15, atol=0)
    assert np.linalg.norm(phi) * np.linalg.norm(psi) == pytest.approx(np.sum(np.abs(c)))
    # the measure model takes its phi, psi from here, and needs lebesgue = 0
    mu = AtomicMeasure([1.0, 1j], [-2.0, 0.5j])
    s = build_system_from_measure(mu)
    want = rank_one_factors(mu.weights)
    assert np.array_equal(s.phi, want[0]) and np.array_equal(s.psi, want[1])
    with pytest.raises(InputError, match="needs a purely atomic measure"):
        build_system_from_measure(AtomicMeasure(mu.points, mu.weights, lebesgue=1.0 + 0j))


def test_rank_one_factors_of_subnormal_weights():
    # numpy's complex division overflows on a subnormal |c|; the factors must
    # still be finite, with phi conj(psi) = c and |psi| = |phi|
    c = np.array([5e-324, -5e-324j, 3e-310 + 4e-310j, 1e-300j])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        phi, psi = rank_one_factors(c)
    assert np.all(np.isfinite(phi)) and np.all(np.isfinite(psi))
    assert np.allclose(phi * np.conj(psi), c, rtol=1e-15, atol=0)
    assert np.allclose(np.abs(psi), np.abs(phi), rtol=1e-15, atol=0)
    # a normal weight's phase is c / |c| as before, to the bit
    assert psi[3] == np.conj(c[3] / abs(c[3])) * phi[3]


def random_system(rng, n):
    G = rand_complex(rng, (n, n))
    A = G * (0.95 * (1 - rng.random() * 0.5) / np.linalg.norm(G, 2))
    return ContractionSystem(A=A, phi=rand_complex(rng, (n,)), psi=rand_complex(rng, (n,)))


def test_contraction_system_validation():
    with pytest.raises(InputError, match=r"exceeds 1 \+ 1e-10"):
        ContractionSystem(
            A=np.array([[1.5 + 0j]]), phi=np.array([1.0 + 0j]), psi=np.array([1.0 + 0j])
        )
    with pytest.raises(InputError, match=r"but \|phi\|=1, \|psi\|=2"):
        ContractionSystem(
            A=np.eye(2, dtype=complex) * 0.5,
            phi=np.array([1.0 + 0j]),
            psi=np.array([1.0 + 0j, 0.0 + 0j]),
        )
    for name in ("phi", "psi"):
        for bad in (np.inf, np.nan):
            vecs = {"phi": np.array([1.0 + 0j]), "psi": np.array([1.0 + 0j])}
            vecs[name] = np.array([complex(bad)])
            with pytest.raises(InputError, match=f"^{name} entries must be finite"):
                ContractionSystem(A=np.array([[0.5 + 0j]]), **vecs)


def test_build_system_from_measure_structure():
    mu = AtomicMeasure([1j, -1.0], [-2.0, 1.0 + 1.0j])
    s = build_system_from_measure(mu)
    # A is the diagonal of conjugated atom locations, phi/psi split |c| and phase
    assert np.allclose(s.A, np.diag(np.conj(mu.points)))
    assert np.allclose(np.abs(s.phi) ** 2, np.abs(mu.weights))
    assert np.allclose(s.phi * np.conj(s.psi), mu.weights)
    # the empty measure is the n = 0 case: a 0 x 0 system with h = 1
    s = build_system_from_measure(AtomicMeasure())
    assert s.A.shape == (0, 0) and s.phi.shape == s.psi.shape == (0,)
    assert s.norm_product() == 0.0


@pytest.mark.parametrize("lebesgue", [0.0, 0.5 - 0.25j])
def test_the_empty_measure_takes_the_general_path(lebesgue):
    """With no atoms, K mu is the constant lebesgue, and the shifted h, the
    operator model and the zero bound see no zeros."""
    mu = AtomicMeasure(lebesgue=lebesgue)
    w = np.array([[0.0, 0.3 - 0.4j], [-0.9j, 0.5]])
    assert eval_K(mu, 0.2j) == lebesgue
    assert np.array_equal(eval_K(mu, w), np.full(w.shape, lebesgue, dtype=complex))
    direct, shifted = CauchyFunction(mu, mode="direct"), CauchyFunction(mu, mode="shifted")
    assert eval_h(direct, 0.2j) == lebesgue
    assert np.array_equal(eval_h(direct, w), np.full(w.shape, lebesgue, dtype=complex))
    assert eval_h(shifted, 0.2j) == 1.0 + 0.2j * lebesgue
    assert np.array_equal(eval_h(shifted, w), 1.0 + w * lebesgue)
    assert taylor_moment(mu, 0) == lebesgue and taylor_moment(mu, 3) == 0
    assert mu.mass() == lebesgue
    assert inverse_shift(mu, 0.7 + 0.1j) == AtomicMeasure(lebesgue=0.7 + 0.1j)
    if lebesgue:
        with pytest.raises(InputError, match="needs an atomic measure"):
            check_theorem2(mu)
    else:
        assert check_theorem2(mu).to_jsonable() == {
            "name": "shifted-transform-zero-bound",
            "lhs": 0.0,
            "rhs": 0.0,
            "slack": 0.0,
            "tol": 1e-7,
            "pass": True,
            "details": {"zeros": [], "rhs_kind": "total variation surrogate"},
        }
    # the atomic part, as verify-measure models it in direct mode
    s = build_system_from_measure(shift_measure(mu))
    assert zeros_via_L(s) == ZeroSet(zeros=(), method=METHOD_L)


def test_resolvent_h_equals_transform_h():
    rng = np.random.default_rng(20)
    for _ in range(20):
        mu = random_measure_simple(rng, int(rng.integers(1, 7)))
        mu = AtomicMeasure(mu.points, mu.weights)  # transform side carries no lebesgue
        s = build_system_from_measure(mu)
        for _ in range(5):
            w = 0.9 * np.sqrt(rng.random()) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            a = eval_h_resolvent(s, w)
            b = eval_h(CauchyFunction(source=mu), w)
            assert abs(a - b) <= 1e-10 * max(1.0, abs(b))


def test_resolvent_h_neumann_coefficients():
    # h(w) = 1 + sum_k <A^k phi, psi> w^{k+1}; compare against the truncated sum
    rng = np.random.default_rng(21)
    s = random_system(rng, 5)
    w = 0.3 * np.exp(0.8j)
    acc = 1.0 + 0j
    v = s.phi.copy()
    for k in range(300):
        acc += np.vdot(s.psi, v) * w ** (k + 1)
        v = s.A @ v
    assert eval_h_resolvent(s, w) == pytest.approx(acc, abs=1e-12)


def test_eval_h_resolvent_domain():
    s = random_system(np.random.default_rng(22), 3)
    with pytest.raises(InputError, match=r"\|w\| = .* >= 1"):
        eval_h_resolvent(s, 1.0 + 0j)


def test_sharp_example_perturbation():
    # sigma = delta_{-1}: A = [-1], phi = psi = [1], L = [-2]
    s = build_system_from_measure(dirac(-1.0, 1.0))
    L = build_L(s)
    assert np.allclose(L, np.array([[-2.0]]))
    outside = eigenvalues_outside_disk(L)
    assert len(outside) == 1
    assert outside[0].center == pytest.approx(-2.0)
    assert outside[0].multiplicity == 1


def test_eigenvalues_outside_disk_excludes_interior():
    s = build_system_from_measure(dirac(-1.0, 1e-9))
    # L = [-(1 + 1e-9)] lies outside the disk but inside the 1e-8 boundary
    # band, so it is dropped
    assert eigenvalues_outside_disk(build_L(s)) == []


def test_perturbation_determinant_three_ways():
    rng = np.random.default_rng(24)
    for _ in range(30):
        n = int(rng.integers(1, 9))
        s = random_system(rng, n)
        lam = 2.0 * np.exp(1j * rng.uniform(0, 2 * np.pi))
        d_rank1 = perturbation_determinant(s, lam, method="rank1")
        d_lu = perturbation_determinant(s, lam, method="lu")
        h = eval_h_resolvent(s, 1.0 / lam)
        scale = max(1.0, abs(d_rank1))
        assert abs(d_rank1 - d_lu) / scale < 1e-11
        assert abs(d_rank1 - h) / scale < 1e-11


def test_perturbation_determinant_rejects_disk_points():
    s = random_system(np.random.default_rng(25), 3)
    for lam in (0.5 + 0j, 1.0 + 0j, np.exp(2j)):
        with pytest.raises(InputError, match=r"\|lam\| = .* must exceed 1"):
            perturbation_determinant(s, lam)


# an admissible contraction (||A|| within 1 + 1e-10) and its own eigenvalue,
# outside the closed disk: lam - A and I - A/lam are exactly singular
_SINGULAR_LAM = 1 + 5e-11


@pytest.mark.parametrize(
    "call",
    [
        lambda s: perturbation_determinant(s, _SINGULAR_LAM, "rank1"),
        lambda s: perturbation_determinant(s, _SINGULAR_LAM, "lu"),
        lambda s: eval_h_resolvent(s, 1 / _SINGULAR_LAM),
    ],
    ids=["rank1", "lu", "resolvent"],
)
def test_singular_resolvent_raises_without_warning(call):
    s = ContractionSystem(A=[[_SINGULAR_LAM]], phi=[1.0], psi=[1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularResolvent):
            call(s)


# ||phi|| ||psi|| = 1e300 and a resolvent of norm 1e9: the solves are finite,
# the values they give are not
_NEAR_LAM = 1 + 1e-9


@pytest.mark.parametrize(
    "call",
    [
        lambda s: perturbation_determinant(s, _NEAR_LAM, "rank1"),
        lambda s: perturbation_determinant(s, _NEAR_LAM, "lu"),
        lambda s: eval_h_resolvent(s, 1 / _NEAR_LAM),
    ],
    ids=["rank1", "lu", "resolvent"],
)
def test_overflowing_value_raises_without_warning(call):
    s = ContractionSystem(A=[[1.0]], phi=[1e150], psi=[1e150])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="is not finite"):
            call(s)


# module: the only files of the package that may import it.  The resolvents
# solve with numpy, so the Schur form is scipy's one call site; no check keeps
# per-thread state, so nothing imports threading
_IMPORTERS = {"scipy": {"linalg.py"}, "threading": set()}


def test_only_listed_files_import_scipy_and_threading():
    importers = {module: set() for module in _IMPORTERS}
    for path in sorted(pathlib.Path(blaschke_verify.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            for top in {n.split(".")[0] for n in names} & importers.keys():
                importers[top].add(path.name)
    assert importers == _IMPORTERS


def test_determinant_is_charpoly_ratio():
    # det(I + phi psi* (lam - A)^{-1}) = det(lam - L) / det(lam - A)
    rng = np.random.default_rng(26)
    s = random_system(rng, 4)
    L = build_L(s)
    lam = 2.5 * np.exp(0.4j)
    want = np.linalg.det(lam * np.eye(4) - L) / np.linalg.det(lam * np.eye(4) - s.A)
    got = perturbation_determinant(s, lam)
    assert got == pytest.approx(want, rel=1e-10)


def test_system_json_roundtrip():
    rng = np.random.default_rng(27)
    s = random_system(rng, 3)
    back = system_from_jsonable(system_to_jsonable(s))
    assert np.allclose(back.A, s.A)
    assert np.allclose(back.phi, s.phi)
    assert np.allclose(back.psi, s.psi)
