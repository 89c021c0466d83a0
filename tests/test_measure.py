import json
import math
import sys

import numpy as np
import pytest

from blaschke_verify.errors import NonFiniteValue, PointNotOnCircle
from blaschke_verify.measure import (
    AtomicMeasure,
    dirac,
    inverse_shift,
    measure_from_jsonable,
    measure_to_jsonable,
    reflect_measure,
    shift_measure,
    total_variation,
)
from blaschke_verify.errors import InputError

from conftest import random_measure_simple


def test_unit_point_renormalizes_within_band():
    p = dirac(complex(1.0 + 5e-10, 0.0)).points[0]
    assert abs(p) == 1.0
    assert abs(p - 1.0) < 1e-9


def test_unit_point_rejects_off_circle():
    with pytest.raises(PointNotOnCircle, match=r"atoms\[0\]\.point"):
        dirac(complex(1.0 + 2e-9, 0.0))
    with pytest.raises(PointNotOnCircle, match=r"atoms\[1\]\.point"):
        AtomicMeasure([1.0, 0.5 + 0.5j], [1.0, 1.0])


@pytest.mark.parametrize(
    "build",
    [
        lambda: dirac(complex(math.nan, 0.0)),
        lambda: AtomicMeasure([1.0], [complex(math.inf, 0.0)]),
        lambda: AtomicMeasure(lebesgue=complex(0.0, math.nan)),
    ],
)
def test_non_finite_values_rejected(build):
    with pytest.raises(NonFiniteValue):
        build()


def test_unit_point_conj():
    mu = dirac(np.exp(0.7j))
    mu = AtomicMeasure(np.conj(mu.points), np.conj(mu.weights), np.conj(mu.lebesgue))
    assert mu.points[0] == pytest.approx(np.exp(-0.7j))


def test_atoms_merge_and_cancel():
    z = np.exp(0.3j)
    mu = AtomicMeasure([z, z * (1 + 1e-13), -1.0, -1.0], [2.0, 1.0, 1.5, -1.5])
    # near-duplicates merged, exact cancellation dropped
    assert mu.natoms == 1
    assert mu.weights[0] == pytest.approx(3.0)


def test_atoms_sorted_canonically():
    mu = AtomicMeasure([1j, -1.0, 1.0], [1.0, 2.0, 3.0])
    res = [p for p in mu.points]
    assert res == sorted(res, key=lambda w: (w.real, w.imag))


def test_mass_and_total_variation():
    mu = AtomicMeasure([1.0, -1.0], [3 - 4j, 1j], lebesgue=-2.0 + 0j)
    assert mu.mass() == pytest.approx((3 - 4j) + 1j + (-2.0))
    assert total_variation(mu) == pytest.approx(5.0 + 1.0 + 2.0)


def test_zero_measure():
    zero = AtomicMeasure()
    assert zero.natoms == 0
    assert zero.mass() == 0
    assert total_variation(zero) == 0.0


def test_dirac():
    mu = dirac(-1.0, 2.5)
    assert mu.natoms == 1
    assert mu.points[0] == -1.0
    assert mu.weights[0] == 2.5
    assert not (mu.points.flags.writeable or mu.weights.flags.writeable)


def test_shift_measure_multiplies_by_conjugate_point():
    rng = np.random.default_rng(101)
    for _ in range(20):
        mu = random_measure_simple(rng, int(rng.integers(1, 6)))
        sig = shift_measure(mu)
        assert sig.lebesgue == 0
        for p, w in zip(mu.points, mu.weights):
            j = np.argmin(np.abs(sig.points - p))
            assert sig.points[j] == pytest.approx(p)
            assert sig.weights[j] == pytest.approx(w * np.conj(p))


def test_inverse_shift_roundtrip():
    rng = np.random.default_rng(102)
    for _ in range(30):
        mu = random_measure_simple(rng, int(rng.integers(1, 7)))
        sig = shift_measure(mu)
        back = inverse_shift(sig, h0=mu.mass())
        assert back.natoms == mu.natoms
        assert np.allclose(back.points, mu.points)
        assert np.allclose(back.weights, mu.weights)
        assert back.lebesgue == pytest.approx(mu.lebesgue, abs=1e-12)


def test_inverse_shift_annihilates_lebesgue_part():
    # the circle's first moment vanishes, so a lebesgue component of the
    # shifted measure carries no information and must not leak back
    sig = AtomicMeasure([1j], [2.0], lebesgue=7.0 + 0j)
    back = inverse_shift(sig, h0=1.0)
    assert back.natoms == 1
    # atom weight is the sigma weight times the point: 2 * i
    assert back.weights[0] == pytest.approx(2.0 * 1j)
    assert back.lebesgue == pytest.approx(1.0 - 2.0 * 1j)


def test_reflect_measure_is_involution():
    rng = np.random.default_rng(103)
    mu = random_measure_simple(rng, 5)
    assert reflect_measure(reflect_measure(mu)) == mu


def test_json_roundtrip():
    rng = np.random.default_rng(104)
    for _ in range(10):
        mu = random_measure_simple(rng, int(rng.integers(1, 5)))
        back = measure_from_jsonable(measure_to_jsonable(mu))
        assert back == mu


def test_json_angle_form():
    obj = {
        "atoms": [{"point": {"angle_deg": 180.0}, "weight": {"re": 1.0, "im": 0.0}}],
        "lebesgue": {"re": 0.0, "im": 0.0},
    }
    mu = measure_from_jsonable(obj)
    assert mu.points[0] == pytest.approx(-1.0)


@pytest.mark.parametrize(
    "obj",
    [
        {},
        {"atoms": "nope"},
        {"atoms": [{"weight": {"re": 1.0, "im": 0.0}}]},
        {"atoms": [{"point": {"re": 1.0, "im": 0.0}}]},
        {"atoms": [{"point": {"re": "x", "im": 0.0}, "weight": {"re": 1, "im": 0}}]},
        {"atoms": [{"point": {"angle_deg": math.inf}, "weight": {"re": 1, "im": 0}}]},
        {"atoms": [{"point": {"re": True, "im": 0.0}, "weight": {"re": 1, "im": 0}}]},
    ],
)
def test_json_malformed(obj):
    with pytest.raises(InputError):
        measure_from_jsonable(obj)


def test_json_rejects_off_circle_point():
    obj = {
        "atoms": [{"point": {"re": 0.5, "im": 0.0}, "weight": {"re": 1.0, "im": 0.0}}],
        "lebesgue": {"re": 0.0, "im": 0.0},
    }
    with pytest.raises(PointNotOnCircle):
        measure_from_jsonable(obj)


# the canonical atoms of tests/data/near_duplicate_atoms.json as float.hex of
# (Re, Im) of point and weight: the pair 4e-13 apart merges into the first,
# the chain of three within 1.5e-12 into its middle atom (listed first), the
# exact cancellation is dropped, -0.0+1j reads +0.0+1j and 1-0.0j keeps -0.0
NEAR_DUPLICATE_ATOMS = [
    (("-0x1.6a09e667f3bcep-1", "-0x1.6a09e667f3bccp-1"), ("0x0.0p+0", "-0x1.0000000000000p-3")),
    (("-0x1.aa22657537205p-2", "0x1.d18f6ead1b446p-1"), ("0x1.0000000000000p-2", "0x1.8000000000000p-3")),
    (("0x0.0p+0", "0x1.0000000000000p+0"), ("0x1.0000000000000p-3", "-0x1.0000000000000p-4")),
    (("0x1.d7954e7dba2f8p-1", "0x1.8ec3ae92b676bp-2"), ("0x1.8000000000000p-2", "-0x1.0000000000000p-3")),
    (("0x1.0000000000000p+0", "-0x0.0p+0"), ("0x1.0000000000000p-2", "0x1.0000000000000p-3")),
]


def test_near_duplicate_atoms_canonical_bits(data_dir):
    with open(data_dir / "near_duplicate_atoms.json") as fh:
        mu = measure_from_jsonable(json.load(fh))
    got = [
        ((p.real.hex(), p.imag.hex()), (w.real.hex(), w.imag.hex()))
        for p, w in zip(mu.points.tolist(), mu.weights.tolist())
    ]
    assert got == NEAR_DUPLICATE_ATOMS
    assert mu.lebesgue == 0 and mu.mass() == 1


def test_separated_atoms_skip_the_merge_loop():
    # the greedy loop is the one place that takes abs of a point difference
    rng = np.random.default_rng(1024)
    pts = np.exp(2j * np.pi * rng.random(1024))
    calls = []

    def profile(frame, event, arg):
        if event == "c_call" and arg is abs:
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        mu = AtomicMeasure(pts, np.ones(1024))
    finally:
        sys.setprofile(None)
    assert mu.natoms == 1024 and calls == []
