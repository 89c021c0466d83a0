import json
import pathlib

import numpy as np
import pytest

from blaschke_verify.errors import InputError
from blaschke_verify.measure import AtomicMeasure, measure_from_jsonable

DATA = pathlib.Path(__file__).parent / "data"


@pytest.fixture
def data_dir() -> pathlib.Path:
    return DATA


@pytest.fixture
def double_zero_measure() -> AtomicMeasure:
    """Measure whose shifted transform has a double zero at 0.4 + 0.3i.

    Weights are exact 3-decimal rationals solving sum(c) = 1,
    h(w0) = h'(w0) = 0; the remaining numerator root is -3/14 - i/14.
    """
    with open(DATA / "double_zero_measure.json") as fh:
        return measure_from_jsonable(json.load(fh))


@pytest.fixture
def real_line_fixture() -> dict:
    with open(DATA / "real_line_fixture.json") as fh:
        return json.load(fh)


def data_measures():
    """Every measure stored under tests/data, in file order."""
    for path in sorted(DATA.glob("*.json")):
        with open(path) as fh:
            obj = json.load(fh)
        for m in obj.get("measures", [obj]):
            try:
                yield measure_from_jsonable(m)
            except InputError:  # a system or real-line file
                pass


def random_measure_simple(rng, natoms):
    """Well-separated atoms, O(1) weights; enough for calculus identities."""
    angles = np.sort(rng.uniform(0, 2 * np.pi, size=natoms))
    while natoms > 1 and np.min(np.diff(np.concatenate([angles, [angles[0] + 2 * np.pi]]))) < 1e-3:
        angles = np.sort(rng.uniform(0, 2 * np.pi, size=natoms))
    pts = np.exp(1j * angles)
    wts = rng.normal(size=natoms) + 1j * rng.normal(size=natoms)
    leb = complex(rng.normal(), rng.normal())
    return AtomicMeasure(pts, wts, lebesgue=leb)
