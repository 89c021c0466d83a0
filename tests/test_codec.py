import math

import pytest

from blaschke_verify.codec import (
    line_atoms_from_jsonable,
    line_atoms_to_jsonable,
    matrix_from_json,
    vector_from_json,
)
from blaschke_verify.errors import DimensionMismatch, MalformedField, NonFiniteValue
from blaschke_verify.random_instances import random_real_line_atoms, spawn_rng


def vec(obj):
    return vector_from_json(obj, "v")


def mat(obj):
    return matrix_from_json(obj, "A")


def test_line_atoms_roundtrip():
    for index in range(10):
        atoms = random_real_line_atoms(spawn_rng(31, index))
        assert line_atoms_from_jsonable(line_atoms_to_jsonable(atoms)) == atoms
    # a missing weight reads as 0
    assert line_atoms_from_jsonable({"atoms": [{"s": 2}]}) == [(2.0, 0j)]


@pytest.mark.parametrize(
    "parse, obj, error",
    [
        (vec, [{"re": False}], MalformedField),
        (vec, [{"im": "1"}], MalformedField),
        (vec, {"re": 1.0}, MalformedField),
        (vec, [[1.0]], MalformedField),
        (vec, [{"im": math.nan}], NonFiniteValue),
        (vec, [{"re": 10**400}], NonFiniteValue),
        (mat, [], DimensionMismatch),
        (mat, [[{}], [{}]], DimensionMismatch),
        (mat, [[{}, {}], {}], MalformedField),
        (line_atoms_from_jsonable, [], MalformedField),
        (line_atoms_from_jsonable, {"atoms": [{"c": {}}]}, MalformedField),
        (line_atoms_from_jsonable, {"atoms": [{"s": math.inf}]}, NonFiniteValue),
    ],
)
def test_rejects_with_named_input_error(parse, obj, error):
    with pytest.raises(error):
        parse(obj)

