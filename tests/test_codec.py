import math

import pytest

from blaschke_verify.codec import (
    line_atoms_from_jsonable,
    line_atoms_to_jsonable,
    matrix_from_json,
    vector_from_json,
)
from blaschke_verify.errors import InputError
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
    "parse, obj, fragment",
    [
        (vec, [{"re": False}], "must be a number"),
        (vec, [{"im": "1"}], "must be a number"),
        (vec, {"re": 1.0}, "must be a list"),
        (vec, [[1.0]], "must be an object with re/im fields"),
        (vec, [{"im": math.nan}], "is not finite"),
        (vec, [{"re": 10**400}], "is not finite"),
        (mat, [], "non-empty square matrix"),
        (mat, [[{}], [{}]], "non-empty square matrix"),
        (mat, [[{}, {}], {}], "must be a list"),
        (line_atoms_from_jsonable, [], "must be an object with atoms"),
        (line_atoms_from_jsonable, {"atoms": [{"c": {}}]}, "must be an object with s"),
        (line_atoms_from_jsonable, {"atoms": [{"s": math.inf}]}, "is not finite"),
    ],
)
def test_rejects_with_named_input_error(parse, obj, fragment):
    with pytest.raises(InputError, match=fragment):
        parse(obj)

