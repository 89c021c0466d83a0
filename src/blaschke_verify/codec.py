"""JSON codec for measure, system and real-line files and the complex numbers of reports.

A complex number is {"re": x, "im": y} (a missing part reads as 0), a vector
a list of them, a matrix a list of rows; a real-line atom is {"s": x, "c": z}
(a missing c reads as 0).  Parsing rejects non-numbers (booleans included),
non-lists, ragged or non-square matrices and NaN or infinite values, each
with an InputError subclass whose message names the field.
"""

from __future__ import annotations

import cmath

import numpy as np

from .errors import DimensionMismatch, MalformedField, NonFiniteValue


def finite(z, what: str):
    """z unchanged; NonFiniteValue naming `what` if it is NaN or infinite."""
    if not cmath.isfinite(z):
        raise NonFiniteValue(f"{what} {z!r} is not finite")
    return z


def _number(x, what: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise MalformedField(f"{what} must be a number, got {x!r}")
    try:
        return float(x)
    except OverflowError:  # an integer beyond the float range
        raise NonFiniteValue(f"{what} {x!r} is not finite") from None


def real_from_json(x, what: str) -> float:
    return finite(_number(x, what), what)


def complex_from_json(obj, what: str) -> complex:
    if not isinstance(obj, dict):
        raise MalformedField(f"{what} must be an object with re/im fields, got {obj!r}")
    re, im = (_number(obj.get(k, 0.0), f"{what}.{k}") for k in ("re", "im"))
    return finite(complex(re, im), what)


def complex_to_json(z) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def _list(obj, what: str) -> list:
    if not isinstance(obj, list):
        raise MalformedField(f"{what} must be a list, got {obj!r}")
    return obj


def vector_from_json(obj, what: str) -> np.ndarray:
    zs = [complex_from_json(z, f"{what}[{i}]") for i, z in enumerate(_list(obj, what))]
    return np.array(zs, dtype=complex)


def vector_to_json(v) -> list:
    return [complex_to_json(z) for z in v]


def matrix_from_json(obj, what: str) -> np.ndarray:
    """A non-empty square complex matrix from its list of rows."""
    rows = [vector_from_json(row, f"{what}[{i}]") for i, row in enumerate(_list(obj, what))]
    if not rows or any(row.size != len(rows) for row in rows):
        lengths = sorted({row.size for row in rows})
        raise DimensionMismatch(
            f"{what} must be a non-empty square matrix, got {len(rows)} rows of lengths {lengths}"
        )
    return np.array(rows)


def matrix_to_json(M) -> list:
    return [vector_to_json(row) for row in np.asarray(M)]


def json_object(obj, what: str, keys: tuple) -> dict:
    """obj itself if it is a JSON object holding every one of keys."""
    if not isinstance(obj, dict) or not all(k in obj for k in keys):
        raise MalformedField(f"{what} must be an object with {', '.join(keys)}")
    return obj


def atom_entries(obj, kind: str, keys: tuple) -> list:
    """The 'atoms' list of a measure or real-line file, each entry holding keys."""
    atoms = _list(json_object(obj, f"{kind} file", ("atoms",))["atoms"], "atoms")
    return [json_object(entry, f"atoms[{i}]", keys) for i, entry in enumerate(atoms)]


def line_atoms_from_jsonable(obj) -> list:
    """(s, c) pairs, real position and complex weight, of a real-line file."""
    return [
        (
            real_from_json(e["s"], f"atoms[{i}].s"),
            complex_from_json(e.get("c", {}), f"atoms[{i}].c"),
        )
        for i, e in enumerate(atom_entries(obj, "real-line", ("s",)))
    ]


def line_atoms_to_jsonable(atoms) -> dict:
    return {"atoms": [{"s": float(s), "c": complex_to_json(c)} for s, c in atoms]}
