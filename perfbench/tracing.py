"""Span tracing of the blaschke_verify layers, installed from outside the package.

`Tracer.install()` wraps the functions listed in `WRAPPED`.  Every module of
the package that binds one of them (through `from .x import y` or as its own
global) is rebound to the wrapper, and methods are wrapped on their class, so
calls are seen whichever import site they go through.  Each wrapped call
records a span (id, parent id, name, start, end); spans stay in memory until
`layer_metrics` turns them into per-layer numbers and `dump` writes them out.

Calls made on a thread with no open span (the CLI suite's worker pool) take
the main thread's innermost open span as their parent, so that the suite's
instances hang under `cli._run_suite`.
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
import sys
import threading
import time

import numpy as np

PACKAGE = "blaschke_verify"

# module -> functions ("Class.method" for methods) that get a span
WRAPPED = {
    "measure": ["measure_from_jsonable"],
    "transform": ["_K_values", "_K_derivative", "rational_form"],
    "operator_model": [
        "build_system_from_measure",
        "build_L",
        "eigenvalues_outside_disk",
        "perturbation_determinant",
        "eval_h_resolvent",
        "system_from_jsonable",
    ],
    "zeros": [
        "zeros_via_L",
        "zeros_via_numerator_roots",
        "zeros_via_argument_principle",
        "match_zero_sets",
        "_contour_moments",
    ],
    "linalg": [
        "schur_decompose",
        "singular_values",
        "eigenvalues_clustered",
        "polynomial_roots",
        "psd_sqrt",
        "NumericalRangeSupport.__init__",
        "NumericalRangeSupport.distance",
    ],
    "bounds": [
        "check_theorem1",
        "check_theorem2",
        "check_corollary",
        "check_theorem3",
        "check_schur_chain",
        "check_jensen_h1",
        "check_real_line_variant",
    ],
    "dilation": ["dilate", "extract_spectral_measure", "roundtrip_check"],
    "cli": ["main", "_emit", "_run_suite", "_suite_instance"],
}

LAYERS = tuple(WRAPPED)
CHECKS = tuple(WRAPPED["bounds"])


def _count_kernel(tracer, args, kwargs):
    mu, warr = args
    tracer.add(
        ("transform.kernel_calls", 1),
        ("transform.kernel_points", warr.size),
        ("transform.kernel_point_atoms", warr.size * mu.natoms),
    )


def _count_grid(tracer, args, kwargs):
    A = np.ascontiguousarray(args[1], dtype=complex)
    with tracer.lock:
        tracer.grid_keys.add((A.shape, A.tobytes()))


# extra counters taken on entry, keyed by span name
COUNTERS = {
    "transform._K_values": _count_kernel,
    "transform._K_derivative": _count_kernel,
    "linalg.NumericalRangeSupport.__init__": _count_grid,
}


class Tracer:
    """Records spans and counters for every wrapped call while installed."""

    def __init__(self):
        self.lock = threading.Lock()
        self.spans: list = []
        self.counts: collections.Counter = collections.Counter()
        self.grid_keys: set = set()
        self._ids = itertools.count(1)
        self._main = threading.get_ident()
        self._main_stack: list = []
        self._local = threading.local()
        self._restore: list = []
        self.missing: list = []

    def add(self, *pairs):
        with self.lock:
            for key, n in pairs:
                self.counts[key] += n

    def reset(self):
        """Drop spans and counters; wrappers stay installed."""
        with self.lock:
            self.spans = []
            self.counts = collections.Counter()
            self.grid_keys = set()

    def _stack(self):
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                main = self._main_stack
                parent = main[-1] if main else 0
            sid = next(self._ids)
            if count is not None:
                count(self, args, kwargs)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.add((name + ":raised", 1))
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.spans.append((sid, parent, name, t0, t1))

        return wrapper

    def install(self):
        """Wrap every function in WRAPPED; names the package no longer has
        are listed in `self.missing` instead."""
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == PACKAGE]
        for modname, attrs in WRAPPED.items():
            mod = sys.modules.get(f"{PACKAGE}.{modname}")
            for attr in attrs:
                name = f"{modname}.{attr}"
                owner, _, meth = attr.rpartition(".")
                cls = getattr(mod, owner, None) if owner else None
                orig = vars(cls).get(meth) if cls else getattr(mod, attr, None)
                if orig is None:
                    self.missing.append(name)
                    continue
                if cls is not None:
                    setattr(cls, meth, self._wrap(name, orig))
                    self._restore.append((cls, meth, orig))
                    continue
                wrapper = self._wrap(name, orig)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, key, wrapper)
                            self._restore.append((m, key, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore = []

    def dump(self, path, label):
        """Append this tracer's spans to a JSON-lines file under `label`."""
        with open(path, "a") as fh:
            fh.write(json.dumps({"label": label, "spans": self.spans}) + "\n")


def _covered(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer times and counts of one traced pass.

    Times are inclusive span sums unless named `*_self_s` / `*.self_s`, which
    subtract the part of each span that its child spans cover.
    """
    spans = tracer.spans
    children = collections.defaultdict(list)
    for sid, parent, name, t0, t1 in spans:
        children[parent].append((t0, t1))
    incl = collections.Counter()
    self_t = collections.Counter()
    calls = collections.Counter()
    for sid, parent, name, t0, t1 in spans:
        incl[name] += t1 - t0
        self_t[name] += (t1 - t0) - _covered(children.get(sid, ()), t0, t1)
        calls[name] += 1
    c = tracer.counts
    builds = calls["linalg.NumericalRangeSupport.__init__"]
    suite_wall = incl["cli._run_suite"]
    m = {
        "zeros.contour_route_s": incl["zeros.zeros_via_argument_principle"],
        "zeros.contour_route_errors": c["zeros._contour_moments:raised"]
        + c["zeros.zeros_via_argument_principle:raised"],
        "zeros.contours": calls["zeros._contour_moments"],
        "zeros.eigen_route_s": incl["zeros.zeros_via_L"],
        "zeros.roots_route_s": incl["zeros.zeros_via_numerator_roots"],
        "zeros.pairing_s": incl["zeros.match_zero_sets"],
        "transform.kernel_calls": c["transform.kernel_calls"],
        "transform.kernel_points": c["transform.kernel_points"],
        "transform.kernel_point_atoms": c["transform.kernel_point_atoms"],
        "transform.rational_form_s": incl["transform.rational_form"],
        "transform.rational_form_calls": calls["transform.rational_form"],
        "operator_model.build_s": incl["operator_model.build_system_from_measure"]
        + incl["operator_model.build_L"],
        "operator_model.eig_outside_s": incl["operator_model.eigenvalues_outside_disk"],
        "linalg.nr_grid_s": incl["linalg.NumericalRangeSupport.__init__"],
        "linalg.nr_grid_builds": builds,
        "linalg.nr_grid_unique_share": len(tracer.grid_keys) / builds if builds else 0.0,
        "linalg.nr_distance_s": incl["linalg.NumericalRangeSupport.distance"],
        "linalg.nr_distance_calls": calls["linalg.NumericalRangeSupport.distance"],
        "linalg.schur_s": incl["linalg.schur_decompose"],
        "linalg.schur_calls": calls["linalg.schur_decompose"],
        "linalg.svd_s": incl["linalg.singular_values"],
        "dilation.dilate_s": incl["dilation.dilate"],
        "dilation.dilate_calls": calls["dilation.dilate"],
        "dilation.extract_s": incl["dilation.extract_spectral_measure"],
        "dilation.roundtrip_s": incl["dilation.roundtrip_check"],
        "measure.parse_s": incl["measure.measure_from_jsonable"]
        + incl["operator_model.system_from_jsonable"],
        "cli.emit_s": incl["cli._emit"],
        "cli.suite_wall_s": suite_wall,
        "cli.pool_parallelism": incl["cli._suite_instance"] / suite_wall if suite_wall else 0.0,
    }
    for check in CHECKS:
        m[f"bounds.{check}_s"] = incl[f"bounds.{check}"]
        m[f"bounds.{check}_self_s"] = self_t[f"bounds.{check}"]
    layer_self = collections.Counter()
    for name, t in self_t.items():
        layer_self[name.split(".")[0]] += t
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    m["trace.spans"] = len(spans)
    return m
