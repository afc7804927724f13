"""Span tracer for the traced benchmark run.

The tracer wraps the public functions of each conforma layer module from the
outside: nothing under src/ changes. Every wrapped call records one span
(name, start, end, parent span, item id) in flat arrays. At the end of each
item the spans are checked (each child lies inside its parent; no span's
children cover more than its own duration; the self times add up to the
item's traced wall time) and folded into per-name totals; the
first SPAN_KEEP spans are kept and written out when the run ends.

Patch points that plain module-attribute wrapping would miss:
- names a module imports from another (radial.solve_unit_level,
  yamabe.homotopy_operator, moving_sphere.sphere_inversion_values, the
  handler imports in cli, ...): the wrapper is installed on every conforma
  module that binds the original object;
- f and grad_f are closures inside a CurvatureOperator: the operators that
  make_sigma_k_operator, homotopy_operator and homogenize return are rebuilt
  with dataclasses.replace around traced closures;
- the dense Newton solve is np.linalg.solve seen from yamabe: yamabe's np
  is swapped for a copy of numpy whose linalg.solve is traced.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import os
import time
import types
from array import array
from collections import Counter

import numpy as np

LAYERS = (
    "cli", "reporting", "cones", "radial", "yamabe", "moving_sphere",
    "conformal", "fields", "bubbles", "jacobi",
)
# Modules too thin to time, but scanned for bindings of wrapped names.
OTHER_MODULES = ("sampling", "errors")
ROOT = "bench.item"
SPAN_KEEP = 300_000
CLOCK_RES = time.get_clock_info("perf_counter").resolution

# Metrics that must repeat exactly across runs of the same code and seed.
EXACT = (
    "radial.f_per_slope", "radial.nodes", "yamabe.newton_iters",
    "yamabe.accept_ratio", "fields.values.points", "reporting.bytes_written",
)

# Per-layer metrics read from span totals: call counts of one span name, and
# self times summed over one or more span names.
_CALLS = {
    "cli.main.calls": "cli.main",
    "reporting.write_json.calls": "reporting.write_json",
    "cones.sigma_all.calls": "cones.sigma_all",
    "cones.f.calls": "cones.f",
    "cones.grad_f.calls": "cones.grad_f",
    "cones.solve_unit_level.calls": "cones.solve_unit_level",
    "radial.shoot.calls": "radial.shoot",
    "radial.implicit_vpp.calls": "radial.implicit_vpp",
    "yamabe.continuation.calls": "yamabe.continuation",
    "yamabe.residual.calls": "yamabe.residual",
    "conformal.product_eigenvalues.calls": "conformal.product_eigenvalues",
    "conformal.sphere_inversion_values.calls": "conformal.sphere_inversion_values",
    "conformal.a_matrix_flat.calls": "conformal.a_matrix_flat",
    "fields.values.calls": "fields.values",
    "moving_sphere.msi_violation.calls": "moving_sphere.msi_violation",
    "jacobi.eigenvalues.calls": "jacobi.jacobi_eigenvalues",
}
_SELF = {
    "cli.build_parser.self_s": ("cli.build_parser",),
    "reporting.write_json.self_s": ("reporting.write_json",),
    "cones.sigma_all.self_s": ("cones.sigma_all",),
    "cones.f.self_s": ("cones.f",),
    "cones.grad_f.self_s": ("cones.grad_f",),
    "cones.solve_unit_level.self_s": ("cones.solve_unit_level",),
    "cones.validate_operator.self_s": ("cones.validate_operator",),
    "radial.shoot.self_s": ("radial.shoot",),
    "radial.implicit_vpp.self_s": ("radial.implicit_vpp",),
    "radial.check.self_s": ("radial.bubble_deviation", "radial.profile_max_unit_residual"),
    "yamabe.node_eigenvalues.self_s": ("yamabe.node_eigenvalues",),
    "yamabe.residual.self_s": ("yamabe.residual",),
    "yamabe.jacobian.self_s": ("yamabe.jacobian",),
    "yamabe.linsolve.self_s": ("yamabe.linsolve",),
    "yamabe.min_cone_margin.self_s": ("yamabe.min_cone_margin",),
    "yamabe.derivative_matrices.self_s": ("yamabe.derivative_matrices",),
    "conformal.product_eigenvalues.self_s": ("conformal.product_eigenvalues",),
    "conformal.sphere_inversion_values.self_s": ("conformal.sphere_inversion_values",),
    "conformal.a_matrix_flat.self_s": ("conformal.a_matrix_flat",),
    "fields.values.self_s": ("fields.values",),
    "moving_sphere.msi_violation.self_s": ("moving_sphere.msi_violation",),
    "moving_sphere.h_lemma_check.self_s": ("moving_sphere.h_lemma_check",),
    "moving_sphere.gradient_bound_check.self_s": ("moving_sphere.gradient_bound_check",),
    "jacobi.eigenvalues.self_s": ("jacobi.jacobi_eigenvalues",),
    "bubbles.residuals.self_s": (
        "bubbles.verify_fullspace", "bubbles.halfspace_residual", "bubbles.ball_robin_residual",
    ),
}


def metric_units() -> dict:
    """Unit of every per-layer metric the traced run reports, in report order."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units.update({name: "count" for name in _CALLS})
    units.update({name: "s" for name in _SELF})
    units.update({
        "cones.cone_rejections": "count",
        "radial.f_per_slope": "ratio",
        "radial.nodes": "count",
        "yamabe.newton_iters": "count",
        "yamabe.accept_ratio": "ratio",
        "moving_sphere.points_per_s": "1/s",
        "moving_sphere.bytes_computed": "B",
        "fields.values.points": "count",
        "reporting.bytes_written": "B",
        "trace.spans": "count",
        "trace.ok_per_s": "items/s",
        "trace.overhead_frac": "ratio",
    })
    return units


def exact_metric_names() -> list:
    return [m for m in metric_units() if m.endswith(".calls") or m in EXACT]


class TraceError(RuntimeError):
    """The spans of an item break an invariant of the trace."""


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self.counters: Counter = Counter()
        self._calls = np.zeros(0)
        self._self = np.zeros(0)
        self._incl = np.zeros(0)
        self.edges: Counter = Counter()  # (name, parent name) -> calls
        self.kept: list = []
        self.kept_spans = 0
        self.total_spans = 0
        self.items = 0
        self._undo: list = []
        self._root = self._id(ROOT)

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- wrappers -----------------------------------------------------------

    def wrap(self, fn, name: str, after=None, reject=None):
        """Return fn recording one span per call under name.

        after(args, result) runs once the span is closed; reject is an
        exception class whose raises are counted as name + ".rejections".
        """
        nid = self._id(name)
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        stack = self._stack
        clock = time.perf_counter
        counters = self.counters

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if reject is not None and isinstance(exc, reject):
                    counters[name + ".rejections"] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every layer of the conforma package in this interpreter."""
        from conforma.errors import ConeError

        mods = {m: importlib.import_module(f"conforma.{m}") for m in LAYERS + OTHER_MODULES}
        mods["__init__"] = importlib.import_module("conforma")
        counters = self.counters

        def traced_operator(prefix, reject=None):
            def rebuild(op):
                return dataclasses.replace(
                    op,
                    f=self.wrap(op.f, f"{prefix}.f", reject=reject),
                    grad_f=self.wrap(op.grad_f, f"{prefix}.grad_f", reject=reject),
                )
            return rebuild

        def count(key, fn):
            def after(args, result):
                counters[key] += fn(args, result)
            return after

        def written(args, result):
            path = os.fspath(args[0])
            # manifest.json carries a timing float whose printed length varies
            if os.path.basename(path) != "manifest.json":
                counters["reporting.bytes_written"] += os.path.getsize(path)

        def msi(args, result):
            pts = np.atleast_2d(np.asarray(args[3]))
            counters["moving_sphere.points"] += pts.shape[0]
            counters["moving_sphere.bytes_computed"] += pts.shape[0] * pts.shape[1] * 8

        hooks = {
            "radial.shoot": count("radial.nodes", lambda a, r: len(r.r)),
            "moving_sphere.msi_violation": msi,
            "reporting.write_json": written,
            "reporting.write_csv": written,
        }
        # cone rejections count at the sigma_k closures only; the homotopy
        # wrapper re-raises what its inner operator raised
        op_builders = {
            "cones.make_sigma_k_operator": traced_operator("cones", ConeError),
            "cones.homotopy_operator": traced_operator("cones.homotopy"),
            "cones.homogenize": traced_operator("cones.homogenize"),
        }

        replacements = {}
        for layer in LAYERS:
            mod = mods[layer]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name in op_builders:
                    replacements[id(obj)] = (obj, _compose(self.wrap(obj, name), op_builders[name]))
                else:
                    replacements[id(obj)] = (obj, self.wrap(obj, name, after=hooks.get(name)))

        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])

        points = count("fields.values.points", lambda a, r: np.atleast_2d(np.asarray(a[1])).shape[0])
        fields = mods["fields"]
        for obj in vars(fields).values():
            if inspect.isclass(obj) and obj.__module__ == fields.__name__ and "values" in obj.__dict__:
                self._set(obj, "values", self.wrap(obj.__dict__["values"], "fields.values", after=points))

        yamabe = mods["yamabe"]
        np_copy = types.ModuleType("numpy")
        np_copy.__dict__.update(np.__dict__)
        linalg_copy = types.ModuleType("numpy.linalg")
        linalg_copy.__dict__.update(np.linalg.__dict__)
        linalg_copy.solve = self.wrap(np.linalg.solve, "yamabe.linsolve")
        np_copy.linalg = linalg_copy
        self._set(yamabe, "np", np_copy)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- items --------------------------------------------------------------

    def open_item(self, t0: float):
        """Open the root span of one item at t0 (the item's own clock read)."""
        self._name.append(self._root)
        self._parent.append(-1)
        self._start.append(t0)
        self._end.append(0.0)
        self._stack.append(len(self._name) - 1)

    def close_item(self, t1: float, item_id: int) -> dict:
        """Close the root span at t1, check the item's spans and fold them."""
        self._end[self._stack.pop()] = t1
        if self._stack != [-1]:
            raise TraceError(f"span stack not empty after item: {self._stack}")
        name = np.frombuffer(self._name, dtype=np.int32).copy()
        parent = np.frombuffer(self._parent, dtype=np.int32).copy()
        start = np.frombuffer(self._start, dtype=np.float64).copy()
        end = np.frombuffer(self._end, dtype=np.float64).copy()
        for buf in (self._name, self._parent, self._start, self._end):
            del buf[:]

        n = len(name)
        dur = end - start
        child = parent >= 0
        if np.any(dur < 0):
            raise TraceError(f"item {item_id}: span ends before it starts")
        pidx = parent[child]
        outside = (start[child] < start[pidx]) | (end[child] > end[pidx])
        if np.any(outside):
            bad = int(np.flatnonzero(child)[np.argmax(outside)])
            raise TraceError(
                f"item {item_id}: span {self.names[name[bad]]} lies outside its parent"
            )
        covered = np.bincount(pidx, weights=dur[child], minlength=n)
        self_t = dur - covered
        # Children that overlap each other, or a wrong parent link, cover more
        # than the parent's duration. Allow the clock resolution plus the
        # rounding of each duration subtracted.
        tol = CLOCK_RES + 4.0 * np.spacing(np.abs(end)) * (1 + np.bincount(pidx, minlength=n))
        if np.any(self_t < -tol):
            bad = int(np.argmax(self_t < -tol))
            raise TraceError(
                f"item {item_id}: the children of span {self.names[name[bad]]} "
                f"cover {float(covered[bad])!r} s, more than its {float(dur[bad])!r} s"
            )
        # With every non-root span a child of another, this sum equals the
        # root's duration by construction: a guard against folding errors.
        wall = float(dur[0])
        total_self = float(self_t.sum())
        if abs(total_self - wall) > 1e-9 * max(1.0, wall):
            raise TraceError(
                f"item {item_id}: self times sum to {total_self!r}, wall is {wall!r}"
            )

        k = len(self.names)
        self._calls = _grow(self._calls, k) + np.bincount(name, minlength=k)
        self._self = _grow(self._self, k) + np.bincount(name, weights=self_t, minlength=k)
        self._incl = _grow(self._incl, k) + np.bincount(name, weights=dur, minlength=k)
        pair = name[child].astype(np.int64) * k + name[pidx]
        ids, counts = np.unique(pair, return_counts=True)
        for pid, c in zip(ids.tolist(), counts.tolist()):
            self.edges[(self.names[pid // k], self.names[pid % k])] += c

        self.total_spans += n
        self.items += 1
        if self.kept_spans + n <= SPAN_KEEP:
            self.kept.append((item_id, name, parent, start, end))
            self.kept_spans += n
        return {"spans": n, "wall": wall, "self_sum": total_self}

    # -- results ------------------------------------------------------------

    def _calls_of(self, name: str) -> int:
        nid = self._ids.get(name)
        return int(self._calls[nid]) if nid is not None and nid < len(self._calls) else 0

    def _self_of(self, names) -> float:
        total = 0.0
        for name in names:
            nid = self._ids.get(name)
            if nid is not None and nid < len(self._self):
                total += float(self._self[nid])
        return total

    def _incl_of(self, name: str) -> float:
        nid = self._ids.get(name)
        return float(self._incl[nid]) if nid is not None and nid < len(self._incl) else 0.0

    def metrics(self) -> dict:
        """Per-layer values (unit-free) over every item folded so far."""
        m = {}
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self._self_of(
                [nm for nm in self.names if nm.startswith(layer + ".")]
            )
        for metric, name in _CALLS.items():
            m[metric] = self._calls_of(name)
        for metric, names in _SELF.items():
            m[metric] = self._self_of(names)
        c = self.counters
        vpp = self._calls_of("radial.implicit_vpp")
        newton_res = self.edges[("yamabe.residual", "yamabe.newton_solve")]
        msi_time = self._incl_of("moving_sphere.msi_violation")
        m.update({
            "cones.cone_rejections": c["cones.f.rejections"] + c["cones.grad_f.rejections"],
            "radial.f_per_slope": _ratio(self.edges[("cones.f", "radial.implicit_vpp")], vpp),
            "radial.nodes": c["radial.nodes"],
            "yamabe.newton_iters": self._calls_of("yamabe.jacobian"),
            "yamabe.accept_ratio": _ratio(
                self.edges[("yamabe.jacobian", "yamabe.newton_solve")], newton_res
            ),
            "moving_sphere.points_per_s": c["moving_sphere.points"] / msi_time if msi_time else 0.0,
            "moving_sphere.bytes_computed": c["moving_sphere.bytes_computed"],
            "fields.values.points": c["fields.values.points"],
            "reporting.bytes_written": c["reporting.bytes_written"],
            "trace.spans": self.total_spans,
        })
        return m

    def write_spans(self, path):
        """Write the kept spans (the first SPAN_KEEP) as a compressed npz."""
        if not self.kept:
            return
        offsets, off = [], 0
        for _, name, *_rest in self.kept:
            offsets.append(off)
            off += len(name)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            item=np.concatenate([np.full(len(k[1]), k[0], dtype=np.int32) for k in self.kept]),
            name=np.concatenate([k[1] for k in self.kept]),
            parent=np.concatenate([
                np.where(k[2] >= 0, k[2] + o, -1) for k, o in zip(self.kept, offsets)
            ]),
            start=np.concatenate([k[3] for k in self.kept]),
            end=np.concatenate([k[4] for k in self.kept]),
        )


def _compose(first, then):
    def call(*args, **kwargs):
        return then(first(*args, **kwargs))

    call.__wrapped__ = first
    return call


def _grow(arr, k):
    if len(arr) >= k:
        return arr
    return np.concatenate([arr, np.zeros(k - len(arr))])


def _ratio(num, den):
    return num / den if den else 0.0
