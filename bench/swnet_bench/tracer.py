"""Span tracer that wraps swnet's public functions and methods from outside.

Installing the tracer replaces each traced function everywhere it is bound:
in its home module, in every swnet module that imported it by name (e.g.
`hllc_flux` in scheme1d, scheme2d, junctions and simulation), and methods on
their classes. Each call appends one span (name, parent span, start, end,
work count, failed flag) to in-memory columns; nothing is aggregated or
written while the program runs. `layer_totals` turns the spans into per-name
calls, self time, work and failures afterwards.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import time
from array import array

import numpy as np


def _states(args, result):
    """Number of (…, 3) conserved states in the first array argument."""
    return int(np.size(args[0])) // 3


def _channel_cells(args, result):
    return len(args[0].q)


def _mesh_cells(args, result):
    return int(args[0].mesh.n_cells)


def _newton_iters(args, result):
    return int(result.iterations)


_CHANNEL_METHODS = ("reconstruct", "face_state", "interior_fluxes", "update", "dt_bound")
_JUNCTION_METHODS = ("reconstruct", "channel_neighbors", "compute_fluxes", "update")
_MESH_METHODS = ("reconstruct", "edge_states", "update", "dt_bound")

# (span name, swnet module, attribute or Class.method, work counter or None).
# Several targets may share a span name; their spans are summed.
TARGETS = [
    *[
        (f"simulation.{m}", "simulation", f"{cls}.{m}", None)
        for m in ("advance", "compute_dt", "sample_gauges")
        for cls in ("NetworkSimulation", "Mesh2DSimulation")
    ],
    ("simulation.boundary_flux", "simulation", "boundary_flux", None),
    ("simulation.psfp_end_fluxes", "simulation", "PSFPJunction.compute_end_fluxes", None),
    *[(f"scheme1d.{m}", "scheme1d", f"ChannelField.{m}", _channel_cells) for m in _CHANNEL_METHODS],
    ("riemann.hllc_flux", "riemann", "hllc_flux", _states),
    ("riemann.wall_flux", "riemann", "wall_flux", None),
    ("core.jacobian_dot", "core", "jacobian_dot", _states),
    ("core.rotate", "core", "rotate_state", None),
    ("core.rotate", "core", "rotate_back", None),
    *[
        (f"junctions.{m}", "junctions", f"{cls}.{m}", None)
        for m in _JUNCTION_METHODS
        for cls in ("JunctionA", "JunctionB")
    ],
    ("junctions.project_transverse", "junctions", "project_transverse", None),
    ("psfp.solve", "psfp", "psfp_solve", _newton_iters),
    *[(f"scheme2d.{m}", "scheme2d", f"MeshField.{m}", _mesh_cells) for m in _MESH_METHODS],
    ("scheme2d.interior_edge_fluxes", "scheme2d", "interior_edge_fluxes", None),
    ("meshing.rect_union_mesh", "meshing", "rect_union_mesh", None),
    ("meshing.fan_refine_mesh", "meshing", "fan_refine_mesh", None),
    ("geometry.point_in_polygon", "geometry", "point_in_polygon", None),
    ("geometry.trimesh_build", "geometry", "TriMesh.__init__", None),
    ("config.build_simulation", "config", "build_simulation", None),
    ("studies.build_reference_sim", "studies", "build_reference_sim", None),
]


def swnet_modules():
    """The swnet package and every submodule, imported."""
    pkg = importlib.import_module("swnet")
    mods = [pkg]
    for info in pkgutil.iter_modules(pkg.__path__):
        mods.append(importlib.import_module(f"swnet.{info.name}"))
    return mods


class Tracer:
    """Records one span per call of every target while installed."""

    def __init__(self):
        self.names = sorted({name for name, *_ in TARGETS})
        ids = {name: k for k, name in enumerate(self.names)}
        self._stack = [-1]
        self.clear()
        modules = swnet_modules()
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        # (owner object, attribute, original, wrapper) for every binding.
        self._bindings = []
        for name, modname, attr, work in TARGETS:
            owner = by_name[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                places = [(cls, meth)]
            else:
                original = getattr(owner, attr)
                places = [
                    (mod, key)
                    for mod in modules
                    for key, value in vars(mod).items()
                    if value is original
                ]
            wrapper = self._wrap(original, ids[name], work)
            self._bindings += [(obj, key, original, wrapper) for obj, key in places]

    def clear(self):
        """Drop all recorded spans."""
        self._nid = array("i")
        self._parent = array("i")
        self._t0 = array("d")
        self._t1 = array("d")
        self._work = array("q")
        self._failed = array("b")

    def _wrap(self, fn, nid, work):
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer._nid)
            tracer._nid.append(nid)
            tracer._parent.append(stack[-1])
            tracer._t0.append(0.0)
            tracer._t1.append(0.0)
            tracer._work.append(0)
            tracer._failed.append(0)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._failed[idx] = 1
                raise
            finally:
                end = clock()
                stack.pop()
                tracer._t0[idx] = start
                tracer._t1[idx] = end
            if work is not None:
                tracer._work[idx] = work(args, result)
            return result

        return traced

    def install(self):
        for obj, key, _, wrapper in self._bindings:
            setattr(obj, key, wrapper)

    def uninstall(self):
        for obj, key, original, _ in self._bindings:
            setattr(obj, key, original)

    def spans(self) -> dict:
        """The recorded spans as numpy columns plus the name table."""
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self._nid, dtype=np.int32).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int32).copy(),
            "t0": np.frombuffer(self._t0, dtype=np.float64).copy(),
            "t1": np.frombuffer(self._t1, dtype=np.float64).copy(),
            "work": np.frombuffer(self._work, dtype=np.int64).copy(),
            "failed": np.frombuffer(self._failed, dtype=np.int8).copy(),
        }


def layer_totals(spans: dict) -> dict:
    """Per span name: calls, self seconds, work and failures, summed.

    A span's self time is its duration minus the durations of the spans it
    directly caused; untraced code in between counts as the caller's.
    """
    names = list(spans["names"])
    nid, parent = spans["name_id"], spans["parent"]
    dur = spans["t1"] - spans["t0"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - child
    n = len(names)
    calls = np.bincount(nid, minlength=n)
    self_s = np.bincount(nid, weights=self_time, minlength=n)
    work = np.bincount(nid, weights=spans["work"], minlength=n)
    failed = np.bincount(nid, weights=spans["failed"], minlength=n)
    return {
        name: {
            "calls": int(calls[k]),
            "self_s": float(self_s[k]),
            "work": int(work[k]),
            "failed": int(failed[k]),
        }
        for k, name in enumerate(names)
    }
