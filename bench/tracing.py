"""Spans around the calls into each ``bifree`` layer, recorded from outside.

:meth:`Tracer.install` replaces the public functions and methods listed in
``TARGETS`` with wrappers that record one span per call: name, layer,
start, end, parent span and operation id, plus a work count where the layer
has one.  Spans stay in memory until :meth:`Tracer.write` is called at the
end of the run.  A layer's self time is the duration of its spans minus the
part covered by their child spans.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np


def _size(*arrays) -> int:
    return int(np.broadcast(*[np.asarray(a) for a in arrays]).size)


def _grid_nodes(self, s_axis, t_axis, *rest, **kw) -> int:
    return int(np.size(s_axis) * np.size(t_axis))


def _method_points(self, z, *rest, **kw) -> int:
    return int(np.size(z))


def _method_pair_points(self, z, w, *rest, **kw) -> int:
    return _size(z, w)


def _marginal_points(self, axis, z, *rest, **kw) -> int:
    return int(np.size(z))


def _newton_points(points, weights, target, *rest, **kw) -> int:
    return int(np.size(target))


def _one(*args, **kw) -> int:
    return 1


# (module, attribute, layer, counter): attribute "Class.method" wraps a
# method on the class; a module-level function is also replaced in every
# bifree module that imported it by name.
TARGETS = [
    ("bifree.measure", "PlanarMeasure.__init__", "measure", "atoms"),
    ("bifree.measure", "Measure1D.__init__", "measure", "atoms"),
    ("bifree.measure", "AtomicMeasure2D.__init__", "measure", "atoms"),
    ("bifree.measure", "PlanarMeasure.marginal", "measure", None),
    ("bifree.measure", "PlanarMeasure.shifted_by", "measure", None),
    ("bifree.measure", "PlanarMeasure.dilated", "measure", None),
    ("bifree.measure", "AtomicMeasure2D.__add__", "measure", None),
    ("bifree.measure", "AtomicMeasure2D.scaled", "measure", None),
    ("bifree.measure", "AtomicMeasure2D.weighted", "measure", None),
    ("bifree.measure", "AtomicMeasure2D.restricted", "measure", None),
    ("bifree.transforms", "newton_f_inverse", "transforms.newton", _newton_points),
    ("bifree.transforms", "bi_free_phi", "transforms.bi_free_phi", _one),
    ("bifree.freeconv", "FreeConvRep.f_value", "freeconv", _method_points),
    ("bifree.freeconv", "FreeConvRep.phi", "freeconv", None),
    ("bifree.biconv", "BiConvRep.density", "biconv.density", _grid_nodes),
    ("bifree.biconv", "BiConvRep.cauchy", "biconv.pointwise", _method_pair_points),
    ("bifree.biconv", "BiConvRep.phi", "biconv.pointwise", _method_pair_points),
    ("bifree.idlaw", "quad", "idlaw.quad", _one),
    ("bifree.idlaw", "CharTriplet.bi_free_phi", "idlaw.phi", _method_pair_points),
    ("bifree.idlaw", "CharTriplet.marginal_phi", "idlaw.phi", _marginal_points),
    ("bifree.idlaw", "CharTriplet.marginal_dphi", "idlaw.phi", _marginal_points),
    ("bifree.idlaw", "CharTriplet.classical_cf", "idlaw.cf", _one),
    ("bifree.stable", "check_stability", "stable.check", None),
    ("bifree.stable", "domain_of_attraction_run", "stable.doa", None),
    ("bifree.limits", "center_row", "limits.rows", None),
    ("bifree.limits", "row_accumulators", "limits.rows", None),
    ("bifree.limits", "ensure_infinitesimal", "limits.conditions", None),
    ("bifree.limits", "check_condition_I_II", "limits.conditions", None),
    ("bifree.limits", "check_condition_III_IV", "limits.conditions", None),
    ("bifree.limits", "limit_triplet", "limits.conditions", None),
    ("bifree.limits", "limit_vector", "limits.conditions", None),
    ("bifree.limits", "run_bi_free_limit", "limits.runners", None),
    ("bifree.limits", "run_classical_limit", "limits.runners", None),
    ("bifree.fullness", "fullness_by_g", "fullness", None),
    ("bifree.fullness", "fullness_by_phi", "fullness", None),
    ("bifree.fullness", "fullness_of_triplet", "fullness", None),
    ("bifree.serialize", "load_json", "serialize.load", None),
    ("bifree.serialize", "measure_from_dict", "serialize.load", None),
    ("bifree.serialize", "triplet_from_dict", "serialize.load", None),
    ("bifree.serialize", "array_from_dict", "serialize.load", None),
    ("bifree.serialize", "rep_from_dict", "serialize.load", None),
    ("bifree.serialize", "stable_spec_from_dict", "serialize.load", None),
    ("bifree.serialize", "probes_from_dict", "serialize.load", None),
    ("bifree.serialize", "dump_json", "serialize.write", "bytes"),
    ("bifree.serialize", "write_grid_csv", "serialize.write", "bytes"),
    ("bifree.serialize", "write_table_csv", "serialize.write", "bytes"),
]

ROOT = "bench.op"


class Tracer:
    """In-memory span store; one instance per traced phase.

    Span fields live in flat typed arrays, so a long trace adds nothing for
    the garbage collector to scan while the program runs.
    """

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._layer_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.layer_id = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: dict[str, float] = defaultdict(float)
        self._undo: list = []

    def __len__(self) -> int:
        return len(self.start)

    # -- recording -----------------------------------------------------

    def intern(self, name: str, layer: str) -> tuple[int, int]:
        """Ids for a span name and layer, fixed when a wrapper is made."""
        for text, table, ids in ((name, self.names, self._name_ids), (layer, self.layers, self._layer_ids)):
            if text not in ids:
                ids[text] = len(table)
                table.append(text)
        return self._name_ids[name], self._layer_ids[layer]

    def open(self, nid: int, lid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.layer_id.append(lid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, fn, name: str, layer: str, counter):
        tracer = self
        counts = self.counts
        count_key = layer + ".count"
        nid, lid = self.intern(name, layer)

        if counter == "atoms":
            @functools.wraps(fn)
            def wrapper(obj, atoms=(), *a, **kw):
                items = atoms if isinstance(atoms, list) else list(atoms)
                counts[count_key] += len(items)
                rec = tracer.open(nid, lid)
                try:
                    return fn(obj, items, *a, **kw)
                finally:
                    tracer.close(rec)
        elif counter == "bytes":
            @functools.wraps(fn)
            def wrapper(path, *a, **kw):
                rec = tracer.open(nid, lid)
                try:
                    return fn(path, *a, **kw)
                finally:
                    tracer.close(rec)
                    counts[count_key] += os.path.getsize(path)
        else:
            @functools.wraps(fn)
            def wrapper(*a, **kw):
                if counter is not None:
                    counts[count_key] += counter(*a, **kw)
                rec = tracer.open(nid, lid)
                try:
                    return fn(*a, **kw)
                finally:
                    tracer.close(rec)
        return wrapper

    def install(self) -> None:
        """Patch every target; :meth:`uninstall` restores the originals."""
        modules = [m for k, m in sys.modules.items() if k == "bifree" or k.startswith("bifree.")]
        for mod_name, attr, layer, counter in TARGETS:
            mod = importlib.import_module(mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(orig, attr, layer, counter))
                self._undo.append((cls, meth, orig))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(orig, attr, layer, counter)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapper)
                        self._undo.append((m, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    # -- analysis ------------------------------------------------------

    def self_times(self, first: int = 0) -> dict[str, float]:
        """Self time per layer over the spans from index ``first`` on."""
        out: dict[str, float] = defaultdict(float)
        layers, lid, parent = self.layers, self.layer_id, self.parent
        for i in range(first, len(self)):
            dur = self.end[i] - self.start[i]
            out[layers[lid[i]]] += dur
            if parent[i] >= 0:
                out[layers[lid[parent[i]]]] -= dur
        return out

    def count_under(self, ancestor: str, layer: str, first: int = 0) -> dict[int, int]:
        """Per op id, spans of ``layer`` from ``first`` on inside an ``ancestor`` call."""
        inside: dict[int, bool] = {}
        out: dict[int, int] = defaultdict(int)
        for i in range(first, len(self)):
            p = self.parent[i]
            inside[i] = self.names[self.name_id[i]] == ancestor or inside.get(p, False)
            if inside[i] and self.layers[self.layer_id[i]] == layer:
                out[self.op[i]] += 1
        return out

    def write(self, path: str) -> None:
        """Spans as CSV: id, parent, op, layer, name, start_s, end_s."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        t0 = self.start[0] if len(self) else 0.0
        with open(path, "w") as fh:
            fh.write("id,parent,op,layer,name,start_s,end_s\n")
            for i in range(len(self)):
                fh.write(f"{i},{self.parent[i]},{self.op[i]},{self.layers[self.layer_id[i]]},"
                         f"{self.names[self.name_id[i]]},{self.start[i] - t0:.9f},{self.end[i] - t0:.9f}\n")
