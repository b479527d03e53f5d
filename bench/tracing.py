"""Spans and counters recorded around heistri's public functions.

The tracer replaces functions with wrappers in every heistri module whose
globals hold them, because heistri modules import each other's functions
by name (``heistri.cli`` calls its own ``build_map`` binding, and
``hybrid_simplex`` looks ``horizontal_path`` up in its module globals).
Methods and constructors are wrapped on their classes.  Nothing inside
``src/`` is edited; ``unpatch`` restores every binding it replaced.

A span is (operation id, name, start, end, parent span index).  Spans
stay in memory and are written once, by ``write``, when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# Timed layer boundaries: metric prefix -> (module, attribute).  Each
# gives "<prefix>.ms" (time in the outermost calls) and, where listed in
# SELF_TIMED, "<prefix>.self_ms" (that time minus the time in child spans).
SPANS = {
    "cli.main": ("heistri.cli", "main"),
    "cli.triangulate": ("heistri.cli", "cmd_triangulate"),
    "cli.boundary": ("heistri.cli", "cmd_boundary"),
    "cli.check": ("heistri.cli", "cmd_check"),
    "cli.export": ("heistri.cli", "cmd_export"),
    "cli.check.boundary_squared_zero": ("heistri.cli", "_check_boundary"),
    "cli.check.horizontality": ("heistri.cli", "_check_horizontality"),
    "cli.check.cell_consistency": ("heistri.cli", "_check_cells"),
    "cli.check.equivariance_spot": ("heistri.cli", "_check_equivariance"),
    "cli.check.cone_relation": ("heistri.cli", "_check_cones"),
    "grid.grid_cover": ("heistri.grid", "grid_cover"),
    "triangulation.triangulate_region": ("heistri.triangulation", "triangulate_region"),
    "triangulation.triangulate_cube": ("heistri.triangulation", "triangulate_cube"),
    "triangulation.export_mesh": ("heistri.triangulation", "export_mesh"),
    "simplex.boundary": ("heistri.simplex", "boundary"),
    "simplex.chain_to_json": ("heistri.simplex", "chain_to_json"),
    "simplex.chain_from_json": ("heistri.simplex", "chain_from_json"),
    "simplex.map_consistency": ("heistri.simplex", "map_consistency"),
    "simplex.eval_many": ("heistri.simplex", "PLMap.eval_many"),
    "horizontal.build_map": ("heistri.horizontal", "build_map"),
    "horizontal.hybrid_simplex": ("heistri.horizontal", "hybrid_simplex"),
    "horizontal.horizontal_path": ("heistri.horizontal", "horizontal_path"),
    "horizontal.cone_relation_residual": ("heistri.horizontal", "cone_relation_residual"),
}
SELF_TIMED = {"cli.main", "cli.triangulate", "cli.boundary", "cli.check", "cli.export",
              "triangulation.triangulate_region"}
# Spans whose call count is reported as "<prefix>.calls".
SPAN_CALLS = {"triangulation.triangulate_cube", "horizontal.build_map",
              "horizontal.horizontal_path"}

# Hot functions and constructors: counted only, no span.
COUNTS = {
    "core.mul.calls": ("heistri.core", "mul"),
    "core.hpoint.count": ("heistri.core", "HPoint.__post_init__"),
    "horizontal.segment_residual.calls": ("heistri.horizontal", "segment_residual"),
    "simplex.barycentric.count": ("heistri.simplex", "Barycentric.__post_init__"),
    "simplex.plmap.count": ("heistri.simplex", "PLMap.__init__"),
    "simplex.plmap_eval.calls": ("heistri.simplex", "PLMap.eval"),
}


def op_metric_names():
    """Every per-operation metric name, with its unit."""
    out = {}
    for prefix in SPANS:
        out[prefix + ".ms"] = "ms"
        if prefix in SELF_TIMED:
            out[prefix + ".self_ms"] = "ms"
        if prefix in SPAN_CALLS:
            out[prefix + ".calls"] = "count"
    for name in COUNTS:
        out[name] = "count"
    return out


class Tracer:
    def __init__(self):
        self.spans = []          # [op, name, start, end, parent]
        self.op_counts = {}      # op id -> Counter of counted calls
        self.available = set()   # metric prefixes whose target was found
        self._stack = []
        self._depth = Counter()
        self._outer = []         # per span: not nested in a span of its name
        self._op = None
        self._counts = Counter()
        self._restore = []
        self._t0 = time.perf_counter()

    # ---- patching -------------------------------------------------

    def patch(self):
        for prefix, target in SPANS.items():
            if self._replace(target, lambda fn, p=prefix: self._span_wrapper(p, fn)):
                self.available.add(prefix)
        for name, target in COUNTS.items():
            if self._replace(target, lambda fn, n=name: self._count_wrapper(n, fn)):
                self.available.add(name)

    def unpatch(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def _replace(self, target, make) -> bool:
        """Wrap a function everywhere heistri looks it up; False if it is gone."""
        modname, path = target
        module = sys.modules.get(modname)
        if module is None:
            return False
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name, None)
            orig = cls.__dict__.get(attr) if cls is not None else None
            if orig is None:
                return False
            self._restore.append((cls, attr, orig))
            setattr(cls, attr, make(orig))
            return True
        orig = getattr(module, path, None)
        if orig is None:
            return False
        wrapper = make(orig)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "heistri" or name.startswith("heistri.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        return True

    def _span_wrapper(self, name, fn):
        spans, stack, depth, outer = self.spans, self._stack, self._depth, self._outer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([self._op, name, 0.0, 0.0, stack[-1] if stack else -1])
            outer.append(depth[name] == 0)
            depth[name] += 1
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                depth[name] -= 1
                span = spans[idx]
                span[2] = start
                span[3] = end

        return wrapper

    def _count_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ---- operations -----------------------------------------------

    def begin(self, op):
        """Attribute the following spans and counts to operation ``op``."""
        self._op = op
        self._counts = Counter()
        return len(self.spans)

    def end(self, first_span) -> dict:
        """Close the current operation and return its per-layer figures."""
        self.op_counts[self._op] = self._counts
        return self._figures(first_span, self._counts)

    def _figures(self, first, counts) -> dict:
        out = Counter()
        child_ms = defaultdict(float)
        spans = self.spans
        for idx in range(first, len(spans)):
            parent = spans[idx][4]
            if parent >= first:
                child_ms[parent] += (spans[idx][3] - spans[idx][2]) * 1e3
        for idx in range(first, len(spans)):
            _, name, start, end, _ = spans[idx]
            ms = (end - start) * 1e3
            if self._outer[idx]:
                out[name + ".ms"] += ms
            if name in SELF_TIMED:
                out[name + ".self_ms"] += ms - child_ms[idx]
            if name in SPAN_CALLS:
                out[name + ".calls"] += 1
        out.update(counts)
        return out

    # ---- output ---------------------------------------------------

    def write(self, path, meta: dict):
        doc = dict(meta)
        doc["spans"] = [[op, name, round((s - self._t0) * 1e3, 6), round((e - self._t0) * 1e3, 6),
                         parent] for op, name, s, e, parent in self.spans]
        doc["counts"] = {str(op): dict(c) for op, c in self.op_counts.items()}
        with open(path, "w") as fh:
            json.dump(doc, fh)


def mean_figures(per_op, names, available):
    """Mean of each metric over operations; absent where its target is gone."""
    out = {}
    for name, unit in names.items():
        base = name.rsplit(".", 1)[0]
        if base not in available and name not in available:
            continue
        total = sum(fig.get(name, 0) for fig in per_op)
        out[name] = {"value": total / max(1, len(per_op)), "unit": unit}
    return out
