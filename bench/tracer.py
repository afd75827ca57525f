"""Spans and counters around the library's public functions.

`instrument` rebinds, from outside the library, every public module-level
function of the eight layer modules (and a few public methods) to a wrapper
that records a span: name, start, end, parent span and job id. The rebinding
covers every kellermaps namespace that imported the function by name, so
calls between modules are seen too. Ring element arithmetic is too
fine-grained for a span per call; it gets call counts and one aggregate
time, taken around the outermost arithmetic call only.

A span's self time is its duration minus the time of its child spans and
of the ring arithmetic called directly under it, so the self times of all
layers plus the arithmetic time add up to the traced job time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array

LAYERS = ("rings", "polynomials", "jacobian", "unimodular", "hensel",
          "constructions", "parsing", "cli")

# metric groups: busy time counts the outermost call of the group only
GROUPS = {
    "eval": ("polynomials.MultiPoly.eval", "polynomials.PolyMap.eval"),
    "mul": ("polynomials.MultiPoly.__mul__", "polynomials.MultiPoly.__rmul__",
            "polynomials.MultiPoly.__pow__"),
    "compose": ("polynomials.MultiPoly.compose", "polynomials.map_compose",
                "polynomials.poly_compose"),
    "is_keller": ("jacobian.is_keller",),
    "det_scalar": ("jacobian.det_scalar", "jacobian.adjugate_scalar"),
    "scan": ("unimodular.check_unimodular", "unimodular.residue_zero_count",
             "unimodular.bezout_check"),
    "lift": ("hensel.hensel_lift",),
    "fiber": ("hensel.fiber_points",),
    "univariate": ("hensel.lift_univariate_root",),
    "probe": ("constructions.invariance_probe", "constructions.probe_affine",
              "constructions.probe_translation"),
    "construct": ("constructions.char_p_counterexample", "constructions.g_composition_example",
                  "constructions.g_composition_zero_defect",
                  "constructions.find_d_unimodular_extension",
                  "constructions.quasi_druzkowski_witness", "constructions.pair_transitivity"),
    "restrict": ("constructions.restrict_scalars",),
    "parse": ("parsing.parse_map_document", "parsing.parse_poly",
              "parsing.parse_integer_poly", "parsing.parse_ring_line"),
    "digest": ("parsing.map_digest", "parsing.map_document", "parsing.poly_text"),
    "cli": ("cli.main", "cli.run_job", "cli.parse_input", "cli.render_json",
            "cli.render_text"),
}
# time inside these groups is not scan time, even when a scan calls them
NOT_SCAN = ("is_keller", "digest")

METHODS = {
    "polynomials": {
        "MultiPoly": ("eval", "compose", "derivative", "reduce_to_residue", "scale",
                      "__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__pow__"),
        "PolyMap": ("eval", "reduce_to_residue"),
    },
    "jacobian": {"PolyMatrix": ("det",)},
    "unimodular": {"UnimodularityReport": ("to_dict",)},
}
ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
         "__neg__", "__pow__", "inverse")
MUL = ("__mul__", "__rmul__")


class Tracer:
    """In-memory span store and counters; `active` switches recording."""

    def __init__(self):
        self.active = False
        self.record = True
        self.job = 0
        self.names = []
        self.layer_of = []
        self.calls = []
        self.self_ns = []
        self.group_index = {g: i for i, g in enumerate(GROUPS)}
        self.group_depth = [0] * len(GROUPS)
        self.group_calls = [0] * len(GROUPS)
        self.group_busy = [0] * len(GROUPS)
        self.not_scan_ns = [0]
        self.arith = [0, 0, 0]  # outermost ns, depth, mul calls
        self.counters = {"points_checked": 0, "hensel_iterations": 0}
        self.scans = []  # (map, extension degree) of every scan run in the job
        self.scans_run = 0
        self.scans_distinct = 0
        self.frames = [[0, -1]]  # [child ns, span index]
        self.sp_name = array("i")
        self.sp_job = array("i")
        self.sp_parent = array("i")
        self.sp_start = array("q")
        self.sp_end = array("q")

    # -- jobs ---------------------------------------------------------------

    def end_job(self):
        """Close the job's scan bookkeeping (outside any timed region)."""
        distinct = []
        for key in self.scans:
            if key not in distinct:
                distinct.append(key)
        self.scans_run += len(self.scans)
        self.scans_distinct += len(distinct)
        self.scans = []

    # -- wrappers -----------------------------------------------------------

    def _name_id(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layer_of.append(LAYERS.index(layer))
        self.calls.append(0)
        self.self_ns.append(0)
        return len(self.names) - 1

    def span(self, fn, name: str, layer: str, post=None):
        nid = self._name_id(name, layer)
        group = next((g for g, members in GROUPS.items() if name in members), None)
        gi = -1 if group is None else self.group_index[group]
        not_scan = group in NOT_SCAN
        scan_i = self.group_index["scan"]
        tr, frames, perf = self, self.frames, time.perf_counter_ns
        calls, self_ns = self.calls, self.self_ns
        gdepth, gcalls, gbusy = self.group_depth, self.group_calls, self.group_busy
        sp_name, sp_job, sp_parent = self.sp_name, self.sp_job, self.sp_parent
        sp_start, sp_end = self.sp_start, self.sp_end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            parent = frames[-1]
            idx = -1
            if tr.record:
                idx = len(sp_start)
                sp_name.append(nid)
                sp_job.append(tr.job)
                sp_parent.append(parent[1])
                sp_start.append(0)
                sp_end.append(0)
            frame = [0, idx]
            frames.append(frame)
            if gi >= 0:
                gdepth[gi] += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                frames.pop()
                dur = t1 - t0
                parent[0] += dur
                calls[nid] += 1
                self_ns[nid] += dur - frame[0]
                if gi >= 0:
                    gdepth[gi] -= 1
                    if gdepth[gi] == 0:
                        gcalls[gi] += 1
                        gbusy[gi] += dur
                        if not_scan and gdepth[scan_i]:
                            tr.not_scan_ns[0] += dur
                if idx >= 0:
                    sp_start[idx] = t0
                    sp_end[idx] = t1
            if post is not None:
                post(tr, result, args, kwargs)
            return result

        return wrapper

    def arithmetic(self, fn, is_mul: bool):
        tr, frames, perf, arith = self, self.frames, time.perf_counter_ns, self.arith

        @functools.wraps(fn)
        def wrapper(*args):
            if not tr.active:
                return fn(*args)
            if is_mul:
                arith[2] += 1
            if arith[1]:
                return fn(*args)
            arith[1] = 1
            t0 = perf()
            try:
                return fn(*args)
            finally:
                dur = perf() - t0
                arith[1] = 0
                arith[0] += dur
                frames[-1][0] += dur

        return wrapper

    # -- snapshots ----------------------------------------------------------

    def snapshot(self) -> dict:
        """Cumulative counts and times; per-pass figures are differences."""
        by_layer = [0] * len(LAYERS)
        for nid, ns in enumerate(self.self_ns):
            by_layer[self.layer_of[nid]] += ns
        by_layer[LAYERS.index("rings")] += self.arith[0]
        return {
            "calls": {n: c for n, c in zip(self.names, self.calls)},
            "group_calls": dict(zip(GROUPS, self.group_calls)),
            "group_ns": dict(zip(GROUPS, self.group_busy)),
            "self_ns": dict(zip(LAYERS, by_layer)),
            "not_scan_ns": self.not_scan_ns[0],
            "arith_ns": self.arith[0],
            "mul_calls": self.arith[2],
            "points_checked": self.counters["points_checked"],
            "hensel_iterations": self.counters["hensel_iterations"],
            "scans_run": self.scans_run,
            "scans_distinct": self.scans_distinct,
        }

    def spans(self):
        """Recorded spans as (job, span, parent, name, start ns, end ns)."""
        for i in range(len(self.sp_start)):
            yield (self.sp_job[i], i, self.sp_parent[i], self.names[self.sp_name[i]],
                   self.sp_start[i], self.sp_end[i])

    def dump(self, path: str):
        """Write the snapshot and the spans as one JSON document."""
        doc = {"snapshot": self.snapshot(), "spans": list(self.spans())}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)


# ---------------------------------------------------------------------------
# counters read from results


def _after_check(tr, report, args, kwargs):
    tr.counters["points_checked"] += report.points_checked
    if report.verdict != "budget-exceeded":
        tr.scans.append((args[0] if args else kwargs["f"], 1))


def _after_zero_count(tr, count, args, kwargs):
    f = args[0] if args else kwargs["f"]
    ext = args[1] if len(args) > 1 else kwargs.get("extension_degree", 1)
    tr.counters["points_checked"] += f.ring.q ** (ext * f.nvars)
    tr.scans.append((f, ext))


def _after_lift(tr, result, args, kwargs):
    tr.counters["hensel_iterations"] += result.iterations


POST = {
    "unimodular.check_unimodular": _after_check,
    "unimodular.residue_zero_count": _after_zero_count,
    "hensel.hensel_lift": _after_lift,
}


def instrument(tracer: Tracer):
    """Rebind the public functions of every layer module to span wrappers."""
    modules = {layer: importlib.import_module(f"kellermaps.{layer}") for layer in LAYERS}
    wrapped = {}
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != mod.__name__ or obj in wrapped:
                continue
            name = f"{layer}.{attr}"
            wrapped[obj] = tracer.span(obj, name, layer, POST.get(name))
    for layer, classes in METHODS.items():
        for cls_name, methods in classes.items():
            cls = getattr(modules[layer], cls_name, None)
            for meth in methods:
                fn = cls.__dict__.get(meth) if cls is not None else None
                if inspect.isfunction(fn):
                    setattr(cls, meth, tracer.span(fn, f"{layer}.{cls_name}.{meth}", layer))
    element = modules["rings"].RingElement
    for cls in [element] + element.__subclasses__():
        for meth in ARITH:
            fn = cls.__dict__.get(meth)
            if inspect.isfunction(fn):
                setattr(cls, meth, tracer.arithmetic(fn, meth in MUL))
    package = importlib.import_module("kellermaps")
    for mod in [package] + list(modules.values()):
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])
