"""Span tracer for the benchmark's traced run, and its per-layer metrics.

The tracer wraps public functions of the ``pillowcase`` modules.  Because
``cli``, ``solver`` and ``gluer`` import functions by name, a wrapper must
replace every binding of the function object in every loaded
``pillowcase.*`` module, not just the defining one.  A method is wrapped on
its class.  Spans (name, start, end, parent, op id) are kept in memory and
written out when the run ends; self time is computed from them afterwards.

A target that no longer exists is recorded as missing and its metrics are
reported as missing; the tracer never fails on a renamed function.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

# (span name, module, attribute).  A dotted attribute is a method on a class.
SPANNED = (
    ("cli.main", "pillowcase.cli", "main"),
    ("render.image_to_svg", "pillowcase.render", "image_to_svg"),
    ("render.image_to_csv", "pillowcase.render", "image_to_csv"),
    ("solver.solve_at_meridian_angle", "pillowcase.solver", "solve_at_meridian_angle"),
    ("solver.sample_pillowcase_image", "pillowcase.solver", "sample_pillowcase_image"),
    ("solver.reducible_lines", "pillowcase.solver", "reducible_lines"),
    ("solver.refine_representation", "pillowcase.solver", "refine_representation"),
    ("solver.extract_essential_curve", "pillowcase.solver", "extract_essential_curve"),
    ("solver.find_surgery_representation", "pillowcase.solver",
     "find_surgery_representation"),
    ("solver.lift_to_cut_open", "pillowcase.solver", "lift_to_cut_open"),
    ("solver.corner_diagnostics", "pillowcase.solver", "corner_diagnostics"),
    ("geometry.min_distance_to", "pillowcase.geometry",
     "PillowcasePolyline.min_distance_to"),
    ("geometry.detailed_intersections", "pillowcase.geometry", "detailed_intersections"),
    ("geometry.polyline_intersections", "pillowcase.geometry", "polyline_intersections"),
    ("geometry.essential_class", "pillowcase.geometry", "essential_class"),
    ("su2.relator_residual", "pillowcase.su2", "relator_residual"),
    ("su2.irreducibility_gap", "pillowcase.su2", "irreducibility_gap"),
    ("su2.boundary_angles", "pillowcase.su2", "boundary_angles"),
    ("su2.align_boundary_to_i_axis", "pillowcase.su2", "align_boundary_to_i_axis"),
    ("gluer.search_nonabelian_rep", "pillowcase.gluer", "search_nonabelian_rep"),
    ("gluer.slope_line_certificates", "pillowcase.gluer", "slope_line_certificates"),
    ("gluer.p_avoiding_certificate", "pillowcase.gluer", "p_avoiding_certificate"),
    ("homology.smith_normal_form", "pillowcase.homology", "smith_normal_form"),
    ("homology.glue_homology", "pillowcase.homology", "glue_homology"),
    ("homology.filling_homology", "pillowcase.homology", "filling_homology"),
    ("homology.seifert_h1", "pillowcase.homology", "seifert_h1"),
    ("homology.standard_form_reduce", "pillowcase.homology", "standard_form_reduce"),
)

# Called tens of thousands of times per op: counted, but given no span.
COUNTED = (
    ("geometry.pillowcase_distance", "pillowcase.geometry", "pillowcase_distance"),
)

LAYERS = ("cli", "render", "solver", "su2", "geometry", "gluer", "homology")


def _restarts(bound, result, counts):
    config = bound.arguments.get("config")
    if config is None:
        from pillowcase.solver import SolverConfig
        config = SolverConfig()
    counts["solver.restarts"] += config.restarts
    counts["solver.witnesses"] += len(result)


def _refine(bound, result, counts):
    counts["solver.refine_representation.failed"] += result is None


def _intersections(bound, result, counts):
    c1, c2 = bound.arguments["c1"], bound.arguments["c2"]
    counts["geometry.segment_pairs"] += c1.segment_count() * c2.segment_count()
    counts["geometry.crossings"] += len(result)


def _search(bound, result, counts):
    counts["gluer.candidates_refined"] += len(result.diagnostics)
    counts["gluer.found"] += bool(result.found)


# Counters read off a traced call's arguments and result.
HOOKS = {
    "solver.solve_at_meridian_angle": (_restarts, ("solver.restarts", "solver.witnesses")),
    "solver.refine_representation": (_refine, ("solver.refine_representation.failed",)),
    "geometry.detailed_intersections": (
        _intersections, ("geometry.segment_pairs", "geometry.crossings")),
    "gluer.search_nonabelian_rep": (
        _search, ("gluer.candidates_refined", "gluer.found")),
}


def _resolve(module_name, attr):
    """(owner, attribute name, function) for a target, or None if it is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    func = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)
    if not callable(func):
        return None
    return owner, name, func


class Tracer:
    """Installs wrappers on the targets and records spans while enabled."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name id, start, end, parent index, op id]
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self.op_id = -1
        self.enabled = False
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "pillowcase" or n.startswith("pillowcase."))]
        targets = [(t, True) for t in SPANNED] + [(t, False) for t in COUNTED]
        for (span_name, module_name, attr), spanned in targets:
            found = _resolve(module_name, attr)
            self.calls[span_name] = 0
            if found is None:
                self.missing.append(span_name)
                continue
            owner, name, func = found
            wrapper = (self._spanned if spanned else self._counted)(span_name, func)
            if isinstance(owner, type):
                self._rebind(owner, name, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is func:
                        self._rebind(module, key, wrapper)
        for span_name, (hook, keys) in HOOKS.items():
            for key in keys:
                self.counts[key] = 0
                if span_name in self.missing:
                    self.missing.append(key)

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()

    def _rebind(self, owner, name, wrapper) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _counted(self, name, func):
        calls = self.calls

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if self.enabled:
                calls[name] += 1
            return func(*args, **kwargs)
        return wrapper

    def _spanned(self, name, func):
        name_id = len(self.names)
        self.names.append(name)
        hook = HOOKS.get(name)
        signature = inspect.signature(func) if hook else None
        spans, stack, calls = self.spans, self._stack, self.calls

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return func(*args, **kwargs)
            calls[name] += 1
            index = len(spans)
            spans.append([name_id, 0.0, 0.0, stack[-1] if stack else -1, self.op_id])
            stack.append(index)
            try:
                spans[index][1] = time.perf_counter()
                result = func(*args, **kwargs)
            finally:
                spans[index][2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                self._apply_hook(hook, signature, args, kwargs, result)
            return result
        return wrapper

    def _apply_hook(self, hook, signature, args, kwargs, result) -> None:
        func, keys = hook
        try:
            func(signature.bind(*args, **kwargs), result, self.counts)
        except (AttributeError, KeyError, TypeError):
            # the call or its result changed shape: report these counters missing
            for key in keys:
                if key not in self.missing:
                    self.missing.append(key)

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name: duration minus direct children."""
        child = [0.0] * len(self.spans)
        for name_id, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: 0.0 for name in self.names}
        for (name_id, start, end, _, _), inner in zip(self.spans, child):
            out[self.names[name_id]] += (end - start) - inner
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "missing": self.missing,
                       "fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh, separators=(",", ":"))


# Per-layer metrics, all per op of the traced run: (name, unit, better, the
# end-to-end metric and workload each is expected to move).
_IMG = "op_p50_ms on image"
_SRCH = "op_p50_ms on search"
_HOM = "op_p50_ms, op_p99_ms and ops_per_s on homology"
_GEOM = "op_p50_ms on search; on image at most its ~4% share"
_SU2 = "op_p50_ms on image and search"
PER_LAYER = (
    ("cli.main.self_s", "s/op", "lower", _IMG),
    ("render.self_s", "s/op", "lower", _IMG),
    ("solver.solve_at_meridian_angle.calls", "count/op", "lower",
     "op_p50_ms and ops_per_s on image, setup_s on search; flat on homology"),
    ("solver.solve_at_meridian_angle.self_s", "s/op", "lower",
     "op_p50_ms and ops_per_s on image, setup_s on search; flat on homology"),
    ("solver.restarts", "count/op", "lower", _IMG),
    ("solver.witnesses", "count/op", "higher", _IMG),
    ("solver.witness_ratio", "ratio", "higher", _IMG),
    ("solver.sample_pillowcase_image.self_s", "s/op", "lower", _IMG),
    ("geometry.min_distance_to.calls", "count/op", "lower", _IMG),
    ("geometry.min_distance_to.self_s", "s/op", "lower", _IMG),
    ("solver.reducible_lines.self_s", "s/op", "lower", _IMG),
    ("solver.refine_representation.calls", "count/op", "lower", _SRCH),
    ("solver.refine_representation.self_s", "s/op", "lower", _SRCH),
    ("solver.refine_representation.failed", "count/op", "lower", _SRCH),
    ("solver.refine_ok_ratio", "ratio", "higher", _SRCH),
    ("solver.extract_essential_curve.self_s", "s/op", "lower",
     _SRCH + "; small on image"),
    ("solver.find_surgery_representation.self_s", "s/op", "lower",
     _SRCH + "; small on image"),
    ("geometry.detailed_intersections.calls", "count/op", "lower", _GEOM),
    ("geometry.detailed_intersections.self_s", "s/op", "lower", _GEOM),
    ("geometry.segment_pairs", "count/op", "lower", _GEOM),
    ("geometry.crossings", "count/op", "lower", _GEOM),
    ("geometry.polyline_intersections.self_s", "s/op", "lower", _GEOM),
    ("geometry.essential_class.self_s", "s/op", "lower", _GEOM),
    ("geometry.pillowcase_distance.calls", "count/op", "lower", _GEOM),
    ("su2.relator_residual.calls", "count/op", "lower", _SU2),
    ("su2.relator_residual.self_s", "s/op", "lower", _SU2),
    ("su2.irreducibility_gap.calls", "count/op", "lower", _SU2),
    ("su2.irreducibility_gap.self_s", "s/op", "lower", _SU2),
    ("su2.boundary_angles.calls", "count/op", "lower", _SU2),
    ("su2.boundary_angles.self_s", "s/op", "lower", _SU2),
    ("su2.align_boundary_to_i_axis.calls", "count/op", "lower", _SU2),
    ("su2.align_boundary_to_i_axis.self_s", "s/op", "lower", _SU2),
    ("gluer.search_nonabelian_rep.calls", "count/op", "lower", _SRCH),
    ("gluer.search_nonabelian_rep.self_s", "s/op", "lower", _SRCH),
    ("gluer.candidates_refined", "count/op", "lower", _SRCH),
    ("gluer.found_ratio", "ratio", "higher", _SRCH),
    ("gluer.slope_line_certificates.self_s", "s/op", "lower", _SRCH),
    ("gluer.p_avoiding_certificate.self_s", "s/op", "lower", _SRCH),
    ("homology.smith_normal_form.calls", "count/op", "lower", _HOM),
    ("homology.smith_normal_form.self_s", "s/op", "lower", _HOM),
    ("homology.glue_homology.self_s", "s/op", "lower", _HOM),
    ("homology.filling_homology.self_s", "s/op", "lower", _HOM),
    ("homology.seifert_h1.self_s", "s/op", "lower", _HOM),
    ("homology.standard_form_reduce.self_s", "s/op", "lower", _HOM),
    ("cli.self_s", "s/op", "lower", _IMG),
    ("solver.self_s", "s/op", "lower", "op_p50_ms on image and search, setup_s on search"),
    ("su2.self_s", "s/op", "lower", _SU2),
    ("geometry.self_s", "s/op", "lower", _GEOM),
    ("gluer.self_s", "s/op", "lower", _SRCH),
    ("homology.self_s", "s/op", "lower", _HOM),
    ("trace.overhead_ratio", "ratio", "higher",
     "none: traced ops_per_s over untraced ops_per_s of the same run"),
)

# name -> (numerator, denominator, both per-layer names or tracer counters)
_RATIOS = {
    "solver.witness_ratio": ("solver.witnesses", "solver.restarts"),
    "solver.refine_ok_ratio": ("solver.refine_representation.ok",
                               "solver.refine_representation.calls"),
    "gluer.found_ratio": ("gluer.found", "gluer.search_nonabelian_rep.calls"),
}


def per_layer_metrics(tracer: Tracer, ops: int, overhead_ratio: float):
    """Per-op values of every PER_LAYER metric, and the names reported missing.

    A missing metric reads 0; so does a ratio whose denominator is 0 (the
    layer did no work on this workload).
    """
    selfs = tracer.self_times()
    counts = dict(tracer.counts)
    counts.update({f"{name}.calls": n for name, n in tracer.calls.items()})
    counts["solver.refine_representation.ok"] = (
        counts["solver.refine_representation.calls"]
        - counts["solver.refine_representation.failed"])
    gone = set(tracer.missing)
    gone.update(f"{name}.calls" for name in tracer.missing)
    if "solver.refine_representation" in gone:
        gone.add("solver.refine_representation.ok")

    def raw(name):
        """(total over the traced ops, missing?) for one metric name."""
        if name.endswith(".self_s"):
            span = name[:-len(".self_s")]
            if span in LAYERS:
                parts = [v for k, v in selfs.items() if k.startswith(span + ".")]
                return sum(parts), not parts
            return selfs.get(span, 0.0), span not in selfs
        return counts.get(name, 0), name in gone or name not in counts

    values, missing = {}, []
    for name, _, _, _ in PER_LAYER:
        if name == "trace.overhead_ratio":
            value, lost = overhead_ratio, False
        elif name in _RATIOS:
            (num, lost_num), (den, lost_den) = (raw(k) for k in _RATIOS[name])
            value, lost = (num / den if den else 0.0), lost_num or lost_den
        else:
            total, lost = raw(name)
            value = total / ops
        values[name] = 0.0 if lost else value
        if lost:
            missing.append(name)
    return values, missing
