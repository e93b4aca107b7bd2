"""In-memory span tracing of the dmcp layers, installed from outside the package.

Every public function of every dmcp module is wrapped where it is looked up:
`dmcp.robustness.compose_grid` is a binding of its own, separate from
`dmcp.dynamics.compose_grid`, so both bindings are replaced by the same wrapper.
A span is named after the module that defines the function
(`dynamics.compose_grid`), except for foreign functions such as scipy's `expm`,
which are named after the module that binds them (`dynamics.expm`,
`nlevel.expm`). Spans record their parent, so self time is a span's duration
minus the union of its children's intervals.

Spans stay in memory until `Tracer.layer_metrics` summarises them.
"""
from __future__ import annotations

import functools
import threading
import time
import types
from collections import defaultdict

MODULES = ("dynamics", "synthesis", "catalog", "robustness", "nlevel", "photonics", "cli")
FOREIGN = {"dynamics": ("expm",), "nlevel": ("expm",)}
METHODS = {"robustness": {"ScanResult": ("to_csv", "to_json")}}


def _cells(args, kwargs, out):
    import numpy as np

    shapes = [np.shape(kwargs.get(k, 0.0)) for k in ("area_scale", "coupling_frac", "detuning_frac")]
    cells = int(np.prod(np.broadcast_shapes(*shapes), dtype=np.int64))
    segments = len(args[0].segments) if args else len(kwargs["seq"].segments)
    # cells x segments x (step, product input, product output), 2x2 complex128 = 64 B each
    return {"cells": cells, "bytes_computed": cells * segments * 3 * 64}


def _text_bytes(args, kwargs, out):
    return {"bytes": len(out)}


def _values(args, kwargs, out):
    return {"values": int(out.values.size)}


COUNTERS = {
    "dynamics.compose_grid": _cells,
    "robustness.ScanResult.to_csv": _text_bytes,
    "robustness.ScanResult.to_json": _text_bytes,
    "photonics.intensity_csv": _text_bytes,
    "robustness.area_scan": _values,
    "robustness.scan_2d": _values,
    "robustness.decoherence_scan": _values,
}


class Tracer:
    """Records spans of wrapped dmcp calls while `recording` is set."""

    def __init__(self):
        self.spans = []  # (id, parent, name, t0, t1, ok, counts)
        self.recording = False
        self._local = threading.local()
        self._main_stack = None
        self._next_id = 0
        self._id_lock = threading.Lock()
        self._patches = []  # (owner, attribute, original)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            if threading.current_thread() is threading.main_thread():
                self._main_stack = stack
        return stack

    def wrap(self, fn, name):
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            with tracer._id_lock:
                sid = tracer._next_id
                tracer._next_id += 1
            if stack:
                parent = stack[-1]
            else:
                # a pool thread: its caller is the innermost open span of the main thread
                main = tracer._main_stack
                parent = main[-1] if main else None
            stack.append(sid)
            ok = False
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                t1 = time.perf_counter()
                stack.pop()
                counts = counter(args, kwargs, out) if (ok and counter) else None
                tracer.spans.append((sid, parent, name, t0, t1, ok, counts))

        return traced

    def install(self):
        """Replace every binding of a public dmcp function by its traced wrapper."""
        import importlib

        pkg = importlib.import_module("dmcp")
        modules = {m: importlib.import_module(f"dmcp.{m}") for m in MODULES}
        wrappers = {}
        for owner_name, owner in [("dmcp", pkg), *modules.items()]:
            for attr, value in list(vars(owner).items()):
                if not isinstance(value, types.FunctionType) or attr.startswith("_"):
                    continue
                if attr in FOREIGN.get(owner_name, ()):
                    name = f"{owner_name}.{attr}"
                    self._patch(owner, attr, self.wrap(value, name))
                    continue
                home = value.__module__.rpartition(".")[2]
                if not value.__module__.startswith("dmcp.") or home not in modules:
                    continue
                public = getattr(modules[home], "__all__", None)
                if value.__name__.startswith("_") or (public is not None and value.__name__ not in public):
                    continue
                if value not in wrappers:
                    wrappers[value] = self.wrap(value, f"{home}.{value.__name__}")
                self._patch(owner, attr, wrappers[value])
        for mod_name, classes in METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(modules[mod_name], cls_name)
                for meth in methods:
                    self._patch(cls, meth, self.wrap(getattr(cls, meth), f"{mod_name}.{cls_name}.{meth}"))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def layer_metrics(self, window_s: float) -> dict[str, float]:
        """Per-layer counts and self times over the recorded spans.

        window_s is the total time during which recording was on; the part of
        it no top-level span covers is reported as `bench.unattributed_s`.
        """
        children = defaultdict(list)
        by_id = {}
        for span in self.spans:
            by_id[span[0]] = span
            children[span[1]].append(span)
        calls = defaultdict(int)
        failures = defaultdict(int)
        self_s = defaultdict(float)
        counts = defaultdict(float)
        for sid, _, name, t0, t1, ok, extra in self.spans:
            calls[name] += 1
            failures[name] += not ok
            self_s[name] += (t1 - t0) - _union([(c[3], c[4]) for c in children[sid]])
            for key, value in (extra or {}).items():
                counts[f"{name}.{key}"] += value

        def under(span, ancestor_name):
            parent = by_id.get(span[1])
            while parent is not None:
                if parent[2] == ancestor_name:
                    return True
                parent = by_id.get(parent[1])
            return False

        kernels = ("dynamics.compose_grid", "nlevel.nlevel_propagator")
        probe_calls = probe_values = pp_in_solve = 0
        for span in self.spans:
            if span[2] in kernels and under(span, "robustness.robustness_radius"):
                probe_calls += 1
                probe_values += span[6]["cells"] if span[2] == kernels[0] and span[6] else 1
            elif span[2] == "synthesis.pp_residuals" and under(span, "synthesis.solve_pp"):
                pp_in_solve += 1

        def ratio(num, den):
            return num / den if den else 0.0

        grid_calls = calls["dynamics.compose_grid"]
        solves = calls["synthesis.solve_pp"]
        attributed = _union([(s[3], s[4]) for s in children[None]])
        metrics = {
            "dynamics.compose_grid.calls": grid_calls,
            "dynamics.compose_grid.cells": counts["dynamics.compose_grid.cells"],
            "dynamics.compose_grid.cells_per_call": ratio(counts["dynamics.compose_grid.cells"], grid_calls),
            "dynamics.compose_grid.self_s": self_s["dynamics.compose_grid"],
            "dynamics.compose_grid.bytes_computed": counts["dynamics.compose_grid.bytes_computed"],
            "dynamics.compose.calls": calls["dynamics.compose"],
            "dynamics.compose.self_s": self_s["dynamics.compose"],
            "dynamics.segment_propagator.calls": calls["dynamics.segment_propagator"],
            "dynamics.bloch_trajectory.self_s": self_s["dynamics.bloch_trajectory"],
            "dynamics.expm.calls": calls["dynamics.expm"],
            "dynamics.expm.self_s": self_s["dynamics.expm"],
            "robustness.scan_2d.self_s": self_s["robustness.scan_2d"],
            "robustness.area_scan.self_s": self_s["robustness.area_scan"],
            "robustness.robustness_radius.self_s": self_s["robustness.robustness_radius"],
            "robustness.robustness_radius.probe_calls": probe_calls,
            "robustness.decoherence_scan.self_s": self_s["robustness.decoherence_scan"],
            "robustness.values": probe_values + sum(
                counts[f"robustness.{f}.values"] for f in ("area_scan", "scan_2d", "decoherence_scan")
            ),
            "robustness.ScanResult.to_csv.self_s": self_s["robustness.ScanResult.to_csv"],
            "robustness.ScanResult.to_csv.bytes": counts["robustness.ScanResult.to_csv.bytes"],
            "robustness.ScanResult.to_json.self_s": self_s["robustness.ScanResult.to_json"],
            "robustness.ScanResult.to_json.bytes": counts["robustness.ScanResult.to_json.bytes"],
            "synthesis.solve_pp.calls": solves,
            "synthesis.solve_pp.self_s": self_s["synthesis.solve_pp"],
            "synthesis.solve_pp.converged_ratio": ratio(solves - failures["synthesis.solve_pp"], solves),
            "synthesis.pp_residuals.calls": calls["synthesis.pp_residuals"],
            "synthesis.pp_residuals.self_s": self_s["synthesis.pp_residuals"],
            "synthesis.pp_residuals.per_solve": ratio(pp_in_solve, solves),
            "synthesis.verify_sequence.self_s": self_s["synthesis.verify_sequence"],
            "catalog.derived_sequence.calls": calls["catalog.derived_sequence"],
            "catalog.derived_sequence.self_s": self_s["catalog.derived_sequence"],
            "nlevel.nlevel_propagator.calls": calls["nlevel.nlevel_propagator"],
            "nlevel.nlevel_propagator.self_s": self_s["nlevel.nlevel_propagator"],
            "nlevel.expm.calls": calls["nlevel.expm"],
            "nlevel.expm.self_s": self_s["nlevel.expm"],
            "nlevel.population_trajectory.self_s": self_s["nlevel.population_trajectory"],
            "nlevel.wigner_lift.calls": calls["nlevel.wigner_lift"],
            "nlevel.wigner_lift.self_s": self_s["nlevel.wigner_lift"],
            "nlevel.wigner_lift.failures": failures["nlevel.wigner_lift"],
            "photonics.layout_from_sequence.self_s": self_s["photonics.layout_from_sequence"],
            "photonics.widths_for_ratio.calls": calls["photonics.widths_for_ratio"],
            "photonics.propagate_intensity.self_s": self_s["photonics.propagate_intensity"],
            "photonics.intensity_csv.self_s": self_s["photonics.intensity_csv"],
            "photonics.intensity_csv.bytes": counts["photonics.intensity_csv.bytes"],
            "cli.main.calls": calls["cli.main"],
            "cli.main.self_s": self_s["cli.main"],
            "bench.unattributed_s": window_s - attributed,
            # time two threads spent inside spans at once (scan grid2d's pool),
            # which makes the self times add up to more than the window
            "bench.parallel_s": sum(self_s.values()) - attributed,
        }
        reported = {k[: -len(".self_s")] for k in metrics if k.endswith(".self_s")}
        metrics["bench.other_layers.self_s"] = sum(v for k, v in self_s.items() if k not in reported)
        return {k: float(v) for k, v in metrics.items()}


def _union(intervals) -> float:
    total = 0.0
    end = float("-inf")
    for t0, t1 in sorted(intervals):
        if t1 <= end:
            continue
        total += t1 - max(t0, end)
        end = t1
    return total
