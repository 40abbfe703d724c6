"""Outside-in tracing of the triphase layers.

The tracer replaces every public function of each traced module with a
wrapper that records a span: its name, the span that caused it, its
duration and its self time (duration minus the time its child spans
cover).  Calls inside a module look names up in the module's globals, so
replacing the module attribute also catches same-module calls.  Spans are
aggregated in memory per (caller, callee) edge and read out when the run
ends; no file of the library changes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from collections import Counter

LAYERS = ("su3", "states", "geodesics", "phases", "evolution", "checks", "cli")
ROOT_SPAN = "item"


class _Frame:
    __slots__ = ("name", "child_s", "notes")

    def __init__(self, name):
        self.name = name
        self.child_s = 0.0
        self.notes = None


def _argument(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _count_rows(tracer, frame, parent, args, kwargs, result):
    tracer.counters["states.n_vectors_of.rows"] += len(_argument(args, kwargs, 0, "psis"))


def _count_samples(tracer, frame, parent, args, kwargs, result):
    samples = sum(len(s) for s, _ in result)
    tracer.counters["geodesics.polygon_lift.samples"] += samples
    if parent.notes is None:
        parent.notes = []
    parent.notes.append(samples)


def _line_integral_pass(tracer, frame, parent, args, kwargs, result):
    # The first polygon_lift under the call is the coarse scan, the last one
    # the final pass at the adaptively chosen per_arc.
    if not frame.notes:
        return
    scan, final = frame.notes[0], frame.notes[-1]
    per_arc = final // len(args)
    tracer.counters["phases.line_integral.calls"] += 1
    tracer.counters["phases.line_integral.adaptive"] += per_arc > 2000
    tracer.counters["phases.line_integral.scan_samples"] += scan
    tracer.counters["phases.line_integral.final_samples"] += final


def _count_steps(key):
    def hook(tracer, frame, parent, args, kwargs, result):
        tracer.counters[key] += len(result.s) - 1

    return hook


def _count_output(tracer, frame, parent, args, kwargs, result):
    argv = _argument(args, kwargs, 0, "argv")
    path = argv[argv.index("--out") + 1]
    with open(path, "rb") as handle:
        data = handle.read()
    tracer.counters["cli.bytes_out"] += len(data)
    tracer.counters["cli.rows_out"] += data.count(b"\n")


HOOKS = {
    "states.n_vectors_of": _count_rows,
    "geodesics.polygon_lift": _count_samples,
    "phases.triangle_line_integral_phase": _line_integral_pass,
    "evolution.integrate_state": _count_steps("evolution.integrate_state.steps"),
    "evolution.integrate_nvector": _count_steps("evolution.integrate_nvector.steps"),
    "cli.main": _count_output,
}


class Tracer:
    """Span recorder for one traced run; install() patches, uninstall() restores."""

    def __init__(self):
        self.stack = [_Frame(ROOT_SPAN)]
        self.edges = {}
        self.counters = Counter()
        self._patched = []

    def _wrap(self, name, fn):
        stack, edges, clock = self.stack, self.edges, time.perf_counter
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = _Frame(name)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent.child_s += elapsed
                edge = edges.get((parent.name, name))
                if edge is None:
                    edge = edges[(parent.name, name)] = [0, 0.0, 0.0]
                edge[0] += 1
                edge[1] += elapsed
                edge[2] += elapsed - frame.child_s
            if hook is not None:
                hook(self, frame, parent, args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr, name):
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original))

    def install(self):
        for layer in LAYERS:
            module = importlib.import_module(f"triphase.{layer}")
            for attr, value in list(vars(module).items()):
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__ == module.__name__
                ):
                    self._patch(module, attr, f"{layer}.{attr}")
        geodesics = importlib.import_module("triphase.geodesics")
        self._patch(geodesics.HamiltonianCoeffs, "matrix", "geodesics.HamiltonianCoeffs.matrix")
        checks = importlib.import_module("triphase.checks")
        wrapped = tuple(getattr(checks, fn.__name__) for fn in checks.ALL_CHECKS)
        self._patched.append((checks, "ALL_CHECKS", checks.ALL_CHECKS))
        checks.ALL_CHECKS = wrapped

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def functions(self):
        """{name: [calls, total_s, self_s]} summed over callers."""
        totals = {}
        for (_, name), (calls, total, own) in self.edges.items():
            acc = totals.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += own
        return totals

    def spans(self):
        """Aggregated span edges as JSON-ready records."""
        return [
            {"caller": caller, "span": name, "calls": calls, "total_s": total, "self_s": own}
            for (caller, name), (calls, total, own) in sorted(self.edges.items())
        ]


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer, check_names):
    """Per-layer metrics of a traced run, every one present even when zero."""
    fns = tracer.functions()
    count = tracer.counters

    def calls(name):
        return fns.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return fns.get(name, [0, 0.0, 0.0])[1]

    def us_per(name, amount):
        return _ratio(total(name), amount) * 1e6

    self_s = {layer: 0.0 for layer in LAYERS}
    for name, (_, _, own) in fns.items():
        self_s[name.split(".", 1)[0]] += own

    m = {f"{layer}.self_s": (self_s[layer], "s") for layer in ("su3", "states", "geodesics")}
    for name in ("su3.star", "su3.wedge", "states.lift_of_density", "states.assert_on_O",
                 "geodesics.HamiltonianCoeffs.matrix",
                 "geodesics.geodesic_hamiltonian_family"):
        m[f"{name}.calls"] = (calls(name), "count")
    for name in ("su3.adjoint_of", "states.lift_of_density", "phases.bargmann_phase",
                 "phases.canonicalize_triangle", "phases.pancharatnam_phase_from_n"):
        m[f"{name}.us_per_call"] = (us_per(name, calls(name)), "us")
    line = "phases.triangle_line_integral_phase"
    scan = count["phases.line_integral.scan_samples"]
    final = count["phases.line_integral.final_samples"]
    m.update({
        "states.n_vectors_of.us_per_row": (
            us_per("states.n_vectors_of", count["states.n_vectors_of.rows"]), "us"),
        "geodesics.polygon_lift.samples": (count["geodesics.polygon_lift.samples"], "count"),
        "geodesics.polygon_lift.us_per_sample": (
            us_per("geodesics.polygon_lift", count["geodesics.polygon_lift.samples"]), "us"),
        "phases.self_s": (self_s["phases"], "s"),
        f"{line}.ms_per_call": (us_per(line, calls(line)) / 1e3, "ms"),
        "phases.line_integral.adaptive_frac": (
            _ratio(count["phases.line_integral.adaptive"],
                   count["phases.line_integral.calls"]), "ratio"),
        "phases.line_integral.useful_frac": (_ratio(final, scan + final), "ratio"),
        "evolution.self_s": (self_s["evolution"], "s"),
    })
    for picture in ("integrate_state", "integrate_nvector"):
        steps = count[f"evolution.{picture}.steps"]
        m[f"evolution.{picture}.steps"] = (steps, "count")
        m[f"evolution.{picture}.us_per_step"] = (us_per(f"evolution.{picture}", steps), "us")
    for name in check_names:
        m[f"checks.{name}.s"] = (total(f"checks.{name}"), "s")
    m["checks.self_s"] = (self_s["checks"], "s")
    m["cli.self_s"] = (self_s["cli"], "s")
    m["cli.bytes_out"] = (count["cli.bytes_out"], "bytes")
    m["cli.render_us_per_row"] = (_ratio(self_s["cli"], count["cli.rows_out"]) * 1e6, "us")
    return m


def write_spans(tracer, path):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump({"spans": tracer.spans(), "counters": dict(tracer.counters)}, handle, indent=1)
