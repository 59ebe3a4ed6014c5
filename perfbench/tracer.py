"""Span tracing of parafield from outside the package.

``install()`` wraps the public functions of every parafield module, a
few methods on their classes, numpy's 2-d FFTs and the assignment
solver used by ``measures``.  A wrapped function is replaced in every
parafield namespace that holds it, so names imported with
``from .x import y`` are traced too.  Spans are held in memory as
columns (name, start, end, parent, work, flop) and handed over once,
by ``Tracer.dump``.  ``summarize`` turns the spans of one run into the
benchmark's per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import time
from array import array

MODULES = ("torus", "littlewood_paley", "bony", "heat", "noise",
           "interactions", "paracontrolled", "solver", "measures",
           "experiments")


def _planes(a) -> int:
    shape = getattr(a, "shape", ())
    return math.prod(shape[:-2]) if len(shape) >= 2 else 1


def _fft_flop(args, kwargs, out) -> float:
    # 5 N^2 log2(N^2) per plane, the usual radix-2 operation count
    n2 = out.shape[-1] * out.shape[-2]
    return 5.0 * n2 * math.log2(n2) * _planes(out)


def _field_planes(args, kwargs, out) -> int:
    u = args[0]
    return _planes(getattr(u, "values", u))


# work recorded per span, by span name; each takes (args, kwargs, result)
WORK = {
    "torus.fft": lambda a, k, out: _planes(out),
    "heat.etd_step": _field_planes,
    "interactions.eval_f": lambda a, k, out: len(a[2]),
    "interactions.eval_partial": lambda a, k, out: len(a[3]),
    "interactions.eval_g": lambda a, k, out: len(a[2]),
    "torus.write_pfld": lambda a, k, out: os.path.getsize(a[0]),
    "solver.solve_mean_field": lambda a, k, out: out[1],
}
FLOP = {"torus.fft": _fft_flop}


class Tracer:
    """Records nested spans of wrapped calls in one thread."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.work = array("d")
        self.flop = array("d")
        self._stack = [-1]

    def wrap(self, span_name: str, fn):
        if span_name not in self.names:
            self.names.append(span_name)
        nid = self.names.index(span_name)
        work = WORK.get(span_name)
        flop = FLOP.get(span_name)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1])
            self.end.append(0.0)
            self.work.append(0.0)
            self.flop.append(0.0)
            stack.append(i)
            self.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                stack.pop()
            if work is not None:
                self.work[i] = work(args, kwargs, out)
            if flop is not None:
                self.flop[i] = flop(args, kwargs, out)
            return out

        return traced

    def dump(self) -> dict:
        return {"names": self.names, "name": self.name.tolist(),
                "start": self.start.tolist(), "end": self.end.tolist(),
                "parent": self.parent.tolist(), "work": self.work.tolist(),
                "flop": self.flop.tolist()}


def _replace_everywhere(modules, old, new):
    for mod in modules:
        for key, val in list(vars(mod).items()):
            if val is old:
                setattr(mod, key, new)


def install() -> Tracer:
    """Wrap parafield, numpy's fft2/ifft2 and the assignment solver."""
    import importlib

    import numpy as np

    import parafield

    tracer = Tracer()
    mods = {m: importlib.import_module(f"parafield.{m}") for m in MODULES}
    namespaces = [parafield, *mods.values()]
    for short, mod in mods.items():
        for key, fn in list(vars(mod).items()):
            if (key.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__):
                continue
            _replace_everywhere(namespaces, fn,
                                tracer.wrap(f"{short}.{key}", fn))

    methods = [(mods["torus"].Field, "__init__", "torus.field_new"),
               (mods["littlewood_paley"].DyadicPartition, "block_fields",
                "littlewood_paley.block_fields"),
               (mods["interactions"].EmpiricalMeasure, "values",
                "interactions.measure_values")]
    for cls, attr, span_name in methods:
        setattr(cls, attr, tracer.wrap(span_name, getattr(cls, attr)))

    np.fft.fft2 = tracer.wrap("torus.fft", np.fft.fft2)
    np.fft.ifft2 = tracer.wrap("torus.fft", np.fft.ifft2)
    measures = mods["measures"]
    measures.linear_sum_assignment = tracer.wrap(
        "measures.assignment", measures.linear_sum_assignment)
    registry = mods["experiments"].EXPERIMENTS
    for key, fn in registry.items():
        registry[key] = tracer.wrap("experiments.pipeline", fn)
    return tracer


# per-layer metrics reported as (calls, self seconds)
TIMED = [
    "torus.fft", "torus.field_new", "torus.pointwise_product",
    "torus.write_pfld", "littlewood_paley.block_fields",
    "bony.para", "bony.resonant", "bony.corrector",
    "heat.etd_step", "heat.duhamel", "heat.semigroup",
    "noise.sample_noise", "noise.mollify", "noise.renorm_constant",
    "noise.enhance", "noise.mean_field_enhance",
    "interactions.eval_f", "interactions.eval_partial",
    "interactions.eval_g", "interactions.measure_values",
    "paracontrolled.pc_product", "paracontrolled.paralinearize_f",
    "paracontrolled.decompose", "paracontrolled.reconstruct",
    "measures.wasserstein", "measures.ground_distance_matrix",
    "measures.assignment", "experiments.pipeline",
]
ENHANCERS = ("noise.enhance", "noise.mean_field_enhance")
EVALS = ("interactions.eval_f", "interactions.eval_partial",
         "interactions.eval_g")


def summarize(spans: dict) -> dict:
    """Per-layer counts and self times of one traced run."""
    names = spans["names"]
    name = [names[i] for i in spans["name"]]
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    work, flop = spans["work"], spans["flop"]
    n = len(name)
    covered = [0.0] * n
    in_enhance = [False] * n
    in_eval = [False] * n
    for i in range(n):  # a parent span is always recorded before its children
        p = parent[i]
        if p >= 0:
            covered[p] += end[i] - start[i]
            in_enhance[i] = in_enhance[p] or name[p] in ENHANCERS
            in_eval[i] = in_eval[p] or name[p] in EVALS
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    work_sum: dict[str, float] = {}
    flop_sum = 0.0
    resonant_in_enhance = 0
    atom_evals = 0.0
    for i in range(n):
        nm = name[i]
        calls[nm] = calls.get(nm, 0) + 1
        self_s[nm] = self_s.get(nm, 0.0) + (end[i] - start[i] - covered[i])
        work_sum[nm] = work_sum.get(nm, 0.0) + work[i]
        flop_sum += flop[i]
        if nm == "bony.resonant" and in_enhance[i]:
            resonant_in_enhance += 1
        if nm in EVALS and not in_eval[i]:
            atom_evals += work[i]

    out = {}
    for nm in TIMED:
        out[f"{nm}.calls"] = calls.get(nm, 0)
        out[f"{nm}.self_s"] = self_s.get(nm, 0.0)
    out["torus.fft.planes"] = int(work_sum.get("torus.fft", 0))
    out["torus.fft.mflop_computed"] = flop_sum / 1e6
    out["torus.write_pfld.bytes"] = int(work_sum.get("torus.write_pfld", 0))
    out["heat.etd_step.field_steps"] = int(work_sum.get("heat.etd_step", 0))
    out["noise.enhance.resonant_calls"] = resonant_in_enhance
    out["interactions.atom_evals"] = int(atom_evals)
    out["solver.self_s"] = sum(v for k, v in self_s.items()
                               if k.startswith("solver.solve_"))
    out["solver.picard_iterations"] = int(
        work_sum.get("solver.solve_mean_field", 0))
    # run_experiment's own time is writing the CSV and JSON outputs
    out["experiments.write.calls"] = calls.get("experiments.run_experiment", 0)
    out["experiments.write.self_s"] = self_s.get(
        "experiments.run_experiment", 0.0)
    return out
