"""Spans around reconkit's layer boundaries, recorded from outside the package.

``installed(tracer)`` wraps ``LinearMap.apply``/``adjoint`` at class level and
the public functions of the ``variational``, ``direct``, ``phantoms``,
``grids``, ``io`` and ``cli`` modules (and the operator constructors), in
every reconkit module that binds them by name, then restores the originals.
Spans live in memory as ``(id, parent id, name, start ns, end ns, self ns)``
and are written out by the caller when the run ends.  A span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time
import weakref
from contextlib import contextmanager

LAYERS = ("operators", "variational", "direct", "phantoms", "grids", "io", "cli")

# Validation helper run inside every LinearMap call; its time stays in the
# operator's own self time instead of doubling the span count.
SKIPPED = frozenset({"grids.as_array"})

SOLVER_KINDS = {
    "conjugate_gradient_normal": "cg",
    "gradient_descent": "gd",
    "ista": "ista",
    "admm": "admm",
}


def operator_kind(name: str) -> str:
    """Metric-safe operator kind: ``mask*convolve_circular`` -> ``mask_convolve_circular``."""
    return name.replace("*", "_")


class Tracer:
    def __init__(self):
        self.spans = []
        self.solves = []  # (span id, solver kind, iterations, converged)
        self.first_calls = set()  # span ids of each operator instance's first call
        self.operator_bytes = {}  # kind -> computed bytes in + out of one apply
        self.composite_kinds = set()  # kinds built by op_compose
        self.radon_geometries = []  # (angles, detectors, height, width)
        self._seen = weakref.WeakSet()
        self._stack = []
        self._next_id = 1
        self._clock = time.perf_counter_ns

    def call(self, name, fn, args, kwargs):
        sid = self._next_id
        self._next_id += 1
        frame = [sid, 0]
        self._stack.append(frame)
        start = self._clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self._clock()
            self._stack.pop()
            dur = end - start
            parent = 0
            if self._stack:
                parent = self._stack[-1][0]
                self._stack[-1][1] += dur
            self.spans.append((sid, parent, name, start, end, dur - frame[1]))

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, start, end, self_ns in self.spans:
                fh.write(json.dumps([sid, parent, name, start, end, self_ns]) + "\n")


def _function_wrapper(tracer, name, fn, observe=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if observe is None:
            return tracer.call(name, fn, args, kwargs)
        sid = tracer._next_id
        result = tracer.call(name, fn, args, kwargs)
        observe(sid, args, kwargs, result)
        return result

    return traced


def _operator_wrapper(tracer, side, fn):
    names = {}

    @functools.wraps(fn)
    def traced(self, *args, **kwargs):
        name = names.get(self.name)
        if name is None:
            name = names[self.name] = f"operators.{operator_kind(self.name)}.{side}"
            if "*" in self.name:
                tracer.composite_kinds.add(operator_kind(self.name))
        if self in tracer._seen:
            return tracer.call(name, fn, (self,) + args, kwargs)
        tracer._seen.add(self)
        tracer.first_calls.add(tracer._next_id)
        nbytes = math.prod(self.domain_shape) * (16 if self.domain_complex else 8) + math.prod(
            self.range_shape
        ) * (16 if self.range_complex else 8)
        kind = operator_kind(self.name)
        tracer.operator_bytes[kind] = max(tracer.operator_bytes.get(kind, 0), nbytes)
        return tracer.call(name, fn, (self,) + args, kwargs)

    return traced


def _observers(tracer):
    def solve(kind):
        def observe(sid, args, kwargs, report):
            accelerate = kwargs.get("accelerate", len(args) > 2 and args[2])
            name = "fista" if kind == "ista" and accelerate else kind
            tracer.solves.append((sid, name, report.iterations, report.converged))

        return observe

    def radon(sid, args, kwargs, op):
        tracer.radon_geometries.append(op.range_shape + op.domain_shape)

    observers = {f"variational.{fn}": solve(kind) for fn, kind in SOLVER_KINDS.items()}
    observers["operators.op_radon"] = radon
    return observers


@contextmanager
def installed(tracer: Tracer):
    """Route reconkit's layer boundaries through ``tracer`` while active."""
    modules = [importlib.import_module(f"reconkit.{layer}") for layer in LAYERS]
    from reconkit.operators import LinearMap

    bound = [
        m for n, m in sorted(sys.modules.items()) if n == "reconkit" or n.startswith("reconkit.")
    ]
    observers = _observers(tracer)
    patches = []
    try:
        for layer, module in zip(LAYERS, modules):
            for attr, fn in sorted(vars(module).items()):
                name = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or name in SKIPPED
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                ):
                    continue
                wrapper = _function_wrapper(tracer, name, fn, observers.get(name))
                for owner in bound:
                    for key, value in list(vars(owner).items()):
                        if value is fn:
                            patches.append((owner, key, fn))
                            setattr(owner, key, wrapper)
        for side in ("apply", "adjoint"):
            original = LinearMap.__dict__[side]
            patches.append((LinearMap, side, original))
            setattr(LinearMap, side, _operator_wrapper(tracer, side, original))
        yield tracer
    finally:
        for owner, key, original in reversed(patches):
            setattr(owner, key, original)
