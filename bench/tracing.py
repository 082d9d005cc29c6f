"""Span tracing of the sgrpsim layers, applied from outside the package.

Every public function of a layer module, and every public method of the
classes it defines, is replaced by a wrapper wherever the original is looked
up: in its own module and in each ``sgrpsim`` module that imported it by
name. A wrapper records one span per call (name, start, end, parent) in flat
arrays kept in memory; per-name totals and self times (a span's duration
minus its child spans) are computed after the run. Span names are
``<layer>.<function>``, so ``PowerLawHazard.rate`` and ``ConstantHazard.rate``
both count as ``hazards.rate``.

``CountingRNG`` wraps a ``numpy.random.Generator`` and counts the variates
each method draws without changing them.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

#: The modules of the package, which are the benchmark's layers.
LAYERS = ("cli", "superpose", "repair", "hazards", "rng", "simulate",
          "bounds", "approx", "stats", "io")

#: Sampler entry points whose return value is a trajectory; their event
#: counts give the per-event costs.
SAMPLERS = ("superpose.simulate_sgrp", "simulate.simulate_algorithm1",
            "simulate.simulate_thinning")


class CountingRNG:
    """Forward every call to a Generator, counting calls and variates per method.

    The variates are the generator's own, so a run driven through the proxy
    produces the same trajectory as a run driven by the plain generator.
    """

    def __init__(self, gen):
        self._gen = gen
        self.calls = Counter()
        self.draws = 0

    def __getattr__(self, name):
        attr = getattr(self._gen, name)
        if name.startswith("_") or not callable(attr):
            return attr

        def counted(*args, **kwargs):
            out = attr(*args, **kwargs)
            self.calls[name] += 1
            self.draws += int(np.size(out))
            return out

        setattr(self, name, counted)  # later lookups skip __getattr__
        return counted


def _public_callables(module):
    """(name, function, owning class or None) for a module's public functions and methods."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name, None)
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj, None
        elif inspect.isclass(obj):
            for attr, val in vars(obj).items():
                if not attr.startswith("_") and inspect.isfunction(val):
                    yield attr, val, obj


class Tracer:
    """Span recorder plus the per-call counters the benchmark reports."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self.counts = Counter()  # span name -> units of work (see _UNITS)
        self.rngs = []  # counting proxies handed out by rng.stream_rng

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn):
        """A span-recording wrapper around ``fn``, named ``name``."""
        nid = self._id(name)
        stack = self._stack
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        units = _UNITS.get(name)
        counts = self.counts
        proxy_result = name == "rng.stream_rng"

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if units is not None:
                counts[name] += units(args, result)
            if proxy_result:
                result = CountingRNG(result)
                self.rngs.append(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    # -- aggregation -------------------------------------------------------

    def arrays(self):
        """Spans as numpy arrays: (name_id, parent, start, end)."""
        return (np.frombuffer(self.name_id, dtype=np.int32).copy(),
                np.frombuffer(self.parent, dtype=np.int32).copy(),
                np.frombuffer(self.start, dtype=np.float64).copy(),
                np.frombuffer(self.end, dtype=np.float64).copy())

    def summary(self):
        """Per name: calls, inclusive seconds and self seconds."""
        name_id, parent, start, end = self.arrays()
        dur = end - start
        child = np.zeros(dur.size)
        has_parent = parent >= 0
        if dur.size:
            np.add.at(child, parent[has_parent], dur[has_parent])
        self_s = dur - child
        k = len(self.names)
        calls = np.bincount(name_id, minlength=k)
        total = np.bincount(name_id, weights=dur, minlength=k)
        own = np.bincount(name_id, weights=self_s, minlength=k)
        return {name: {"calls": int(calls[i]), "s": float(total[i]),
                       "self_s": float(own[i])}
                for i, name in enumerate(self.names)}

    def outermost_s(self, names):
        """Seconds inside spans named in ``names`` that no such span encloses."""
        ids = {self._ids[n] for n in names if n in self._ids}
        if not ids:
            return 0.0
        name_id, parent, start, end = self.arrays()
        member = np.isin(name_id, list(ids))
        enclosed = np.zeros(name_id.size, dtype=bool)
        for i in np.flatnonzero(member):
            p = parent[i]
            while p >= 0:
                if member[p]:
                    enclosed[i] = True
                    break
                p = parent[p]
        keep = member & ~enclosed
        return float(np.sum(end[keep] - start[keep]))

    def save(self, path):
        """Write the spans and the name table to an ``.npz`` file."""
        name_id, parent, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=name_id,
                            parent=parent, start=start, end=end)


#: Units of work per call, accumulated in ``Tracer.counts`` by span name:
#: history length, rate elements, events, table rows or intervals.
_UNITS = {
    "repair.effective_age_offset": lambda args, result: len(args[1]),
    "hazards.rate": lambda args, result: int(np.size(args[1])),
    "superpose.true_intensity_at_events": lambda args, result: len(result),
    "bounds.sgrp_bounds_at_events": lambda args, result: len(result[0]),
    "io.write_bounds_csv": lambda args, result: len(args[1]),
    "stats.rescaled_residuals": lambda args, result: len(result),
    **{name: (lambda args, result: len(result)) for name in SAMPLERS},
}


def package_modules():
    """The loaded ``sgrpsim`` modules, importing every layer first."""
    for layer in LAYERS:
        importlib.import_module(f"sgrpsim.{layer}")
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "sgrpsim" or name.startswith("sgrpsim."))]


@contextmanager
def traced(tracer):
    """Patch every layer's public callables with span wrappers; restore on exit."""
    modules = package_modules()
    wrappers = {}  # id(original) -> (original, wrapper)
    patches = []  # (owner, attribute, original)
    for layer in LAYERS:
        for attr, fn, owner in _public_callables(sys.modules[f"sgrpsim.{layer}"]):
            wrappers[id(fn)] = (fn, tracer.wrap(f"{layer}.{attr}", fn))
            if owner is not None:
                patches.append((owner, attr, fn))
    # a module-level function is patched in every module that imported it by name
    for module in modules:
        for attr, val in vars(module).items():
            entry = wrappers.get(id(val))
            if entry is not None and entry[0] is val:
                patches.append((module, attr, val))
    for owner, attr, fn in patches:
        setattr(owner, attr, wrappers[id(fn)][1])
    try:
        yield tracer
    finally:
        for owner, attr, fn in reversed(patches):
            setattr(owner, attr, fn)
