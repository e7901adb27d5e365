"""In-memory span tracing of wiretaplab's layers, installed from outside.

The tracer wraps each module's public functions at every name a caller looks
them up by: the defining module, the package namespace, and the modules that
imported them (``lpn`` holds its own ``encode``, ``decode_ml`` and
``mat_vec_mul``; ``infometrics`` its own ``normal_cdf``).  ``PrngStream``
methods and ``BitMatrix.transpose`` are patched on the class.  Each call
keeps a span [name, parent, start_ns, end_ns]; self time and counts per
layer are derived from the spans after the traced phase.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
import types

LAYERS = ("prng", "gf2", "channels", "infometrics", "coset", "lpn", "cli")

# Private functions worth a span of their own: the MC posterior is the cost
# the mc workloads are chosen for.
EXTRA = {"coset": ("_posterior_entropy_bits",)}
CLASS_METHODS = {
    ("prng", "PrngStream"): ("next_bits", "bernoulli", "gaussian", "substream"),
    ("gf2", "BitMatrix"): ("transpose",),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.bits = 0  # stream bits handed out by PrngStream.next_bits
        self._current = -1
        self._undo = []
        self.c_in = 0.0  # ns a span adds inside its own interval
        self.c_out = 0.0  # ns a span adds to its caller outside its interval

    def _wrap(self, fn, name, count_bits=False):
        spans = self.spans
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer._current
            record = [name, parent, 0, 0]
            tracer._current = len(spans)
            spans.append(record)
            if count_bits:
                tracer.bits += args[1]
            record[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = clock()
                tracer._current = parent

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = [sys.modules["wiretaplab"]] + [
            importlib.import_module(f"wiretaplab.{layer}") for layer in LAYERS
        ]
        # cli is timed whole, by fresh-interpreter launches; it only holds references.
        for layer, module in zip(LAYERS[:-1], modules[1:]):
            for name in tuple(module.__all__) + EXTRA.get(layer, ()):
                fn = module.__dict__.get(name)
                if not isinstance(fn, types.FunctionType) or fn.__module__ != module.__name__:
                    continue
                traced = self._wrap(fn, f"{layer}.{name}")
                for holder in modules:
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, attr, traced)
                            self._undo.append((holder, attr, fn))
        for (layer, cls_name), methods in CLASS_METHODS.items():
            cls = getattr(importlib.import_module(f"wiretaplab.{layer}"), cls_name)
            for method in methods:
                fn = cls.__dict__[method]
                traced = self._wrap(fn, f"{layer}.{cls_name}.{method}", method == "next_bits")
                setattr(cls, method, traced)
                self._undo.append((cls, method, fn))

    def uninstall(self):
        for holder, attr, fn in reversed(self._undo):
            setattr(holder, attr, fn)
        self._undo.clear()

    def reset(self):
        self.spans.clear()
        self.bits = 0
        self._current = -1

    def calibrate(self, calls=20000, repeats=5):
        """Measure the per-span cost so self times can be corrected for it."""

        def noop(a, b):
            return None

        traced = self._wrap(noop, "calibrate.noop")
        inner, outer = [], []
        for _ in range(repeats):
            self.reset()
            start = time.perf_counter_ns()
            for i in range(calls):
                noop(self, i)
            plain = time.perf_counter_ns() - start
            start = time.perf_counter_ns()
            for i in range(calls):
                traced(self, i)
            wrapped = time.perf_counter_ns() - start
            c_in = statistics.median(end - begin for _, _, begin, end in self.spans)
            inner.append(c_in)
            outer.append(max((wrapped - plain) / calls - c_in, 0.0))
        self.c_in = statistics.median(inner)
        self.c_out = statistics.median(outer)
        self.reset()

    def analyse(self, cost_scale=1.0):
        """Per-span corrected self and inclusive times (ns), per-name and
        per-layer aggregates, and the total tracing cost in ns; the span cost
        is the calibrated one times cost_scale."""
        spans = self.spans
        count = len(spans)
        c_in, c_out = self.c_in * cost_scale, self.c_out * cost_scale
        child_ns = [0] * count
        children = [0] * count
        for name, parent, start, end in spans:
            if parent >= 0:
                child_ns[parent] += end - start
                children[parent] += 1
        self_ns = [
            max(end - start - child_ns[i] - children[i] * c_out - c_in, 0.0)
            for i, (_, _, start, end) in enumerate(spans)
        ]
        inclusive = list(self_ns)
        for i in range(count - 1, -1, -1):
            parent = spans[i][1]
            if parent >= 0:
                inclusive[parent] += inclusive[i]
        by_name = {}
        by_layer = {layer: {"self_ns": 0.0, "entries": 0} for layer in LAYERS}
        for i, (name, parent, _, _) in enumerate(spans):
            entry = by_name.setdefault(name, {"calls": 0, "self_ns": 0.0, "inclusive_ns": 0.0})
            entry["calls"] += 1
            entry["self_ns"] += self_ns[i]
            entry["inclusive_ns"] += inclusive[i]
            layer = name.split(".", 1)[0]
            by_layer[layer]["self_ns"] += self_ns[i]
            if parent < 0 or spans[parent][0].split(".", 1)[0] != layer:
                by_layer[layer]["entries"] += 1
        return by_name, by_layer, count * (c_in + c_out)
