"""Per-layer tracing of the package from outside it.

A Tracer wraps every public function of each layer module (network, tap,
kkt, projection, driver, cli) and rebinds the wrapper on every module of the
package that holds the original, so calls through `from .tap import
solve_tap` are seen as well.  `oracles` is a reference for the checks and is
never wrapped.  Each call records a span (name, start, end, parent) in
memory; uninstall() puts every original object back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from dataclasses import dataclass

LAYERS = ("network", "tap", "kkt", "projection", "driver", "cli")


@dataclass
class Span:
    name: str        # "<layer>.<function>"
    start: float
    end: float
    parent: int      # index of the enclosing span, -1 at the top


def load_layers(package="odadjust"):
    """Import every layer module; returns them in LAYERS order."""
    return [importlib.import_module("%s.%s" % (package, layer)) for layer in LAYERS]


def package_bindings(package="odadjust"):
    """Every (module, attribute, object) of the package's loaded modules."""
    out = []
    for name, mod in sorted(sys.modules.items()):
        if mod is not None and (name == package or name.startswith(package + ".")):
            out.extend((mod, attr, obj) for attr, obj in vars(mod).items())
    return out


class Tracer:
    """Records spans for calls into the package while installed."""

    def __init__(self, on_return=None):
        self.spans = []
        self._stack = []
        self._saved = []
        # "<layer>.<function>" -> callable(result) run after each call
        self.on_return = dict(on_return or {})

    def _wrap(self, name, fn):
        spans, stack, hook = self.spans, self._stack, self.on_return.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(result)
            return result

        traced.span_name = name
        return traced

    def install(self, package="odadjust"):
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer, mod in zip(LAYERS, load_layers(package)):
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = (obj, self._wrap("%s.%s" % (layer, attr), obj))
        for mod, attr, obj in package_bindings(package):
            if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                setattr(mod, attr, wrappers[id(obj)][1])
                self._saved.append((mod, attr, obj))

    def uninstall(self):
        """Put every original object back where install() found it."""
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved = []

    def dump(self, path):
        rows = [[s.name, s.start, s.end, s.parent] for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": rows}, fh)


def unwound(before, package="odadjust"):
    """True when every binding of a package_bindings() snapshot is back and
    no module of the package, loaded since or not, holds a tracer wrapper."""
    return (all(getattr(mod, attr) is obj for mod, attr, obj in before)
            and not any(hasattr(obj, "span_name") for _, _, obj in package_bindings(package)))


def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans):
    """Each span's duration minus the part of it its child spans cover."""
    children = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [s.end - s.start - covered(children[i], s.start, s.end)
            for i, s in enumerate(spans)]


def layer_metrics(spans, intervals):
    """Per-function calls and inclusive seconds, per-layer self seconds, and
    the share of the traced (start, end) intervals that top-level spans
    cover."""
    out = {}
    for i, (s, own) in enumerate(zip(spans, self_times(spans))):
        layer = s.name.split(".", 1)[0]
        calls = s.name + ".calls"
        out[calls] = out.get(calls, 0) + 1
        # a call nested in another call of itself adds no inclusive time
        p = s.parent
        while p >= 0 and spans[p].name != s.name:
            p = spans[p].parent
        if p < 0:
            out[s.name + ".s"] = out.get(s.name + ".s", 0.0) + (s.end - s.start)
        out[layer + ".self_s"] = out.get(layer + ".self_s", 0.0) + own
    top = [(s.start, s.end) for s in spans if s.parent < 0]
    out["trace.coverage"] = (sum(covered(top, a, b) for a, b in intervals)
                             / sum(b - a for a, b in intervals))
    return out
