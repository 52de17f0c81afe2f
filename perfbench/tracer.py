"""Span recording around qsdiag's public functions, from outside the package.

`Tracer.install` replaces every public function of the layer modules with a
wrapper in every qsdiag module namespace that binds it, because modules call
each other through their own imported names (diagram calls its own
`immerse_gate` and `build_gate`).  A span is (id, parent id, name, start ns,
end ns, job); spans stay in memory until the run writes them out.

This module imports only the standard library, so the traced subprocess
can load it before numpy without skewing the start-up spans.
"""

from __future__ import annotations

import sys
import time
from types import FunctionType

LAYER_MODULES = ("cli", "diagram", "composite", "core", "kraus", "channels", "bloch", "purify")
clock = time.monotonic_ns  # CLOCK_MONOTONIC: comparable between processes


class Tracer:
    def __init__(self):
        self.spans = []
        self.job = None
        self._stack = [0]
        self._next_id = 1

    def span(self, name: str, start: int, end: int):
        """Record an already measured top-level span (for example a start-up phase)."""
        self.spans.append((self._new_id(), 0, name, start, end, self.job))

    def _new_id(self) -> int:
        sid = self._next_id
        self._next_id += 1
        return sid

    def wrap(self, name: str, fn):
        spans, stack, new_id = self.spans, self._stack, self._new_id

        def traced(*args, **kwargs):
            sid = new_id()
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end, self.job))

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self):
        """Wrap the public functions of every layer module, wherever they are bound."""
        wrappers = {}
        for layer in LAYER_MODULES:
            mod = sys.modules[f"qsdiag.{layer}"]
            for attr, obj in vars(mod).items():
                if (isinstance(obj, FunctionType) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "qsdiag" and not mod_name.startswith("qsdiag."):
                continue
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, FunctionType) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])


def self_times(spans):
    """Per span name: (calls, self ns).  Self time excludes child spans.

    Span ids are unique within a job, so (job, id) keys a span.
    """
    child_ns = {}
    for sid, parent, name, start, end, job in spans:
        if parent:
            child_ns[job, parent] = child_ns.get((job, parent), 0) + end - start
    out = {}
    for sid, parent, name, start, end, job in spans:
        calls, ns = out.get(name, (0, 0))
        out[name] = (calls + 1, ns + end - start - child_ns.get((job, sid), 0))
    return out
