"""Per-layer spans for the traced benchmark pass, installed from outside the program.

Every public function (a function named in a module's ``__all__``, plus
``cli.main``) of each loaded ``repulse.<layer>`` module is replaced by a
wrapper, and the wrapper is put into every module namespace that holds the
original, so that calls between modules (``certify.solve_s_alpha``,
``cli.solve_s_alpha``, ``certify.build_coefficients``, ...) and internal
calls through module globals are caught.

The ``interval`` layer is too hot to time per call: its module functions and
the ``Interval`` arithmetic operators get count-only wrappers, and their time
stays in the self time of whichever layer called them. Every other layer gets
timed spans; a layer's self time is its span time minus the time of the
child spans it caused.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
import types
from collections import defaultdict

COUNT_ONLY_LAYER = "interval"
INTERVAL_OPERATORS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__pow__", "__neg__", "__abs__",
)


class Tracer:
    """Aggregated spans, kept in memory until the pass ends."""

    def __init__(self):
        self._stack: list[list] = []  # [span name, seconds covered by child spans]
        self.spans: dict[str, dict] = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
        # inequality_id -> seconds in the outermost certify_* span that returned it
        self.certificate_s: dict[str, float] = defaultdict(float)
        self._interval_calls = itertools.count()

    def install(self, package: str = "repulse") -> None:
        modules = {
            name[len(package) + 1:]: mod for name, mod in list(sys.modules.items())
            if name.startswith(package + ".") and isinstance(mod, types.ModuleType)
        }
        replacement = {}
        for layer, mod in modules.items():
            names = set(getattr(mod, "__all__", ()))
            if layer == "cli":
                names.add("main")
            for name in sorted(names):
                fn = getattr(mod, name, None)
                if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                    replacement[fn] = (self._counted(fn) if layer == COUNT_ONLY_LAYER
                                       else self._timed(f"{layer}.{name}", fn))
        for mod in [sys.modules[package], *modules.values()]:
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in replacement:
                    setattr(mod, attr, replacement[value])
        interval_cls = getattr(modules.get(COUNT_ONLY_LAYER), "Interval", None)
        for op in INTERVAL_OPERATORS:
            fn = vars(interval_cls).get(op) if interval_cls is not None else None
            if isinstance(fn, types.FunctionType):
                setattr(interval_cls, op, self._counted(fn))

    def _counted(self, fn):
        tick = self._interval_calls.__next__

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)

        return counted

    def _timed(self, name: str, fn):
        stack = self._stack
        stats = self.spans[name]
        clock = time.perf_counter
        is_certify = name.startswith("certify.")

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                stats["calls"] += 1
                stats["self_s"] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if not any(f[0] == name for f in stack):  # recursion counts once
                    stats["s"] += dur
            if is_certify and hasattr(result, "inequality_id") and self._outermost_certificate():
                self.certificate_s[result.inequality_id] += dur
            return result

        return timed

    def _outermost_certificate(self) -> bool:
        return not any(f[0].startswith("certify.") and f[0] != "certify.certify_all"
                       for f in self._stack)

    def report(self) -> dict:
        """Read once, when the pass ends."""
        layer_self_s: dict[str, float] = defaultdict(float)
        for name, st in self.spans.items():
            layer_self_s[name.split(".", 1)[0]] += st["self_s"]
        return {
            "spans": {k: v for k, v in self.spans.items() if v["calls"]},
            "layer_self_s": dict(layer_self_s),
            "certificate_s": dict(self.certificate_s),
            # one value was handed out per wrapped call, so the next is the count
            "interval_calls": next(self._interval_calls),
        }
