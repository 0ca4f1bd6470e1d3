"""Span and counter tracing installed from outside the package.

A span wraps a function so that each call adds to the span's call count,
total time and self time (total minus the time of wrapped calls made while
it ran). Installing a span rebinds the function under every name that holds
it in the ``dfrcbeam`` modules (a module's imported copy as well as the
defining module), or on the class for methods. ``uninstall`` restores every
original binding.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

PACKAGE = "dfrcbeam"
_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])   # calls, total, self
        self.counts = defaultdict(int)
        self._child = [0.0]         # per open span: time of its wrapped children
        self._bindings = []         # (owner, attribute, original)

    # -- wrappers

    def span(self, name: str, fn, on_result=None):
        stats = self.spans[name]
        child = self._child

        def wrapper(*args, **kwargs):
            child.append(0.0)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                inner = child.pop()
                child[-1] += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - inner
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation

    def rebind(self, owner, attr, new):
        self._bindings.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install_function(self, name, module, attr, on_result=None):
        """Wrap module.attr and rebind every copy of it in ``dfrcbeam``;
        returns the number of bindings replaced."""
        original = getattr(module, attr)
        wrapper = self.span(name, original, on_result)
        rebound = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE
                                   or mod_name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self.rebind(mod, key, wrapper)
                    rebound += 1
        return rebound

    def install_method(self, name, cls, attr):
        self.rebind(cls, attr, self.span(name, cls.__dict__[attr]))

    def install_counter(self, name, module, attr):
        self.rebind(module, attr, self.counter(name, getattr(module, attr)))

    def uninstall(self):
        while self._bindings:
            owner, attr, original = self._bindings.pop()
            setattr(owner, attr, original)
