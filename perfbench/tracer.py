"""Span tracing for the benchmark, installed from outside the package.

The package imports many functions by name (``from ._kernel import
hnf_kernel``, ``from .endogeny import endo_add``), so replacing a function in
its defining module alone records nothing.  ``Patch`` rebinds every module
attribute of ``endokat.*`` that holds the original, and the class attribute
for methods, and puts all of them back on ``restore``.

``Tracer`` wraps the public functions and methods of every layer module.  Each
call is a span; a span's self time is its duration minus the time its direct
child spans cover, so time spent in unwrapped helpers is charged to the
nearest wrapped caller.  A generator function's span is each resumption, not
the call that creates it.  Per-element group arithmetic is only counted: a
span around every tuple addition would cost more than the addition.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter
from time import perf_counter

# Metric layer name -> package module.  The kernel package is called
# ``kernel`` because a metric name may not start with an underscore.
LAYERS = {
    "kernel": "endokat._kernel",
    "groups": "endokat.groups",
    "snf": "endokat.snf",
    "endogeny": "endokat.endogeny",
    "dimension": "endokat.dimension",
    "fp": "endokat.fp",
    "linearize": "endokat.linearize",
    "oracle": "endokat.oracle",
    "audits": "endokat.audits",
    "instances": "endokat.instances",
}

# The kernel package re-exports one backend; these are its entry points.
KERNEL_FUNCTIONS = ("hnf_kernel", "box_reduce", "mat_mul", "mat_vec", "rref", "spin")

# Counted, never timed.
COUNT_ONLY = frozenset(
    "groups.AbelianGroup." + m
    for m in ("add", "sub", "neg", "reduce", "scalar_mul", "element_order")
)


class Patch:
    """Rebinds functions and methods of the package; ``restore`` undoes it."""

    def __init__(self):
        self._undo = []

    def functions(self, replacements):
        """Replace every ``endokat.*`` module attribute that is a key of
        ``replacements`` (an original function) by its value."""
        by_id = {id(orig): (orig, new) for orig, new in replacements.items()}
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "endokat" or name.startswith("endokat.")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = by_id.get(id(val))
                if hit is not None and hit[0] is val:
                    self._undo.append((mod, attr, val))
                    setattr(mod, attr, hit[1])

    def method(self, cls, attr, new):
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, new)

    def restore(self):
        while self._undo:
            owner, attr, val = self._undo.pop()
            setattr(owner, attr, val)


def public_callables(layer):
    """``(key, owner class or None, attribute, function)`` for every public
    function of the layer's module and every public method of its classes."""
    mod = importlib.import_module(LAYERS[layer])
    if layer == "kernel":
        return [(f"kernel.{n}", None, n, getattr(mod, n)) for n in KERNEL_FUNCTIONS]
    out = []
    for name, obj in vars(mod).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj):
            out.append((f"{layer}.{name}", None, name, obj))
        elif inspect.isclass(obj):
            for attr, val in vars(obj).items():
                if attr.startswith("_"):
                    continue
                if isinstance(val, (classmethod, staticmethod)) or inspect.isfunction(val):
                    out.append((f"{layer}.{name}.{attr}", obj, attr, val))
    return out


class Tracer:
    """Counts calls and accumulates span times per function and per layer.

    ``busy_s`` of a layer is the time covered by its outermost open spans;
    ``errors`` counts exceptions that escaped an outermost span of the layer,
    including ones a caller then caught and retried.
    """

    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.layer_self_s = Counter()
        self.busy_s = Counter()
        self.errors = Counter()
        self._open = Counter()
        self._stack = []
        self._patch = Patch()

    def install(self):
        replacements = {}
        for layer in LAYERS:
            for key, cls, attr, fn in public_callables(layer):
                if cls is None:
                    replacements[fn] = self._wrap(key, layer, fn)
                elif isinstance(fn, (classmethod, staticmethod)):
                    self._patch.method(cls, attr, type(fn)(self._wrap(key, layer, fn.__func__)))
                else:
                    self._patch.method(cls, attr, self._wrap(key, layer, fn))
        self._patch.functions(replacements)

    def restore(self):
        self._patch.restore()

    def _wrap(self, key, layer, fn):
        if key in COUNT_ONLY:
            return self._counted(key, fn)
        if inspect.isgeneratorfunction(fn):
            return self._generator(key, layer, fn)
        return self._span(key, layer, fn)

    def _counted(self, key, fn):
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _spanned(self, key, layer):
        """A function that runs ``fn(*args)`` as one span of ``key``."""
        stack, opened = self._stack, self._open
        self_s, layer_self_s, busy_s, errors = self.self_s, self.layer_self_s, self.busy_s, self.errors

        def run(fn, *args, **kwargs):
            outer = not opened[layer]
            opened[layer] += 1
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except StopIteration:
                raise
            except Exception:
                if outer:
                    errors[layer] += 1
                raise
            finally:
                dt = perf_counter() - t0
                own = dt - stack.pop()
                if stack:
                    stack[-1] += dt
                self_s[key] += own
                layer_self_s[layer] += own
                opened[layer] -= 1
                if outer:
                    busy_s[layer] += dt

        return run

    def _span(self, key, layer, fn):
        calls, run = self.calls, self._spanned(key, layer)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            calls[key] += 1
            return run(fn, *args, **kwargs)

        return span

    def _generator(self, key, layer, fn):
        calls, run = self.calls, self._spanned(key, layer)

        def steps(gen):
            while True:
                try:
                    item = run(next, gen)
                except StopIteration:
                    return
                yield item

        @functools.wraps(fn)
        def generator(*args, **kwargs):
            calls[key] += 1
            return steps(fn(*args, **kwargs))

        return generator
