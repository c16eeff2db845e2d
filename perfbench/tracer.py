"""Span tracer that wraps the program's layer functions from outside.

A span opens when a wrapped function is entered and closes when it returns
or raises.  Open spans form a stack, so every span knows its parent.  The
tracer keeps, per span name:

* ``inclusive``: wall time of the outermost spans of that name (a span
  nested inside a span of the same name, such as a clipped noise model
  calling its inner model, is not counted twice);
* ``calls``: the number of those outermost spans;
* ``self_ns``: wall time minus the time covered by direct child spans;
* ``edges[(parent, name)]``: time of ``name`` spans opened directly under
  ``parent`` (``None`` for roots).

Times are integer nanoseconds, so self time is exact and never negative
unless the clock runs backwards; ``min_self_ns`` records the smallest seen.

Functions are patched where they are looked up: every binding of the
original function object in any ``quantvi`` module is replaced, so a name
imported with ``from .quantizer import quantize_batch`` is wrapped as well
as the defining module's attribute.  Methods are patched on their class.
"""

import functools
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.stack = []  # open spans: [name, start_ns, covered_by_children_ns]
        self.inclusive = defaultdict(int)
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.edges = defaultdict(int)
        self.counts = defaultdict(int)  # counters added by hooks
        self.maxes = defaultdict(int)  # maxima recorded by hooks
        self.min_self_ns = 0

    def enter(self, name):
        self.stack.append([name, perf_counter_ns(), 0])

    def exit(self):
        end = perf_counter_ns()
        name, start, covered = self.stack.pop()
        dur = end - start
        own = dur - covered
        self.self_ns[name] += own
        if own < self.min_self_ns:
            self.min_self_ns = own
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += dur
        self.edges[(parent[0] if parent else None, name)] += dur
        if not any(span[0] == name for span in self.stack):
            self.inclusive[name] += dur
            self.calls[name] += 1

    def wrap(self, name, fn, hook=None):
        """Return ``fn`` wrapped in a span; ``hook(args, kwargs, result)``
        runs after the span closes, so its cost is not charged to it."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` once inside a span."""
        return self.wrap(name, fn)(*args, **kwargs)

    def children(self, parent):
        """{child name: ns} of spans opened directly under ``parent``."""
        return {c: ns for (p, c), ns in self.edges.items() if p == parent}

    def seconds(self, name):
        return self.inclusive[name] / 1e9


def _bindings(fn):
    """Every (namespace, attribute) in a quantvi module bound to ``fn``."""
    found = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "quantvi" or modname.startswith("quantvi.")):
            continue
        for attr, value in vars(mod).items():
            if value is fn:
                found.append((mod, attr))
    return found


@contextmanager
def installed(tracer, targets):
    """Patch ``targets`` for the duration of the block, then restore them.

    ``targets`` holds (owner, attribute, span name, hook) tuples; ``owner``
    is a module or a class.  A missing attribute is skipped, so a layer the
    program no longer has simply records no spans.
    """
    patched = []
    try:
        for owner, attr, name, hook in targets:
            original = vars(owner).get(attr)
            if original is None:
                continue
            wrapped = tracer.wrap(name, original, hook)
            sites = [(owner, attr)] if isinstance(owner, type) else _bindings(original)
            for ns, key in sites:
                patched.append((ns, key, original))
                setattr(ns, key, wrapped)
        yield tracer
    finally:
        for ns, key, original in reversed(patched):
            setattr(ns, key, original)
