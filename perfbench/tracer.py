"""In-memory span tracer that times library functions from outside.

A ``Tracer`` records one ``Span`` per call of every function it wraps.
``installed`` replaces each timed function at every module global of the
traced package that names it (and each timed method on its class), and
``check_coverage`` then proves that no reference to an original is left
anywhere it could still be called from.

Self time of a span is its duration minus the part of its interval that
its child spans cover.  Children may run on other threads (a pipeline's
worker pool), so the covered part is the length of the union of the
children's intervals, and a parent waiting on a pool is charged only for
the moments when none of its workers is inside a timed call.  Self times
of different threads add up, so a layer's total is in thread-seconds.

Standard library only: the benchmark imports this module before the code
under test, and the tests run it on synthetic spans.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    """One timed call: what ran, when, on which thread, under which span."""

    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    thread: int
    op: int | None
    attrs: dict = field(default_factory=dict)

    def to_dict(self):
        return {"id": self.id, "name": self.name, "layer": self.layer,
                "start": self.start, "end": self.end, "parent": self.parent,
                "thread": self.thread, "op": self.op, "attrs": self.attrs}


class CoverageError(RuntimeError):
    """A timed function is still reachable through an unwrapped reference."""


class Tracer:
    """Collects spans in memory; nothing is written until the caller asks.

    Parent rule: a span's parent is the innermost span open on its own
    thread.  A span that starts on a thread with nothing open (a pool
    worker) takes the innermost span open on the op's thread, which is
    blocked in the pool map that scheduled the work.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.op = None
        self._ids = itertools.count(1)  # next() is one C call, safe across threads
        self._local = threading.local()
        self._op_stack = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def op_span(self, op_id):
        """Root span of one benchmark op; binds worker spans to this thread."""
        self.op = op_id
        self._op_stack = self._stack()
        try:
            with self.span("op", "op"):
                yield
        finally:
            self.op = None

    @contextmanager
    def span(self, name, layer, attrs=None):
        """Time the body as one span; ``attrs`` may be filled in by the body."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._op_stack:
            parent = self._op_stack[-1]
        else:
            parent = None
        span_id = next(self._ids)
        attrs = {} if attrs is None else attrs
        stack.append(span_id)
        start = self.clock()
        try:
            yield attrs
        finally:
            end = self.clock()
            stack.pop()
            self.spans.append(Span(span_id, name, layer, start, end, parent,
                                   threading.get_ident(), self.op, attrs))

    def wrap(self, fn, name, layer, count=None):
        """Timed stand-in for ``fn``; ``count(args, kwargs, result)`` adds attrs."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, layer) as attrs:
                result = fn(*args, **kwargs)
                if count is not None:
                    attrs.update(count(args, kwargs, result))
            return result

        traced.__traced_original__ = fn
        return traced


@dataclass(frozen=True)
class Target:
    """A timed callable: ``attr`` of module ``module`` (``Class.method`` allowed)."""

    layer: str
    module: str
    attr: str
    count: object = None


def _resolve(target):
    owner = sys.modules[target.module]
    *path, leaf = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def _in_package(name, package):
    return name == package or name.startswith(package + ".")


def _package_modules(package):
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and _in_package(name, package)]


@contextmanager
def installed(tracer, targets, package):
    """Wrap every target at every name the package's modules bind it to.

    Functions are replaced in each module global that holds them, which
    covers re-exports and ``from x import f`` call sites alike; methods
    are replaced on their class.  Everything is restored on exit.
    """
    undo = []
    originals = {}
    try:
        for target in targets:
            owner, leaf = _resolve(target)
            fn = owner.__dict__[leaf]
            wrapped = tracer.wrap(fn, target.attr, target.layer, target.count)
            originals[id(fn)] = target  # the wrapper keeps fn, and so its id, alive
            if isinstance(owner, type):
                undo.append((owner, leaf, fn))
                setattr(owner, leaf, wrapped)
                continue
            for mod in _package_modules(package):
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        undo.append((mod, key, fn))
                        setattr(mod, key, wrapped)
        check_coverage(originals, package)
        yield
    finally:
        for owner, key, fn in reversed(undo):
            setattr(owner, key, fn)


def _references(value, where):
    """(where, object) for a global and one level of what it holds."""
    yield where, value
    if isinstance(value, dict):
        for key, item in value.items():
            yield f"{where}[{key!r}]", item
    elif isinstance(value, (list, tuple, set, frozenset)):
        for i, item in enumerate(value):
            yield f"{where}[{i}]", item
    elif isinstance(value, functools.partial):
        yield f"{where}.func", value.func


def check_coverage(originals, package):
    """Raise CoverageError if any package global still reaches an original.

    Looks at every module global, one level into containers and
    partials, and at the attributes of every class the package defines,
    so a timed function bound anywhere ``installed`` did not replace it
    (a dispatch table, a class attribute, a new import site that escaped
    the patch) fails the run instead of silently losing its spans.
    """
    leaks = []
    for mod in _package_modules(package):
        for key, value in vars(mod).items():
            refs = list(_references(value, f"{mod.__name__}.{key}"))
            if isinstance(value, type) and _in_package(value.__module__, package):
                refs += [(f"{mod.__name__}.{key}.{k}", v)
                         for k, v in vars(value).items()]
            leaks += [(where, originals[id(obj)].attr)
                      for where, obj in refs if id(obj) in originals]
    if leaks:
        detail = ", ".join(f"{where} ({attr})" for where, attr in sorted(set(leaks)))
        raise CoverageError(f"untraced references to timed functions: {detail}")


# ---------------------------------------------------------------------------
# Self time


def covered_length(interval, others):
    """Length of ``interval`` covered by the union of ``others``."""
    lo, hi = interval
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in others if b > lo and a < hi)
    total, reach = 0.0, lo
    for a, b in clipped:
        if b > reach:
            total += b - max(a, reach)
            reach = b
    return total


def self_times(spans):
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: (s.end - s.start) - covered_length((s.start, s.end), children[s.id])
            for s in spans}
