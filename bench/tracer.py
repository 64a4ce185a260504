"""Outside-in span tracer for the tbgeom package.

``Tracer.install()`` replaces every public function and public method of
the traced tbgeom modules with a wrapper that records a span (name, start,
end, parent span, suite), and rebinds the wrapper wherever another tbgeom
module imported the original by name.  Nothing under ``src/`` is edited.

``jets`` is not wrapped: jet arithmetic is the inside of weight and
base-metric evaluation, so its time is charged to the layer that drives it
(``weights.WeightPair.eval``, ``base_geometry.ChartMetric.derivatives``).

Each thread keeps its own span buffer and stack, because ``cli.run`` runs
suites on a thread pool.  A span opened on a thread whose stack is empty is
adopted by the root span (the traced ``cli.run`` call).  Spans stay in
memory until ``spans()`` is read at the end.

A span records wall time and the CPU time of its own thread.  Under the
pool, threads wait for the interpreter lock inside whatever span they are
in, so wall self time charges that wait to arbitrary small functions; CPU
self time is the time a layer actually kept a core busy.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from collections import defaultdict, namedtuple

PACKAGE = "tbgeom"
TRACED_MODULES = ("weights", "base_geometry", "oracle", "tangent_bundle",
                  "sphere_bundle", "suites", "cli")
ROOT = -1  # parent value of a span adopted by the root span
NONE = -2  # parent value of a span that has no parent

Span = namedtuple("Span", "buffer index name start end cpu_start cpu_end parent suite")


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers = []
        self._in_root = False  # True while the root function runs
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _thread_state(self):
        try:
            return self._local.state
        except AttributeError:
            buf = []
            with self._lock:
                self._buffers.append(buf)
            self._local.state = (buf, [])
            return self._local.state

    def wrap(self, name, fn, suite_arg=False, root=False):
        clock = time.perf_counter
        cpu = time.thread_time
        state = self._thread_state

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf, stack = state()
            if stack:
                parent = stack[-1]
                suite = buf[parent][6]
            else:
                parent = ROOT if self._in_root and not root else NONE
                suite = None
            if suite_arg:
                suite = args[0] if args else kwargs.get("name")
            idx = len(buf)
            span = [name, clock(), None, cpu(), None, parent, suite]
            buf.append(span)
            stack.append(idx)
            if root:
                self._in_root = True
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = cpu()
                span[2] = clock()
                stack.pop()
                if root:
                    self._in_root = False

        return traced

    def reset(self):
        for buf in self._buffers:
            buf.clear()

    def spans(self):
        """Finished spans as ``Span`` tuples."""
        return [Span(tid, idx, *rec) for tid, buf in enumerate(self._buffers)
                for idx, rec in enumerate(buf) if rec[2] is not None]

    # -- installation ------------------------------------------------------

    def install(self, root="cli.run"):
        """Wrap the public API of the traced modules in place.

        Spans opened on other threads while the function named ``root`` runs
        become its children.
        """
        mods = [importlib.import_module(f"{PACKAGE}.{m}") for m in TRACED_MODULES]
        every = [importlib.import_module(PACKAGE)] + mods
        replaced = {}
        for mod in mods:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{short}.{attr}"
                    w = self.wrap(name, obj, suite_arg=attr == "run_suite", root=name == root)
                    replaced[id(obj)] = w
                elif inspect.isclass(obj):
                    self._wrap_class(short, obj)
        for mod in every:
            for attr, obj in list(vars(mod).items()):
                w = replaced.get(id(obj))
                if w is not None:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, w)

    def _wrap_class(self, short, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if isinstance(raw, classmethod):
                new = classmethod(self.wrap(name, raw.__func__))
            elif isinstance(raw, staticmethod):
                new = staticmethod(self.wrap(name, raw.__func__))
            elif inspect.isfunction(raw):
                new = self.wrap(name, raw)
            else:
                continue
            self._undo.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self):
        for owner, attr, obj in reversed(self._undo):
            setattr(owner, attr, obj)
        self._undo.clear()


def summarize(spans, interest=None):
    """Per-name call counts and self times, plus per-key outermost totals.

    ``spans`` holds one top-level call (the root) and what it caused.
    Wall self time is a span's duration minus the union of its children's
    intervals, so over all spans it sums to the root's duration plus the
    time in which children on different threads overlapped.  CPU self time
    subtracts only children on the span's own thread.  ``interest`` maps a
    key to a predicate on span names; the total of a key sums the wall
    durations of matching spans that have no matching ancestor, so nested
    and recursive calls are counted once.

    Returns ``(calls, wall_self, cpu_self, totals)``.
    """
    interest = interest or {}
    root = next(((s.buffer, s.index) for s in spans if s.parent == NONE), None)

    def parent_of(s):
        return root if s.parent == ROOT else (s.buffer, s.parent)

    wall_children = defaultdict(list)
    cpu_children = defaultdict(float)
    for s in spans:
        if s.parent == NONE:
            continue
        pid = parent_of(s)
        wall_children[pid].append((s.start, s.end))
        if s.parent != ROOT:
            cpu_children[pid] += s.cpu_end - s.cpu_start
    calls = defaultdict(int)
    wall_self = defaultdict(float)
    cpu_self = defaultdict(float)
    for s in spans:
        key = (s.buffer, s.index)
        calls[s.name] += 1
        wall_self[s.name] += (s.end - s.start) - _union(wall_children.get(key, ()))
        cpu_self[s.name] += (s.cpu_end - s.cpu_start) - cpu_children.get(key, 0.0)
    totals = dict.fromkeys(interest, 0.0)
    inside = {}
    for s in sorted(spans, key=lambda s: (s.parent != NONE, s.buffer, s.index)):
        above = frozenset() if s.parent == NONE else inside.get(parent_of(s), frozenset())
        mine = {k for k, match in interest.items() if match(s.name)}
        for k in mine - above:
            totals[k] += s.end - s.start
        inside[(s.buffer, s.index)] = above | mine
    return dict(calls), dict(wall_self), dict(cpu_self), totals


def _union(intervals):
    total = 0.0
    end = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total
