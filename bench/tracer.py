"""Span tracer that wraps module-level functions from outside the package.

`Tracer.install` replaces every reference to a public function (a name
without a leading underscore, defined in one of the given modules) in
every given module namespace with a timing wrapper, and `uninstall` puts
the originals back.  Because each namespace gets its own wrapper, a call
is attributed both to the function that ran (``sphharm.tangent_basis``)
and to the namespace it was called through (``registration``): the
second is how a layer's loop counts are read without editing the
program.

Spans are kept in memory as per-name aggregates.  A span's self time is
its duration minus the union of the intervals its child spans cover, so
self times of nested serial spans sum to the root span's duration.  A
span opened on a thread with no open span of its own takes the innermost
open span of the installing thread as its parent; for a thread pool that
is the call that submitted the work (``register_cohort``).
"""

from __future__ import annotations

import inspect
import threading
import time
from collections import defaultdict


class Frame:
    """One open span."""

    __slots__ = ("name", "parent", "start", "children")

    def __init__(self, name: str, parent: "Frame | None", start: float):
        self.name = name
        self.parent = parent
        self.start = start
        self.children: list = []


class Call:
    """What a hook sees of a finished call."""

    __slots__ = ("name", "args", "kwargs", "result", "frame", "seconds", "func")

    def __init__(self, name, func, args, kwargs, result, frame, seconds):
        self.name = name
        self.func = func
        self.args = args
        self.kwargs = kwargs
        self.result = result
        self.frame = frame
        self.seconds = seconds

    def arg(self, param: str, default=None):
        """A call argument by parameter name, defaults applied."""
        bound = inspect.signature(self.func).bind(*self.args, **self.kwargs)
        bound.apply_defaults()
        return bound.arguments.get(param, default)


def _covered(intervals: list) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class Tracer:
    """Aggregating span recorder over the functions of a set of modules.

    Parameters
    ----------
    modules : list of modules
        Every namespace to patch; functions defined in any of them are
        traced wherever one of them refers to them.
    hooks : dict, optional
        Span name -> callable(call, tracer), run after the call returns,
        for quantities read from arguments or results (see `add`).
    keep_durations : iterable of str
        Span names whose individual durations are kept for percentiles.
    """

    def __init__(self, modules, hooks=None, keep_durations=()):
        self.modules = list(modules)
        self.hooks = dict(hooks or {})
        self.keep_durations = set(keep_durations)
        self.calls = defaultdict(int)
        self.raised = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.via = defaultdict(int)
        self.via_s = defaultdict(float)
        self.durations = defaultdict(list)
        self.quantities = defaultdict(float)
        self.root_s = 0.0
        self.originals: dict = {}
        self._patched: list = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list = []

    @staticmethod
    def short_name(module) -> str:
        return module.__name__.rsplit(".", 1)[-1]

    def _targets(self) -> dict:
        names = {}
        for mod in self.modules:
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    names[obj] = f"{self.short_name(mod)}.{attr}"
        return names

    def install(self) -> "Tracer":
        """Wrap every traced function in every namespace; returns self."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        self._local.stack = self._main_stack
        targets = self._targets()
        for func, name in targets.items():
            self.originals[name] = func
        for mod in self.modules:
            via = self.short_name(mod)
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in targets:
                    setattr(mod, attr, self._wrap(obj, targets[obj], via))
                    self._patched.append((mod, attr, obj))
        return self

    def uninstall(self) -> None:
        """Restore every patched attribute to its original function."""
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def add(self, quantity: str, value: float) -> None:
        """Accumulate a hook-derived quantity (thread safe)."""
        with self._lock:
            self.quantities[quantity] += value

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, func, name: str, via: str):
        hook = self.hooks.get(name)

        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif stack is not self._main_stack and self._main_stack:
                parent = self._main_stack[-1]
            else:
                parent = None
            frame = Frame(name, parent, time.perf_counter())
            stack.append(frame)
            failed = True
            try:
                result = func(*args, **kwargs)
                failed = False
            finally:
                end = time.perf_counter()
                stack.pop()
                self._close(frame, end, via, failed)
            if hook is not None:
                hook(Call(name, func, args, kwargs, result, frame, end - frame.start),
                     self)
            return result

        traced.__wrapped__ = func
        traced.__name__ = func.__name__
        traced.__doc__ = func.__doc__
        return traced

    def _close(self, frame: Frame, end: float, via: str, failed: bool) -> None:
        duration = end - frame.start
        own = duration - _covered(frame.children)
        with self._lock:
            if frame.parent is not None:
                frame.parent.children.append((frame.start, end))
            else:
                self.root_s += duration
            self.calls[frame.name] += 1
            self.via[(frame.name, via)] += 1
            self.via_s[(frame.name, via)] += duration
            self.total_s[frame.name] += duration
            self.self_s[frame.name] += own
            if failed:
                self.raised[frame.name] += 1
            if frame.name in self.keep_durations:
                self.durations[frame.name].append(duration)

    def summary(self) -> dict:
        """JSON-ready aggregates: per span name and per (name, namespace)."""
        return {
            "root_s": self.root_s,
            "spans": {
                name: {
                    "calls": self.calls[name],
                    "raised": self.raised[name],
                    "total_s": self.total_s[name],
                    "self_s": self.self_s[name],
                    "durations_s": self.durations.get(name, []),
                }
                for name in sorted(self.calls)
            },
            "via": {
                f"{name}@{via}": {"calls": n, "total_s": self.via_s[(name, via)]}
                for (name, via), n in sorted(self.via.items())
            },
            "quantities": dict(self.quantities),
        }
