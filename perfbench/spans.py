"""Span recorder for the benchmark's traced run.

Spans are recorded from outside the package: `Tracer.install` rebinds
the module-level names that callers look up (for example
`hopfadjoint.adjoint.kernel_basis`, which `adjoint` imported from
`linalg`) to timing wrappers, and `Tracer.uninstall` puts the original
objects back.  Nothing under `src/` knows about tracing.

A span is `[name, start, end, parent]`, with `parent` the index of the
enclosing span or -1.  Calls are single-threaded, so child spans never
overlap and a span's self time is its duration minus the summed
durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

PACKAGE = "hopfadjoint"
HOOK_SPAN = "trace.hook"  # count hooks run in this span, so no layer's self time includes them


class Tracer:
    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.hook_s = 0.0  # time spent in count hooks
        self.last_parent: str | None = None  # parent span name of the call a hook reads
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name and return its result."""
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = [name, self.clock(), None, parent]
        self.spans.append(record)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            record[2] = self.clock()

    def wrap(self, name: str, fn, on_return=None):
        """A wrapper that records a span per call.  on_return(args, result)
        runs after the span has closed, in a HOOK_SPAN span, with
        `last_parent` set to the name of the enclosing span, and may add
        to `counts`."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.spans[self._stack[-1]][0] if self._stack else None
            result = self.span(name, fn, *args, **kwargs)
            if on_return is not None:
                self.last_parent = parent
                t0 = self.clock()
                self.span(HOOK_SPAN, on_return, args, result)
                self.hook_s += self.clock() - t0
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self, targets) -> None:
        """targets: (span name, owner, attribute, on_return or None).

        For a module owner, every binding of the same object in any
        loaded module of the package is rebound, so calls through names
        imported with `from .x import f` are traced too.  For a class
        owner the attribute on the class is replaced."""
        for name, owner, attr, on_return in targets:
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, on_return)
            if isinstance(owner, type):
                self._rebind(owner, attr, wrapper)
                continue
            for mod_name, module in list(sys.modules.items()):
                if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, wrapper)

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child_s):
            out[name] += (end - start) - inner
        return out


def span_cost_s(calls: int = 20000) -> float:
    """Measured cost of one wrapped call over a direct call, in seconds."""
    def noop():
        return None

    tracer = Tracer()
    traced = tracer.wrap("probe", noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    direct = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(calls):
        traced()
    wrapped = time.perf_counter() - t0
    return max(wrapped - direct, 0.0) / calls
