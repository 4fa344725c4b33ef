"""Spans and counts at layer boundaries, recorded from outside the library.

A traced name is replaced, in the namespace of the module that looks it up
at call time, by a wrapper that opens a span around the call.  Spans nest:
a span's self time is its duration minus the time covered by spans opened
inside it.  Wrapped calls are recorded only inside a root span (an op, or a
set-up), so the benchmark's own answer checks, which call some of the same
functions, stay out of the figures.  A wrapped call whose key is already
open passes straight through, so a recursive function is timed once per
outermost call.  A name that no longer exists is reported as absent instead
of failing the run.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.inclusive = defaultdict(float)
        self.covered = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.absent: list[str] = []
        self._stack: list[list] = []  # [key, start, time covered by children]
        self._open: set[str] = set()
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def records(self, key: str) -> bool:
        """Whether a wrapped call under ``key`` would open a span now."""
        return bool(self._stack) and key not in self._open

    def call(self, key, fn, *args, **kwargs):
        """Run fn inside a span named key; a root span when none is open."""
        frame = [key, perf_counter(), 0.0]
        self._stack.append(frame)
        self._open.add(key)
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - frame[1]
            self._stack.pop()
            self._open.discard(key)
            self.calls[key] += 1
            self.inclusive[key] += elapsed
            self.covered[key] += frame[2]
            if self._stack:
                self._stack[-1][2] += elapsed

    def is_open(self, key: str) -> bool:
        return key in self._open

    def self_time(self, key: str) -> float:
        return self.inclusive[key] - self.covered[key]

    # -- patching ----------------------------------------------------------

    def patch(self, dotted: str, key: str, after=None, generator: bool = False):
        """Wrap ``module.name`` under ``key``.

        ``after(args, result)`` runs after each recorded call to update
        counts.  With ``generator`` the call returns an iterator whose every
        ``next()`` is a span, and ``after`` runs on each yielded item.
        """
        module_name, _, name = dotted.rpartition(".")
        try:
            module = importlib.import_module(module_name)
            original = getattr(module, name)
        except (ImportError, AttributeError):
            self.absent.append(dotted)
            return
        tracer = self

        if generator:

            def wrapper(*args, **kwargs):
                inner = original(*args, **kwargs)
                while True:
                    recording = tracer.records(key)
                    try:
                        item = tracer.call(key, next, inner) if recording else next(inner)
                    except StopIteration:
                        return
                    if recording and after is not None:
                        after(args, item)
                    yield item

        else:

            def wrapper(*args, **kwargs):
                if not tracer.records(key):
                    return original(*args, **kwargs)
                result = tracer.call(key, original, *args, **kwargs)
                if after is not None:
                    after(args, result)
                return result

        wrapper.__wrapped__ = original
        setattr(module, name, wrapper)
        self._patched.append((module, name, original))

    def unpatch(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()
