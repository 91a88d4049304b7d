"""In-memory span recorder that wraps public functions where callers look them up.

A span is (id, parent id, name, start, end); the parent is the innermost span
open on the same thread when the call began, -1 at a thread's top level. Each
thread keeps its own span list and counters, so the sweep's worker threads
never share a mutable structure; the lists are merged when the run ends.
Imports only the standard library, so loading it costs the traced process
nothing it would not pay anyway.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self._ids = itertools.count()
        self._local = threading.local()
        self._threads = []
        self._lock = threading.Lock()
        self.names = []

    def _state(self):
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = {"stack": [], "spans": [], "counts": {}}
            with self._lock:
                self._threads.append(st)
        return st

    def wrap(self, owner, attr: str, name: str, count=None, static: bool = False):
        """Replace owner.attr by a span-recording wrapper.

        count(counts, args, result), when given, adds to this thread's
        counters after the call returns. static marks a class attribute that
        must not bind to instances (a wrapped classmethod).
        """
        fn = getattr(owner, attr)
        code = len(self.names)
        self.names.append(name)
        state = self._state

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = state()
            stack = st["stack"]
            sid = next(self._ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = _clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = _clock()
                stack.pop()
                st["spans"].append((sid, parent, code, t0, t1))
            if count is not None:
                count(st["counts"], args, out)
            return out

        setattr(owner, attr, staticmethod(traced) if static else traced)

    def spans(self) -> list:
        return [s for st in self._threads for s in st["spans"]]

    def counts(self) -> dict:
        total = {}
        for st in self._threads:
            for key, value in st["counts"].items():
                total[key] = total.get(key, 0) + value
        return total

    def summary(self) -> dict:
        """Per span name: calls, total seconds, and self seconds (minus direct children)."""
        spans = self.spans()
        child = {}
        for sid, parent, code, t0, t1 in spans:
            if parent >= 0:
                child[parent] = child.get(parent, 0.0) + (t1 - t0)
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for sid, parent, code, t0, t1 in spans:
            entry = out[self.names[code]]
            entry["calls"] += 1
            entry["total_s"] += t1 - t0
            entry["self_s"] += (t1 - t0) - child.get(sid, 0.0)
        return out

    def write(self, path) -> None:
        """Write every span as one tab-separated line: id, parent, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart\tend\n")
            for sid, parent, code, t0, t1 in sorted(self.spans()):
                fh.write(f"{sid}\t{parent}\t{self.names[code]}\t{t0!r}\t{t1!r}\n")


def add(counts: dict, key: str, value) -> None:
    counts[key] = counts.get(key, 0) + value
