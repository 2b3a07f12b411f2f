"""Outside-in tracing: spans around calls into the store's layers.

The program is never edited. :class:`Tracer` replaces module and class
attributes of the program with thin wrappers that record a span (name,
start, end, parent span, op id, thread) per call, keeps the spans in
memory and restores every attribute on :meth:`Tracer.uninstall`.

A wrapped callable's *self time* is its span minus the spans of wrapped
callables it called (on the same thread). Time an op spends outside
every top-level span is reported as unaccounted.
"""

from __future__ import annotations

import functools
import gc
import itertools
import json
import os
import threading
from time import perf_counter_ns

#: Op id while the measured process sets up (open, warm-up reads).
SETUP = -1
#: Op id after the measured phase (oracles run untraced anyway).
AFTER = -2


class Tracer:
    """Spans, counters and GC pauses of one measured process."""

    def __init__(self):
        self.op = SETUP
        #: ``(id, name, start_ns, end_ns, parent_id, op, on_main_thread)``
        self.spans: list[tuple] = []
        #: span id -> ns covered by its direct wrapped children
        self.child_ns: dict[int, int] = {}
        #: ``(name, phase?) -> calls`` for calls-only wrappers
        self.counts: dict[tuple[str, bool], int] = {}
        #: named side measurements (bytes encoded, frames replayed, ...)
        self.values: dict[str, float] = {}
        #: ``(start_ns, end_ns, generation, op)`` per garbage collection
        self.gc_events: list[tuple] = []
        #: ``(name, reason)`` for callables that could not be wrapped
        self.unwrappable: list[tuple[str, str]] = []
        self._local = threading.local()
        self._ids = itertools.count()
        self._main = threading.get_ident()
        self._patches: list[tuple[object, str, object]] = []
        self._gc_start = 0

    # -- recording ---------------------------------------------------------

    def add(self, key: str, amount: float) -> None:
        self.values[key] = self.values.get(key, 0) + amount

    def _timed(self, name: str, func, before=None, after=None):
        local = self._local
        spans = self.spans
        child_ns = self.child_ns
        ids = self._ids
        main = self._main
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if before is not None:
                args = before(args)
            parent = stack[-1] if stack else None
            span_id = next(ids)
            op = tracer.op
            stack.append(span_id)
            start = perf_counter_ns()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans.append((span_id, name, start, end, parent, op,
                              threading.get_ident() == main))
                if parent is not None:
                    child_ns[parent] = child_ns.get(parent, 0) + end - start
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counted(self, name: str, func):
        counts = self.counts
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            key = (name, tracer.op >= 0)
            counts[key] = counts.get(key, 0) + 1
            return func(*args, **kwargs)

        return wrapper

    def wrap(self, owner, attr: str, name: str, *, calls_only=False,
             before=None, after=None) -> None:
        """Replace ``owner.attr`` (a module or class attribute) with a
        recording wrapper; unwrappable targets are recorded, not fatal."""
        raw = vars(owner).get(attr)
        if raw is None:
            self.unwrappable.append(
                (name, f"{getattr(owner, '__name__', owner)}.{attr} "
                       f"does not exist"))
            return
        kind = type(raw) if isinstance(raw, (classmethod,
                                             staticmethod)) else None
        func = raw.__func__ if kind is not None else raw
        if not callable(func):
            self.unwrappable.append((name, f"{attr} is not callable"))
            return
        wrapped = (self._counted(name, func) if calls_only
                   else self._timed(name, func, before, after))
        try:
            setattr(owner, attr, kind(wrapped) if kind else wrapped)
        except (AttributeError, TypeError) as exc:
            self.unwrappable.append((name, f"{attr}: {exc}"))
            return
        self._patches.append((owner, attr, raw))

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf_counter_ns()
        else:
            self.gc_events.append((self._gc_start, perf_counter_ns(),
                                   info["generation"], self.op))

    def install_gc(self) -> None:
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        """Restore every wrapped attribute and stop watching the GC."""
        self.op = AFTER
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- summaries ---------------------------------------------------------

    def self_times(self) -> dict[tuple[str, str], list]:
        """``(name, "setup"|"phase") -> [calls, self_ns, wall_ns]``."""
        table: dict[tuple[str, str], list] = {}
        child_ns = self.child_ns
        for span_id, name, start, end, _, op, _ in self.spans:
            if op == AFTER:
                continue
            key = (name, "phase" if op >= 0 else "setup")
            row = table.get(key)
            if row is None:
                row = table[key] = [0, 0, 0]
            row[0] += 1
            row[1] += end - start - child_ns.get(span_id, 0)
            row[2] += end - start
        return table

    def root_ns(self) -> int:
        """Phase ns inside top-level spans of the main thread."""
        return sum(end - start
                   for _, _, start, end, parent, op, main in self.spans
                   if parent is None and main and op >= 0)

    def overlap_count(self, name: str, other: str) -> int:
        """Phase spans named ``name`` whose interval overlaps a span
        named ``other`` (on any thread)."""
        others = [(start, end) for _, n, start, end, _, _, _ in self.spans
                  if n == other]
        if not others:
            return 0
        return sum(
            1 for _, n, start, end, _, op, _ in self.spans
            if n == name and op >= 0
            and any(s < end and start < e for s, e in others))

    def gc_summary(self) -> dict[str, float]:
        pause_ns = sum(end - start for start, end, _, op in self.gc_events
                       if op >= 0)
        gen2 = sum(1 for _, _, generation, op in self.gc_events
                   if op >= 0 and generation == 2)
        return {"pause_ms": pause_ns / 1e6, "gen2": gen2}

    def dump(self, path: str) -> None:
        """Write every span as one JSON line (ids, ns timestamps)."""
        with open(path, "w") as out:
            for span_id, name, start, end, parent, op, main in self.spans:
                out.write(json.dumps({
                    "id": span_id, "name": name, "start_ns": start,
                    "end_ns": end, "parent": parent, "op": op,
                    "main_thread": main}) + "\n")
            for start, end, generation, op in self.gc_events:
                out.write(json.dumps({
                    "name": f"gc.gen{generation}", "start_ns": start,
                    "end_ns": end, "op": op}) + "\n")


def read_wchar() -> int:
    """Bytes this process has passed to write syscalls (/proc/self/io)."""
    try:
        with open(f"/proc/{os.getpid()}/io") as handle:
            for line in handle:
                if line.startswith("wchar:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0
