"""Spans recorded from outside the program, by wrapping its public calls.

A :class:`Tracer` replaces a callable — a method on one object, or a
function looked up by name in a module — with a wrapper that records one
span per call: its name, start, end and the span that was open when it
started (its parent).  Spans stay in memory; :meth:`Tracer.self_times`
reduces them to per-name self time (a span's duration minus the time its
children cover) and :meth:`Tracer.dump` writes them out at the end.

:class:`Patches` keeps every replaced attribute so the originals are put
back exactly (an instance attribute that shadowed a class method is
deleted again, a module global gets its old value).
"""

from __future__ import annotations

import json
from collections.abc import Callable
from pathlib import Path
from time import perf_counter
from typing import Any

_MISSING = object()


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def replace(self, owner: Any, name: str, make: Callable[[Any], Any]) -> None:
        """Set ``owner.name = make(current value)``, remembering the old one.

        ``owner`` is an object (its method is shadowed by an instance
        attribute) or a module (its global is rebound, so every caller
        that looks the name up there sees the wrapper).
        """
        before = vars(owner).get(name, _MISSING)
        setattr(owner, name, make(getattr(owner, name)))
        self._undo.append((owner, name, before))

    def undo(self) -> None:
        while self._undo:
            owner, name, before = self._undo.pop()
            if before is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, before)


class Tracer:
    """In-memory span recorder (single thread, so spans nest strictly)."""

    def __init__(self) -> None:
        # Each span is [name, start, end, parent index or -1].
        self.spans: list[list[Any]] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        spans, stack = self.spans, self._open

        def traced(*args: Any, **kwargs: Any) -> Any:
            record = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()

        return traced

    def open(self, name: str) -> list[Any]:
        """Open a span by hand (the benchmark's own round boundaries);
        close it with :meth:`close`."""
        record = [name, perf_counter(), 0.0, self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(record)
        return record

    def close(self, record: list[Any]) -> None:
        record[2] = perf_counter()
        self._open.pop()

    def self_times(self, start: int = 0) -> dict[str, tuple[float, float, int]]:
        """``{name: (total seconds, self seconds, calls)}`` over the spans
        recorded since index ``start``."""
        child = [0.0] * (len(self.spans) - start)
        for i in range(len(self.spans) - 1, start - 1, -1):
            _, t0, t1, parent = self.spans[i]
            if parent >= start:
                child[parent - start] += t1 - t0
        out: dict[str, tuple[float, float, int]] = {}
        for i in range(start, len(self.spans)):
            name, t0, t1, _ = self.spans[i]
            total, own, calls = out.get(name, (0.0, 0.0, 0))
            dur = t1 - t0
            out[name] = (total + dur, own + dur - child[i - start], calls + 1)
        return out

    def dump(self, path: Path, meta: dict[str, Any]) -> None:
        """Write every span (``[name, start, end, parent]``) as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"meta": meta, "fields": ["name", "start", "end", "parent"],
                   "spans": self.spans}
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
