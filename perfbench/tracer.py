"""Outside-in tracer: wraps the library's public functions at the names their
callers look up, records one span per call, and restores every wrap on exit.

Nothing in the library knows about it.  A span is
``(id, name, start, end, parent id, record id, phase)``; spans stay in memory
until :meth:`Tracer.write` dumps them.  Some wraps only count calls (no span)
because the function is too small and too frequent to time one call at a time.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable


class TraceError(RuntimeError):
    """The trace cannot be trusted: a wrapped name is gone, or a layer the
    workload must exercise recorded no calls."""


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    record: str | None
    phase: str | None
    attrs: dict[str, Any] = field(default_factory=dict)


Hook = Callable[["Tracer", Span, tuple, dict, Any], None]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []
        self.enabled = False
        self.phase: str | None = None
        self.record: str | None = None
        #: (phase, name) -> call count, for count-only wraps
        self.counts: dict[tuple[str | None, str], int] = defaultdict(int)
        #: seconds spent inside sessions
        self.enabled_s = 0.0

    # --- wrapping -------------------------------------------------------------

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        hook: Hook | None = None,
        record_arg: Callable[[tuple, dict], str | None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span named
        ``name``.  ``hook`` sees the finished span, the arguments and the
        result; ``record_arg`` names the record the call works on."""
        original = self._lookup(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            outer_record = tracer.record
            if record_arg is not None:
                tracer.record = record_arg(args, kwargs) or outer_record
            span = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(span)
                tracer.record = outer_record
            if hook is not None:
                hook(tracer, span, args, kwargs, result)
            return result

        self._patch(owner, attr, original, wrapper)

    def count(self, owner: object, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a wrapper that only counts calls, keyed
        by the current phase."""
        original = self._lookup(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.counts[(tracer.phase, name)] += 1
            return original(*args, **kwargs)

        self._patch(owner, attr, original, wrapper)

    def _lookup(self, owner: object, attr: str):
        try:
            # class attributes are read from __dict__ so a method is wrapped
            # as the plain function, not as a bound method
            return vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        except (AttributeError, KeyError) as exc:
            label = getattr(owner, "__name__", repr(owner))
            raise TraceError(f"cannot trace {label}.{attr}: the name no longer exists") from exc

    def _patch(self, owner, attr, original, wrapper) -> None:
        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(original, "__name__", attr)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Undo every wrap, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- spans ------------------------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), 0.0, parent, self.record, self.phase)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise TraceError(f"span {span.name} closed out of order")

    @contextmanager
    def span(self, name: str):
        """A benchmark-side span inside a session; a no-op outside one."""
        if not self.enabled:
            yield None
            return
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    @contextmanager
    def session(self, name: str, phase: str, install: Callable[[Tracer], None]):
        """Apply the wraps, trace everything inside as ``phase`` under a root
        span ``name``, then restore the wraps.  Outside sessions the library
        runs unwrapped."""
        try:
            install(self)
        except BaseException:
            self.restore()
            raise
        self.phase = phase
        self.enabled = True
        started = time.perf_counter()
        root = self._open(name)
        try:
            yield root
        finally:
            self._close(root)
            self.enabled = False
            self.enabled_s += time.perf_counter() - started
            self.phase = None
            self.restore()

    # --- summaries -----------------------------------------------------------

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the time its children cover."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        return [s.end - s.start - child_time[s.id] for s in self.spans]

    def children_names(self) -> dict[int, set[str]]:
        out: dict[int, set[str]] = defaultdict(set)
        for span in self.spans:
            if span.parent is not None:
                out[span.parent].add(span.name)
        return out

    def write(self, path) -> None:
        """Dump every span as one JSON object per line (gzip)."""
        selfs = self.self_seconds()
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span, self_s in zip(self.spans, selfs):
                fh.write(
                    json.dumps(
                        {
                            "id": span.id,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "self_s": self_s,
                            "parent": span.parent,
                            "record": span.record,
                            "phase": span.phase,
                            **span.attrs,
                        }
                    )
                    + "\n"
                )
