"""In-memory spans around calls into the program's layers.

A span records name, start, end, parent and workload. Spans stay in
memory while the benchmark runs and are written once, when it ends.
The benchmark records spans only from its own code: ``patched`` swaps a
module attribute for a timing wrapper for the length of a ``with``
block, so calls the program makes through that attribute are spanned
without editing the program.

Only patch attributes that the driver process calls. A function that a
Spark task pickles must stay the program's own, because executors
import the program, not this benchmark.
"""
from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    workload: str
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; a disabled tracer records nothing and patches
    nothing, so untraced runs execute the program unchanged."""

    def __init__(self, workload: str, enabled: bool):
        self.workload = workload
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._ids = 0

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """Record a span around the ``with`` body. ``attrs`` (including
        any the body adds to the yielded dict) stay with the span."""
        if not self.enabled:
            yield attrs
            return
        sid = self._ids
        self._ids += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, self.workload, attrs))

    @contextlib.contextmanager
    def patched(self, targets):
        """Wrap ``getattr(obj, attr)`` in a span named ``name`` for each
        ``(obj, attr, name, keep)`` in ``targets``; ``keep(args, kwargs)``
        returns the attrs to store with the span (or None). Restores the
        originals on exit."""
        if not self.enabled:
            yield
            return
        saved = []
        try:
            for obj, attr, name, keep in targets:
                orig = getattr(obj, attr)
                saved.append((obj, attr, orig))
                setattr(obj, attr, self._wrap(orig, name, keep))
            yield
        finally:
            for obj, attr, orig in reversed(saved):
                setattr(obj, attr, orig)

    def _wrap(self, fn, name, keep):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = keep(args, kwargs) if keep else None
            with self.span(name, **(attrs or {})):
                return fn(*args, **kwargs)

        return wrapper

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def write(self, path) -> None:
        """Write spans as JSON lines; attrs that are not plain JSON
        (arrays, datasets) are left out."""
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                attrs = {k: v for k, v in s.attrs.items() if _plain(v)}
                fh.write(
                    json.dumps(
                        {
                            "id": s.id, "name": s.name, "start": s.start,
                            "end": s.end, "parent": s.parent,
                            "workload": s.workload, "attrs": attrs,
                        }
                    )
                    + "\n"
                )


def _plain(v) -> bool:
    return isinstance(v, (str, int, float, bool)) or v is None
