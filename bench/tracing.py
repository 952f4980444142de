"""Spans recorded from outside the program.

The tracer wraps the layers' public functions at every module attribute
that binds them (a function imported with `from .scarf import solve_scarf`
is bound in `shm` and `cacq` as well as in `scarf`), records one span per
call, and restores the originals afterwards.  The program itself is not
changed.  Spans stay in memory until `write_jsonl` at the end of a run.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Callable


@dataclass(slots=True)
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    request: str | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


@dataclass(frozen=True)
class Target:
    """Wrap `module.attr` as span `span`; `attrs(args, result)` adds counters."""

    module: str
    attr: str
    span: str
    attrs: Callable | None = None


class Tracer:
    def __init__(self, targets=(), clock=time.perf_counter_ns):
        self.clock = clock
        self.targets = tuple(targets)
        self.spans: list[Span] = []
        self.request: str | None = None
        self._stack: list[Span] = []
        self._bindings = []  # (module object, attribute name, original, wrapper)

    def bind(self):
        """Find every binding of the targets in the `nearstable` modules imported now."""
        self._bindings = []
        for target in self.targets:
            original = getattr(sys.modules[target.module], target.attr)
            wrapper = self._wrap(target, original)
            for module in list(sys.modules.values()):
                name = getattr(module, "__name__", "")
                if name != "nearstable" and not name.startswith("nearstable."):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._bindings.append((module, attr, original, wrapper))

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, self.clock(), 0, parent, self.request)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span):
        span.end_ns = self.clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def _wrap(self, target: Target, original):
        def wrapper(*args, **kwargs):
            span = self.open(target.span)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(span)
            if target.attrs is not None:
                span.attrs.update(target.attrs(args, result))
            return result

        wrapper.__wrapped__ = original
        return wrapper

    @contextmanager
    def installed(self):
        """Route every bound target through its span wrapper for the block."""
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for module, attr, original, _ in self._bindings:
                setattr(module, attr, original)

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span), sort_keys=True) + "\n")


def self_times(spans) -> dict[int, int]:
    """Span id -> duration minus the time its direct children cover, in ns.

    Spans come from one thread and nest strictly, so the children of a
    span are disjoint and their durations add up to the covered time.
    """
    own = {s.id: s.duration_ns for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration_ns
    return own
