"""Span tracing for the benchmark, attached to bhdimer from the outside.

`Tracer.installed` replaces public bhdimer functions by timing wrappers in
every loaded bhdimer module that binds them, so a call is traced whichever
module it is looked up from, and puts the originals back afterwards. Nothing
in the package itself changes.

A span records its name, start and end (seconds since the tracer was made),
the span that was open when it began (the traced root for calls made on
worker threads), the cell (sweep entry) it belongs to, its thread and the
growth of the process's peak resident memory across the call. Spans are kept in memory and written out by `write`.
"""

from __future__ import annotations

import functools
import itertools
import json
import resource
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Callable


def maxrss_kb() -> int:
    """Peak resident set size of this process so far, in KiB (Linux units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    cell: str | None
    thread: int
    rss_growth_kb: int
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Hook:
    """How to trace one function.

    cell_of(args) names the cell a call opens (None: inherit the caller's).
    on_return(args, result, span) runs after the span has closed and may
    add counts to span.counts; it must stay cheap.
    """

    cell_of: Callable | None = None
    on_return: Callable | None = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._t0 = time.perf_counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: int | None = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, cell: str | None = None):
        """Time the enclosed block as one span; yields the Span, closed on exit."""
        stack = self._stack()
        if cell is None and stack:
            cell = stack[-1].cell
        s = Span(
            id=next(self._ids),
            name=name,
            start=0.0,
            end=0.0,
            parent=stack[-1].id if stack else self._root,
            cell=cell,
            thread=threading.get_ident(),
            rss_growth_kb=0,
        )
        is_root = self._root is None
        if is_root:
            self._root = s.id
        stack.append(s)
        rss0 = maxrss_kb()
        s.start = time.perf_counter() - self._t0
        try:
            yield s
        finally:
            s.end = time.perf_counter() - self._t0
            s.rss_growth_kb = maxrss_kb() - rss0
            stack.pop()
            if is_root:
                self._root = None
            self.spans.append(s)

    def wrap(self, fn: Callable, name: str, hook: Hook = Hook()) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            cell = hook.cell_of(args) if hook.cell_of else None
            with self.span(name, cell) as s:
                result = fn(*args, **kwargs)
            if hook.on_return:
                hook.on_return(args, result, s)
            return result

        return traced

    @contextmanager
    def installed(self, package: str, hooks: dict[str, Hook]):
        """Trace the named functions of `package` for the enclosed block.

        Raises LookupError when a name is bound to no function, or to two
        different objects, in the package's loaded modules: a benchmark that
        silently traced nothing would report zeros.
        """
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == package or key.startswith(package + "."))
        ]
        patches = []
        for name, hook in hooks.items():
            bound = [m for m in modules if callable(getattr(m, name, None))]
            originals = {id(getattr(m, name)) for m in bound}
            if len(originals) != 1:
                raise LookupError(
                    f"{package}: {name!r} is bound to {len(originals)} distinct "
                    "objects; update the benchmark's span list"
                )
            original = getattr(bound[0], name)
            traced = self.wrap(original, name, hook)
            for m in bound:
                patches.append((m, name, original))
                setattr(m, name, traced)
        try:
            yield self
        finally:
            for m, name, original in reversed(patches):
                setattr(m, name, original)

    def write(self, path) -> None:
        """Write every span as one JSON line, in order of completion."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s), sort_keys=True) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by child spans.

    Children on worker threads can overlap each other, so the covered part
    is the length of the union of the children's intervals.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.duration - covered
    return out
