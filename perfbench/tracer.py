"""In-memory span tracer for the benchmark's traced mode.

Spans are recorded by wrapping public logndiv functions from inside the
benchmark process; the program itself is not modified. Installing a wrapper
rebinds every attribute of every loaded logndiv module that refers to the
original function, so calls made through `from .x import y` aliases are
seen as well. Spans are kept in a list and written out once, at the end.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, NamedTuple, Optional

_END = object()


class Span(NamedTuple):
    sid: int
    parent: Optional[int]
    op: Optional[int]
    name: str
    t0: float
    t1: float
    attrs: Optional[dict]


class Target(NamedTuple):
    """One function to trace: module.attr becomes span `name`.

    kind is "span" (one span per call), "gen" (one span per item a
    generator yields) or "count" (a call counter only, no span). tag maps
    (args, kwargs, result, exception) to span attributes; for "gen" it gets
    the yielded item as result.
    """

    module: object
    attr: str
    name: str
    kind: str = "span"
    tag: Optional[Callable] = None


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.op: Optional[int] = None
        self.phase = "main"
        self.phase_of_op: dict[int, str] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def _open(self) -> tuple[int, Optional[int]]:
        sid = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else None
        self.stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, t0, t1, attrs) -> None:
        self.stack.pop()
        self.spans[sid] = Span(sid, parent, self.op, name, t0, t1, attrs)

    @contextmanager
    def op_span(self, op_name: str):
        """Root span of one benchmark op; every span below it shares its op id."""
        self.op = len(self.phase_of_op)
        self.phase_of_op[self.op] = self.phase
        sid, parent = self._open()
        t0 = perf_counter()
        try:
            yield
        finally:
            self._close(sid, parent, "bench.op", t0, perf_counter(), {"op_name": op_name})
            self.op = None

    def _wrap_call(self, fn, name, tag):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent = tracer._open()
            result = exc = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                t1 = perf_counter()
                attrs = tag(args, kwargs, result, exc) if tag else None
                tracer._close(sid, parent, name, t0, t1, attrs)
        return wrapper

    def _wrap_gen(self, fn, name, tag):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                sid, parent = tracer._open()
                item = _END
                t0 = perf_counter()
                try:
                    item = next(it, _END)
                finally:
                    t1 = perf_counter()
                    attrs = tag(args, kwargs, item, None) if tag and item is not _END else None
                    tracer._close(sid, parent, name, t0, t1, attrs)
                if item is _END:
                    return
                yield item
        return wrapper

    def _wrap_count(self, fn, name):
        counts = self.counts[self.phase]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation --------------------------------------------------
    def install(self, targets: list[Target]) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "logndiv" or n.startswith("logndiv."))]
        for t in targets:
            orig = getattr(t.module, t.attr)
            if t.kind == "span":
                wrapper = self._wrap_call(orig, t.name, t.tag)
            elif t.kind == "gen":
                wrapper = self._wrap_gen(orig, t.name, t.tag)
            else:
                wrapper = self._wrap_count(orig, t.name)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapper)
                        self._patched.append((m, key, orig))

    def uninstall(self) -> None:
        for m, key, orig in reversed(self._patched):
            setattr(m, key, orig)
        self._patched.clear()

    @contextmanager
    def installed(self, targets: list[Target]):
        self.install(targets)
        try:
            yield
        finally:
            self.uninstall()

    # -- analysis ------------------------------------------------------
    def self_times(self) -> list[float]:
        """Self time of each span: its duration minus its direct children's
        (children of one span never overlap: the benchmark is single-threaded)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.t1 - s.t0
        return [s.t1 - s.t0 - child[s.sid] for s in self.spans]

    def write(self, path) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                rec = {"id": s.sid, "parent": s.parent, "op": s.op,
                       "phase": self.phase_of_op.get(s.op), "name": s.name,
                       "t0": s.t0, "t1": s.t1}
                if s.attrs:
                    rec.update(s.attrs)
                f.write(json.dumps(rec) + "\n")
