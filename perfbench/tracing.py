"""Spans around the package's public functions, installed from outside it.

The package must not read clocks, so every span is opened and closed by a
wrapper this module puts in place of a function in the namespace where its
caller looks it up, and the original is put back afterwards. Primitive
invocations are too cheap to span; the package's ``METER`` counters are
read at every span boundary instead and the difference is charged to the
innermost open span.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager

from sshaf.errors import SshafError
from sshaf.primitives import METER


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "hashes", "macs", "error")

    def __init__(self, name: str, start: float, parent: int | None, op: int | None):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.hashes = 0
        self.macs = 0
        self.error = False

    def as_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


class Tracer:
    """Records spans only while a benchmark operation is open, so set-up
    and between-cycle restores leave no spans."""

    def __init__(self, meter=METER):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._meter = meter
        self._mark = meter.snapshot()
        self._op: int | None = None
        self._blind = 0
        self.ops = 0

    def _charge(self) -> None:
        now = self._meter.snapshot()
        if self._stack and not self._blind:
            top = self.spans[self._stack[-1]]
            top.hashes += now[0] - self._mark[0]
            top.macs += now[1] - self._mark[1]
        self._mark = now

    def begin(self, name: str) -> int:
        self._charge()
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent, self._op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def finish(self, index: int, error: bool = False) -> None:
        self._charge()
        span = self.spans[index]
        span.end = time.perf_counter()
        span.error = error
        if self._stack.pop() != index:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextmanager
    def op(self, kind: str):
        """Root span of one benchmark operation; spans opened inside it
        share its operation id."""
        self._op = self.ops
        self.ops += 1
        index = self.begin(f"bench.{kind}")
        try:
            yield
        finally:
            self.finish(index)
            self._op = None

    def call(self, name: str, fn, args, kwargs, counts_from_result=None):
        if self._op is None:
            return fn(*args, **kwargs)
        index = self.begin(name)
        if counts_from_result is not None:
            self._blind += 1
        try:
            result = fn(*args, **kwargs)
        except SshafError:
            self._end_call(index, counts_from_result, error=True)
            raise
        except BaseException:
            self._end_call(index, counts_from_result, error=False)
            raise
        self._end_call(index, counts_from_result, error=False)
        if counts_from_result is not None:
            span = self.spans[index]
            span.hashes, span.macs = counts_from_result(result)
        return result

    def _end_call(self, index, counts_from_result, error):
        self.finish(index, error)
        if counts_from_result is not None:
            self._blind -= 1


# --- installing wrappers -------------------------------------------------------

def _owner_and_attr(module_name: str, attr: str):
    owner = importlib.import_module(module_name)
    *classes, name = attr.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, name


@contextmanager
def installed(tracer: Tracer, wraps):
    """Replace each ``(module, attribute, span name[, counts hook])`` in
    ``wraps`` with a spanning wrapper; restore every original on exit."""
    saved = []
    try:
        for module_name, attr, span_name, *hook in wraps:
            owner, name = _owner_and_attr(module_name, attr)
            original = vars(owner)[name]
            saved.append((owner, name, original))
            setattr(owner, name, _wrapper(tracer, span_name, original, hook[0] if hook else None))
        yield tracer
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


def _wrapper(tracer: Tracer, span_name: str, fn, counts_from_result):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(span_name, fn, args, kwargs, counts_from_result)

    return wrapper


def originals(wraps) -> dict:
    """Current value of every wrapped attribute, for checking restoration."""
    out = {}
    for module_name, attr, *_ in wraps:
        owner, name = _owner_and_attr(module_name, attr)
        out[(module_name, attr)] = vars(owner)[name]
    return out


# --- self time ---------------------------------------------------------------------

def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(index, ()), key=lambda c: c.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((span.end - span.start) - covered)
    return out
