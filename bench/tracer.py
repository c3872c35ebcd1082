"""Self-time tracer for one benchmark pass.

Wraps the functions the suite calls at each layer boundary and keeps, per
span name, a call count and self seconds: the span's duration minus the part
its child spans cover.  Spans nest through one stack, so the self times of
all names add up to the duration of the root spans.  Per-call observers
(texts parsed, steps executed, tree sizes) run outside every span: their
time is taken out of the parent's self time and out of the wall time.
"""

from __future__ import annotations

import functools
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from typing import Callable


@dataclass
class SpanStat:
    calls: int = 0
    self_s: float = 0.0


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, SpanStat] = {}
        self.root_s = 0.0       # summed duration of spans opened with an empty stack
        self.excluded_s = 0.0   # observer time inside root spans
        self._stack: list[float] = []  # child time seen by each open span

    @property
    def wall_s(self) -> float:
        return self.root_s - self.excluded_s

    def stat(self, name: str) -> SpanStat:
        return self.stats.setdefault(name, SpanStat())

    def wrap(self, name: str, fn: Callable, observe: Callable | None = None) -> Callable:
        """``fn`` as a span named ``name``.

        ``observe(args, result, elapsed)`` runs after each call that returned,
        outside every span.
        """
        stat = self.stat(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            returned = False
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                elapsed = clock() - start
                stat.calls += 1
                stat.self_s += elapsed - stack.pop()
                hidden = 0.0
                if observe is not None and returned:
                    t0 = clock()
                    observe(args, result, elapsed)
                    hidden = clock() - t0
                if stack:
                    stack[-1] += elapsed + hidden
                    self.excluded_s += hidden
                else:
                    self.root_s += elapsed

        return span


@contextmanager
def patched(target: object, name: str, value: object):
    """Set ``target.name`` to ``value`` for the duration of the block."""
    old = getattr(target, name)
    setattr(target, name, value)
    try:
        yield
    finally:
        setattr(target, name, old)


@contextmanager
def instrumented(tracer: Tracer, wraps: list[tuple[object, str, str, Callable | None]]):
    """Replace each ``(target, attribute, span name, observer)`` with a span."""
    with ExitStack() as stack:
        for target, attr, name, observe in wraps:
            stack.enter_context(
                patched(target, attr, tracer.wrap(name, getattr(target, attr), observe))
            )
        yield tracer
