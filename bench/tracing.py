"""Spans around calls into sphereflow, recorded from the benchmark side.

A ``Tracer`` keeps every span in memory as (name, start, end, parent
index) plus named counters; the run writes them out once, at its end.
``NULL`` has the same interface and records nothing; untimed passes use
it, so they pay one extra function call per traced site and nothing more.
``Tracer.rebound`` replaces names that a sphereflow module calls through
with timing wrappers for the length of a ``with`` block, so a pipeline
inside the program is traced while the program's own function runs;
``NULL.rebound`` replaces nothing.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, ContextManager, Iterator, Mapping, Sequence

# A function of a call's arguments giving the (counter, amount) to add.
Count = Callable[..., tuple[str, int]]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self._open: list[int] = []

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kw: Any) -> Any:
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        span = [name, time.perf_counter(), 0.0, parent]
        self.spans.append(span)
        self._open.append(index)
        try:
            return fn(*args, **kw)
        finally:
            span[2] = time.perf_counter()
            self._open.pop()

    def add(self, counter: str, n: int) -> None:
        self.counts[counter] += n

    def totals(self, top_level: bool = False) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total seconds, longest seconds).

        With ``top_level``, only spans not nested in another span count.
        """
        out: dict[str, tuple[int, float, float]] = {}
        for name, start, end, parent in self.spans:
            if top_level and parent != -1:
                continue
            calls, total, longest = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + end - start, max(longest, end - start))
        return out

    @contextmanager
    def rebound(
        self,
        module: Any,
        names: Sequence[tuple[str, str]],
        counts: Mapping[str, Count] | None = None,
    ) -> Iterator[None]:
        """Route each ``module.attr`` of ``names`` (attr, span) through
        this tracer while the block runs, and put them all back after.

        ``counts`` maps an attr to a function of the call's arguments
        giving a (counter, amount) pair that is added before the call.
        """
        originals = {attr: getattr(module, attr) for attr, _ in names}
        try:
            for attr, span in names:
                setattr(module, attr, self._wrapper(span, originals[attr], (counts or {}).get(attr)))
            yield
        finally:
            for attr, original in originals.items():
                setattr(module, attr, original)

    def _wrapper(self, span: str, fn: Callable[..., Any], count: Count | None) -> Callable[..., Any]:
        def wrapper(*args: Any, **kw: Any) -> Any:
            if count is not None:
                self.add(*count(*args, **kw))
            return self.call(span, fn, *args, **kw)

        return wrapper


class _NullTracer:
    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kw: Any) -> Any:
        return fn(*args, **kw)

    def add(self, counter: str, n: int) -> None:
        pass

    def rebound(self, module: Any, names: Any, counts: Any = None) -> ContextManager[None]:
        return nullcontext()


NULL = _NullTracer()

