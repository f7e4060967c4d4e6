"""In-memory span recorder for the traced benchmark run.

A span records its name, start, end, parent span and run id.  Spans
stay in a list until :meth:`Tracer.dump` writes them out once, at the
end of the run.  A disabled tracer records nothing, so the timed runs
pay one attribute check per span site.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, TypeVar

T = TypeVar("T")

# Field positions inside one span record.
NAME, START, END, PARENT, RUN = range(5)

_DONE = object()


class Tracer:
    """Nested spans around the benchmark's calls into the program."""

    def __init__(self, run_id: str, enabled: bool) -> None:
        self.run_id = run_id
        self.enabled = enabled
        self.spans: List[list] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(
            [name, time.perf_counter(), None, parent, self.run_id]
        )
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][END] = time.perf_counter()

    def each_next(self, name: str, items: Iterable[T]) -> Iterator[T]:
        """Yield from ``items`` with one span around every ``next()``.

        The spans nest under whichever span is open when the consumer
        pulls, which is how loader time inside training is attributed.
        """
        iterator = iter(items)
        while True:
            with self.span(name):
                item = next(iterator, _DONE)
            if item is _DONE:
                return
            yield item  # type: ignore[misc]

    def durations(self, name: str) -> List[float]:
        return [s[END] - s[START] for s in self.spans if s[NAME] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_time(self, name: str) -> float:
        """Summed duration of ``name`` spans minus their children's.

        Children of one span run one after another on one thread, so
        the time they cover is the sum of their durations.
        """
        covered: Dict[int, float] = {}
        for span in self.spans:
            parent = span[PARENT]
            if parent is not None:
                covered[parent] = (
                    covered.get(parent, 0.0) + span[END] - span[START]
                )
        return sum(
            span[END] - span[START] - covered.get(index, 0.0)
            for index, span in enumerate(self.spans)
            if span[NAME] == name
        )

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                "run_id": self.run_id,
                "fields": ["name", "start", "end", "parent", "run_id"],
                "spans": self.spans,
            }, handle)
