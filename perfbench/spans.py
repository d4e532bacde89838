"""The benchmark's own in-memory span recorder.

Each op gets one root span carrying its op id; every call the benchmark
makes into a layer's public function gets a child span named after the
layer.  Spans stay in memory and are written out once, when the run
ends.  With recording off, :meth:`Recorder.call` is a plain call, so the
untraced runs that produce the end-to-end metrics pay nothing for it.
Each span keeps the machine-speed scale (see ``speed.py``) that held
when it began; self times are scaled by it.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple


class Span:
    __slots__ = ("name", "op", "start", "end", "parent", "scale")

    def __init__(self, name: str, op: Optional[int], start: float, parent: int,
                 scale: float = 1.0) -> None:
        self.name = name
        self.op = op
        self.start = start
        self.end = start
        self.parent = parent  # index into Recorder.spans, -1 for a root
        self.scale = scale


class Recorder:
    def __init__(self) -> None:
        self.enabled = False
        self.scale = 1.0  # given to the spans that begin now
        self.spans: List[Span] = []
        self._stack: List[int] = []

    def begin(self, name: str, op: Optional[int] = None) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append(Span(name, op, time.perf_counter(), parent, self.scale))

    def end(self) -> None:
        self.spans[self._stack.pop()].end = time.perf_counter()

    def call(self, name: str, function: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """``function(*args, **kwargs)``, inside a span when recording."""
        if not self.enabled:
            return function(*args, **kwargs)
        self.begin(name)
        try:
            return function(*args, **kwargs)
        finally:
            self.end()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "parent": span.parent, "op": span.op,
                    "name": span.name, "start": span.start, "end": span.end,
                    "scale": span.scale,
                }) + "\n")


def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Per span name, the summed self time: each span's duration minus
    the part of it that its child spans cover, times the span's scale."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    totals: Dict[str, float] = {}
    for index, span in enumerate(spans):
        own = span.end - span.start - covered(children.get(index, ()), span.start, span.end)
        totals[span.name] = totals.get(span.name, 0.0) + own * span.scale
    return totals
