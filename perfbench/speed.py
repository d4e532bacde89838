"""The machine-speed probe that every reported timing is scaled by.

On the shared machine this benchmark was defined on, the speed at which
the CPU runs Python swings by up to 2x for tens of seconds at a time
(CPU time follows it too, so ``process_time`` does not help), and every
raw timing follows it.  The benchmark therefore runs a fixed pure-Python
loop between ops, never inside an op's time stamps, about once every
``GAP_S`` seconds of ops, and reports each timing as it would read at the
loop's reference duration ``REFERENCE_S``: raw seconds times a scale,
``REFERENCE_S`` / the median of the last ``WINDOW`` probe durations,
raised to the workload's ``speed_exponent``.  The loop is the
benchmark's own code, so a change to the program cannot move it.
"""

from __future__ import annotations

import statistics
import time
from collections import deque
from typing import Deque, Iterable, List

REFERENCE_S = 0.0002  # the loop's duration at the reference speed
GAP_S = 0.02  # about one probe per this many seconds of ops
WINDOW = 9  # probes in the running median


def _loop() -> int:
    total = 0
    seen = {}
    for i in range(2400):
        total += i * i % 7
        seen[i & 63] = total
    return total


class Meter:
    """Probe durations, and the scale they give the timings around them."""

    def __init__(self) -> None:
        self.recent: Deque[float] = deque(maxlen=WINDOW)
        self.spent = 0.0  # seconds spent in probes
        self.probes = 0
        self._last = float("-inf")

    def probe(self) -> float:
        started = time.perf_counter()
        _loop()
        ended = time.perf_counter()
        self.recent.append(ended - started)
        self.spent += ended - started
        self.probes += 1
        self._last = ended
        return ended - started

    def burst(self, count: int = WINDOW) -> List[float]:
        return [self.probe() for _ in range(count)]

    def tick(self) -> None:
        """Probe once per ``GAP_S`` passed since the last probe, up to a
        full window, so that after a long op the scale is fresh."""
        gaps = int((time.perf_counter() - self._last) / GAP_S)
        for _ in range(min(gaps, WINDOW)):
            self.probe()

    def scale(self) -> float:
        """Reference over current speed: multiply a raw timing by it."""
        return scale_of(self.recent)


def scale_of(durations: Iterable[float]) -> float:
    """The scale given by a set of probe durations."""
    return REFERENCE_S / statistics.median(durations)
