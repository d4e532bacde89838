"""The sampling profiler: folded stacks attributed to ``obs`` spans.

The span tracer (:mod:`repro.obs.trace`) answers *which operation* was
hot; this module answers *which line of code inside it*.  A
:class:`SamplingProfiler` runs a background thread that wakes at a
configurable rate (:data:`DEFAULT_HZ`, overridable with the
``REPRO_PROFILE_HZ`` environment variable), snapshots every thread's
Python stack via :func:`sys._current_frames`, and counts **folded
stacks** — semicolon-joined frame lists in the collapsed format that
flamegraph tooling (``flamegraph.pl``, speedscope, inferno) consumes
directly.

Three properties mirror the rest of ``repro.obs``:

* **zero dependencies** — the sampler is a plain daemon thread over
  standard-library introspection; no signal handlers, no C extension,
  safe inside process-pool workers;
* **span attribution** — each sample's first folded segment is the
  innermost *open* span of the sampled thread (the tracer maintains a
  per-thread span-name stack exactly for this), so a collapsed stack
  reads ``batch.chunk;sweep.py:sweep_plane;...`` and flamegraphs
  group by operation before function;
* **mergeable across processes** — a worker profiler ships its counts
  as a plain dict (:meth:`SamplingProfiler.to_payload`); the parent
  folds them in (:meth:`SamplingProfiler.merge`), tagging no ids — a
  folded stack is its own identity, so merging is counter addition.

Sampling cost is bounded by the rate, not the workload: at the default
~97 Hz a sample walks each live thread's frames once every ~10 ms,
which benchmarks (``benchmarks/bench_obs.py``, ``profiled`` mode) hold
under the documented budget versus an unprofiled run.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from typing import Dict, List, Mapping, Optional, Tuple

from repro.obs.trace import thread_span_name

#: Environment variable overriding the default sampling rate (Hz).
ENV_PROFILE_HZ = "REPRO_PROFILE_HZ"

#: Default sampling rate.  A prime just under 100 Hz, so the sampler
#: cannot phase-lock with 10 ms schedulers and systematically hit (or
#: miss) the same code.
DEFAULT_HZ = 97.0

#: Frames deeper than this are truncated (folded stacks stay bounded).
MAX_STACK_DEPTH = 64

#: The folded segment used when the sampled thread has no open span.
NO_SPAN = "<no-span>"


def default_hz() -> float:
    """The sampling rate: ``REPRO_PROFILE_HZ`` or :data:`DEFAULT_HZ`.

    A malformed or non-positive override is ignored rather than fatal —
    profiling is diagnostics, and diagnostics must not take the run
    down with them.
    """
    raw = os.environ.get(ENV_PROFILE_HZ)
    if raw:
        try:
            value = float(raw)
        except ValueError:
            return DEFAULT_HZ
        if value > 0.0:
            return value
    return DEFAULT_HZ


def _frame_label(filename: str, function: str) -> str:
    """One folded-stack segment: ``basename.py:function``.

    Semicolons separate folded segments, so any in the inputs are
    replaced; the full path is dropped (stacks from different workers
    and checkouts must fold together).
    """
    base = os.path.basename(filename)
    return f"{base}:{function}".replace(";", ",")


class SamplingProfiler:
    """Samples all thread stacks on a timer; counts folded stacks.

    ``with SamplingProfiler(hz=97) as profiler: ...`` starts and stops
    the sampling thread around the block; :meth:`start` / :meth:`stop`
    are the explicit spelling.  Counts accumulate across restarts, so
    one profiler can cover several regions of interest.
    """

    def __init__(
        self,
        hz: Optional[float] = None,
        *,
        max_depth: int = MAX_STACK_DEPTH,
    ) -> None:
        resolved = default_hz() if hz is None else float(hz)
        if resolved <= 0.0:
            raise ValueError(f"sampling rate must be positive, got {hz!r}")
        self.hz = resolved
        self._interval = 1.0 / resolved
        self._max_depth = max_depth
        self._counts: Dict[str, int] = {}
        self._samples = 0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ----------------------------------------------------

    def start(self) -> "SamplingProfiler":
        """Start the sampling thread (idempotent while running)."""
        if self._thread is not None and self._thread.is_alive():
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-obs-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> "SamplingProfiler":
        """Stop sampling and join the thread; counts are retained."""
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=max(1.0, 10.0 * self._interval))
            self._thread = None
        return self

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc_info: object) -> bool:
        self.stop()
        return False

    # -- sampling -----------------------------------------------------

    def _run(self) -> None:
        own_thread = threading.get_ident()
        while not self._stop.wait(self._interval):
            self._sample_once(own_thread)

    def _sample_once(self, own_thread: int) -> None:
        """One snapshot of every live thread's stack."""
        frames = sys._current_frames()
        folded: List[str] = []
        for thread_id, frame in frames.items():
            if thread_id == own_thread:
                continue
            stack: List[str] = []
            depth = 0
            current = frame
            while current is not None and depth < self._max_depth:
                code = current.f_code
                stack.append(_frame_label(code.co_filename, code.co_name))
                current = current.f_back
                depth += 1
            stack.append(thread_span_name(thread_id) or NO_SPAN)
            stack.reverse()  # root (span) first, leaf last: folded order
            folded.append(";".join(stack))
        with self._lock:
            self._samples += 1
            for stack_key in folded:
                self._counts[stack_key] = self._counts.get(stack_key, 0) + 1

    # -- reading / exporting -----------------------------------------

    @property
    def samples(self) -> int:
        """Sampling ticks taken (each tick covers every live thread)."""
        with self._lock:
            return self._samples

    def counts(self) -> Dict[str, int]:
        """A copy of the folded-stack counts."""
        with self._lock:
            return dict(self._counts)

    def to_folded(self) -> str:
        """The collapsed-stack text format: ``stack;frames count`` lines.

        Sorted by count descending (ties lexicographic) so the hottest
        stacks lead; flamegraph tools accept any order.
        """
        counts = self.counts()
        ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
        return "".join(f"{stack} {count}\n" for stack, count in ranked)

    def export_folded(self, path: str) -> None:
        """Write :meth:`to_folded` to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_folded())

    def top_functions(
        self, top: Optional[int] = 10
    ) -> List[Tuple[str, int, float]]:
        """Leaf-frame ranking: ``(function, samples, percent)`` rows.

        The leaf of each folded stack is where the CPU actually was when
        the sampler fired, so ranking leaves approximates self time the
        way :func:`repro.obs.report.hot_paths` does for spans — but at
        function granularity.
        """
        totals: Dict[str, int] = {}
        for stack_key, count in self.counts().items():
            leaf = stack_key.rsplit(";", 1)[-1]
            totals[leaf] = totals.get(leaf, 0) + count
        grand_total = sum(totals.values())
        ranked = sorted(totals.items(), key=lambda item: (-item[1], item[0]))
        if top is not None:
            ranked = ranked[:top]
        return [
            (name, count, 100.0 * count / grand_total if grand_total else 0.0)
            for name, count in ranked
        ]

    def render_top(self, top: Optional[int] = 10) -> str:
        """The :meth:`top_functions` table as aligned text."""
        rows = self.top_functions(top)
        if not rows:
            return "(no samples)"
        width = max(len(name) for name, *_ in rows)
        return "\n".join(
            f"{name:<{width}}  {count:>8}  {share:>5.1f}%"
            for name, count, share in rows
        )

    # -- cross-process merge -----------------------------------------

    def to_payload(self) -> Dict[str, object]:
        """The counts as a plain picklable dict (the merge wire form)."""
        with self._lock:
            return {"samples": self._samples, "counts": dict(self._counts)}

    def merge(self, payload: Mapping[str, object]) -> None:
        """Fold another profiler's payload into this one.

        Folded stacks are self-identifying, so merging is pure counter
        addition — the parent's flamegraph covers every process.
        """
        counts = payload.get("counts")
        if not isinstance(counts, dict):
            return
        with self._lock:
            self._samples += int(payload.get("samples", 0) or 0)
            for stack_key, count in counts.items():
                self._counts[stack_key] = self._counts.get(stack_key, 0) + int(
                    count
                )


def parse_folded(text: str) -> Dict[str, int]:
    """Parse collapsed-stack text back into folded-stack counts.

    Raises :class:`ValueError` on a malformed line (no count, or a
    non-integer count) — callers wanting lenient ingestion should catch
    it; the CLI turns it into one clean error line.
    """
    counts: Dict[str, int] = {}
    for line_number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        stack_key, _, count_text = line.rpartition(" ")
        if not stack_key:
            raise ValueError(
                f"line {line_number}: expected '<stack> <count>', got {line!r}"
            )
        try:
            count = int(count_text)
        except ValueError:
            raise ValueError(
                f"line {line_number}: sample count {count_text!r} "
                "is not an integer"
            ) from None
        counts[stack_key] = counts.get(stack_key, 0) + count
    return counts


def render_folded_top(
    counts: Mapping[str, int], *, top: Optional[int] = 10
) -> str:
    """Top-function table for already-parsed folded counts."""
    profiler = SamplingProfiler(hz=1.0)
    profiler.merge({"samples": 0, "counts": dict(counts)})
    return profiler.render_top(top)


# ---------------------------------------------------------------------------
# The installed (global) profiler
# ---------------------------------------------------------------------------

_ACTIVE: Optional[SamplingProfiler] = None


def install_profiler(
    profiler: Optional[SamplingProfiler] = None,
) -> SamplingProfiler:
    """Install ``profiler`` (default: fresh, at :func:`default_hz`) and
    start it.  Like the tracer/registry, installation is what makes the
    batch executor ask pool workers to profile their chunks."""
    global _ACTIVE
    _ACTIVE = profiler if profiler is not None else SamplingProfiler()
    _ACTIVE.start()
    return _ACTIVE


def uninstall_profiler() -> Optional[SamplingProfiler]:
    """Stop and remove the installed profiler; returns it."""
    global _ACTIVE
    profiler, _ACTIVE = _ACTIVE, None
    if profiler is not None:
        profiler.stop()
    return profiler


def current_profiler() -> Optional[SamplingProfiler]:
    """The installed profiler, or ``None`` while profiling is off."""
    return _ACTIVE


class profiling:
    """``with profiling() as profiler:`` — scoped install/uninstall.

    Restores whatever profiler (or ``None``) was installed before, so
    scopes nest safely in tests; the previous profiler is *not*
    restarted if it was stopped.
    """

    def __init__(self, profiler: Optional[SamplingProfiler] = None) -> None:
        self._profiler = (
            profiler if profiler is not None else SamplingProfiler()
        )
        self._previous: Optional[SamplingProfiler] = None

    def __enter__(self) -> SamplingProfiler:
        self._previous = current_profiler()
        install_profiler(self._profiler)
        return self._profiler

    def __exit__(self, *exc_info: object) -> bool:
        global _ACTIVE
        self._profiler.stop()
        _ACTIVE = self._previous
        return False
