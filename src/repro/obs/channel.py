"""The worker sink channel: telemetry across a process boundary.

Installed sinks are process-wide, so a pool worker cannot record into
its parent's.  Three calls carry them across instead:

* :func:`sink_spec` (parent) names the installed sinks, as a small
  picklable value sent with each task;
* :class:`fresh_sinks` (worker) installs a fresh sink for each one
  named, for the ``with`` block, and packs what they recorded into one
  picklable :meth:`~fresh_sinks.payload`;
* :func:`graft` (parent) folds that payload into the installed sinks:
  spans are re-parented under the open span with fresh ids, and
  metrics and profile counts add.

A process that owns its sinks outright — the CLI, a test — opens them
with :class:`fresh_sinks` too and reads them off the context.
"""

from __future__ import annotations

from contextlib import ExitStack
from typing import Any, Collection, Dict, Optional, Tuple

from repro.obs.metrics import MetricsRegistry, collecting, current_metrics
from repro.obs.profiler import SamplingProfiler, current_profiler, profiling
from repro.obs.trace import Tracer, current_tracer, tracing

#: What a worker's sinks recorded, keyed ``"spans"``, ``"metrics"`` and
#: ``"profile"`` (each present only if recorded).
Payload = Dict[str, Any]


def sink_spec() -> Optional[Tuple[str, ...]]:
    """The names of the installed sinks (``"trace"``, ``"metrics"``,
    ``"profile"``) for :class:`fresh_sinks`; ``None`` when no sink is
    installed."""
    installed = (
        ("trace", current_tracer()),
        ("metrics", current_metrics()),
        ("profile", current_profiler()),
    )
    names = tuple(name for name, sink in installed if sink is not None)
    return names or None


class fresh_sinks:
    """``with fresh_sinks(names, worker=label) as sinks:`` — a fresh
    sink for each one ``names`` holds, installed for the block.

    The sinks are readable as :attr:`tracer`, :attr:`metrics` and
    :attr:`profiler` (``None`` when not named); ``worker`` tags the
    spans.  Leaving the block restores whatever was installed before
    and stops the profiler.
    """

    def __init__(
        self, names: Optional[Collection[str]] = None, *, worker: Optional[str] = None
    ) -> None:
        names = names or ()
        self.tracer = Tracer(worker=worker) if "trace" in names else None
        self.metrics = MetricsRegistry() if "metrics" in names else None
        self.profiler = SamplingProfiler() if "profile" in names else None
        self._scopes = ExitStack()

    def __enter__(self) -> "fresh_sinks":
        scopes = self._scopes
        if self.tracer is not None:
            scopes.enter_context(tracing(self.tracer))
        if self.metrics is not None:
            scopes.enter_context(collecting(self.metrics))
        if self.profiler is not None:
            scopes.enter_context(profiling(self.profiler))
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        return self._scopes.__exit__(*exc_info)

    def payload(self) -> Optional[Payload]:
        """What the sinks recorded, as plain picklable data; ``None``
        when no sink was named."""
        payload: Payload = {}
        if self.tracer is not None:
            payload["spans"] = self.tracer.to_payload()
        if self.metrics is not None:
            payload["metrics"] = self.metrics.snapshot()
        if self.profiler is not None:
            payload["profile"] = self.profiler.to_payload()
        return payload or None


def graft(payload: Optional[Payload]) -> None:
    """Fold a :meth:`fresh_sinks.payload` into the installed sinks.

    Spans get fresh ids and hang under the current span; counters and
    histograms add, gauges take the payload's value; profile counts
    add.  Parts with no installed sink to take them are dropped.
    """
    if not payload:
        return
    tracer = current_tracer()
    if tracer is not None and "spans" in payload:
        tracer.ingest(payload["spans"])
    registry = current_metrics()
    if registry is not None and "metrics" in payload:
        registry.merge(payload["metrics"])
    profiler = current_profiler()
    if profiler is not None and "profile" in payload:
        profiler.merge(payload["profile"])
