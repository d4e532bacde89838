"""The worker sink channel: telemetry across a process boundary.

Installed sinks are process-wide, so a pool worker cannot record into
its parent's.  Three calls carry them across instead:

* :func:`sink_spec` (parent) names the installed sinks, with the event
  log's slow-op budgets, as a small picklable value sent with each task;
* :class:`fresh_sinks` (worker) installs a fresh sink for each one
  named, for the ``with`` block, and packs what they recorded into one
  picklable :meth:`~fresh_sinks.payload`;
* :func:`graft` (parent) folds that payload into the installed sinks:
  spans are re-parented under the open span with fresh ids, the trace's
  old→new id map re-links the events, and metrics and profile counts
  add.

A process that owns its sinks outright — the CLI, a test — opens them
with :class:`fresh_sinks` too and reads them off the context.
"""

from __future__ import annotations

from contextlib import ExitStack
from typing import Any, Dict, Mapping, Optional

from repro.obs.events import EventLog, current_events, emitting
from repro.obs.metrics import MetricsRegistry, collecting, current_metrics
from repro.obs.profiler import SamplingProfiler, current_profiler, profiling
from repro.obs.trace import Tracer, current_tracer, tracing

#: ``{sink: options}`` for the sinks ``"trace"``, ``"metrics"``,
#: ``"profile"`` and ``"events"``; only the event log takes options
#: (its :class:`~repro.obs.events.EventLog` slow-op budgets).
SinkSpec = Mapping[str, Mapping[str, Any]]

#: What a worker's sinks recorded, keyed ``"spans"``, ``"metrics"``,
#: ``"profile"`` and ``"events"`` (each present only if recorded).
Payload = Dict[str, Any]


def sink_spec() -> Optional[Dict[str, Dict[str, Any]]]:
    """The installed sinks, named for :class:`fresh_sinks`; ``None``
    when no sink is installed."""
    spec: Dict[str, Dict[str, Any]] = {}
    if current_tracer() is not None:
        spec["trace"] = {}
    if current_metrics() is not None:
        spec["metrics"] = {}
    if current_profiler() is not None:
        spec["profile"] = {}
    log = current_events()
    if log is not None:
        budgets = log.budget_spec()
        spec["events"] = {
            "slow_op_budgets": budgets["budgets"],
            "default_slow_op_budget": budgets["default"],
        }
    return spec or None


class fresh_sinks:
    """``with fresh_sinks(spec, worker=label) as sinks:`` — a fresh
    sink for each one ``spec`` names, installed for the block.

    The sinks are readable as :attr:`tracer`, :attr:`metrics`,
    :attr:`profiler` and :attr:`events` (``None`` when not named);
    ``worker`` tags their spans and events.  Leaving the block restores
    whatever was installed before and stops the profiler.
    """

    def __init__(
        self, spec: Optional[SinkSpec] = None, *, worker: Optional[str] = None
    ) -> None:
        spec = spec or {}
        self.tracer = Tracer(worker=worker) if "trace" in spec else None
        self.metrics = MetricsRegistry() if "metrics" in spec else None
        self.profiler = SamplingProfiler() if "profile" in spec else None
        self.events = (
            EventLog(worker=worker, **spec["events"]) if "events" in spec else None
        )
        self._scopes = ExitStack()

    def __enter__(self) -> "fresh_sinks":
        scopes = self._scopes
        if self.tracer is not None:
            scopes.enter_context(tracing(self.tracer))
        if self.metrics is not None:
            scopes.enter_context(collecting(self.metrics))
        if self.profiler is not None:
            scopes.enter_context(profiling(self.profiler))
        if self.events is not None:
            scopes.enter_context(emitting(self.events))
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
        if self.events is not None:
            payload["events"] = self.events.to_payload()
        return payload or None


def graft(payload: Optional[Payload]) -> None:
    """Fold a :meth:`fresh_sinks.payload` into the installed sinks.

    Spans get fresh ids and hang under the current span; events keep
    their span links through the same id map, and lose them when the
    trace was not grafted; counters and histograms add, gauges take the
    payload's value; profile counts add.  Parts with no installed sink
    to take them are dropped.
    """
    if not payload:
        return
    id_map: Dict[str, str] = {}
    tracer = current_tracer()
    if tracer is not None and "spans" in payload:
        tracer.ingest(payload["spans"], id_map=id_map)
    registry = current_metrics()
    if registry is not None and "metrics" in payload:
        registry.merge(payload["metrics"])
    profiler = current_profiler()
    if profiler is not None and "profile" in payload:
        profiler.merge(payload["profile"])
    log = current_events()
    if log is not None and "events" in payload:
        log.ingest(payload["events"], span_map=id_map or None)
