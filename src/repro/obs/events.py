"""The structured event log: span-correlated, severity-tagged moments.

Spans measure *durations*; events record *moments* — a worker chunk
lost, an operation running past its budget.  An
:class:`EventLog` collects :class:`Event` records (name, severity,
wall-clock stamp, free-form attributes) and correlates each with the
innermost open span of the installed tracer, so a JSONL event stream
lines up against a JSONL trace of the same run.

The log follows the ``repro.obs`` house pattern:

* **install/current** — call sites read :func:`current_events` and do
  nothing while it is ``None`` (:func:`emit` is safe unconditionally);
* **mergeable across processes** — worker logs ship
  :meth:`EventLog.to_payload` back with the batch results and the
  parent grafts them (:meth:`EventLog.ingest`), remapping span ids with
  the same mapping the trace graft produced;
* **JSONL export** — one JSON object per line
  (:meth:`EventLog.export_jsonl` / :func:`load_jsonl`), streamable and
  concatenation-safe.

**Slow-op watching** rides on the log: while an event log is installed
it observes every finished span (via
:func:`repro.obs.trace.set_span_observer`) and auto-emits a
``slow_op`` warning event for spans exceeding their per-operation
budget.  Budgets come from the constructor or the environment —
``REPRO_SLOW_OP_BUDGET`` (seconds, the default budget) and
``REPRO_SLOW_OP_BUDGETS`` (a JSON object of span-name → seconds) — so
a deployment can declare "a batch chunk over 2 s is an event" without
touching code.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.obs.trace import AttributeValue, current_tracer, set_span_observer

#: Recognised severities, mildest first.
SEVERITIES: Tuple[str, ...] = ("debug", "info", "warning", "error")

#: Environment variable: default slow-op budget in seconds.
ENV_SLOW_OP_BUDGET = "REPRO_SLOW_OP_BUDGET"

#: Environment variable: JSON object of span-name → budget seconds.
ENV_SLOW_OP_BUDGETS = "REPRO_SLOW_OP_BUDGETS"

#: The event name auto-emitted for over-budget spans.
SLOW_OP = "slow_op"


def budgets_from_env() -> Tuple[Dict[str, float], Optional[float]]:
    """``(per-span budgets, default budget)`` from the environment.

    Malformed values are ignored — the env knobs tune diagnostics and
    must never be able to crash the run they would have observed.
    """
    default: Optional[float] = None
    raw_default = os.environ.get(ENV_SLOW_OP_BUDGET)
    if raw_default:
        try:
            value = float(raw_default)
        except ValueError:
            value = -1.0
        if value >= 0.0:
            default = value
    budgets: Dict[str, float] = {}
    raw_budgets = os.environ.get(ENV_SLOW_OP_BUDGETS)
    if raw_budgets:
        try:
            parsed = json.loads(raw_budgets)
        except json.JSONDecodeError:
            parsed = None
        if isinstance(parsed, dict):
            for name, seconds in parsed.items():
                try:
                    budgets[str(name)] = float(seconds)
                except (TypeError, ValueError):
                    continue
    return budgets, default


class Event:
    """One structured moment: name, severity, stamp, span link, attrs."""

    __slots__ = ("name", "severity", "time", "span_id", "worker", "attributes")

    def __init__(
        self,
        name: str,
        severity: str = "info",
        *,
        time_stamp: Optional[float] = None,
        span_id: Optional[str] = None,
        worker: Optional[str] = None,
        attributes: Optional[Dict[str, AttributeValue]] = None,
    ) -> None:
        if severity not in SEVERITIES:
            raise ValueError(
                f"unknown severity {severity!r}; expected one of "
                f"{', '.join(SEVERITIES)}"
            )
        self.name = name
        self.severity = severity
        self.time = time.time() if time_stamp is None else time_stamp
        self.span_id = span_id
        self.worker = worker
        self.attributes: Dict[str, AttributeValue] = dict(attributes or {})

    def as_dict(self) -> Dict[str, object]:
        """The JSONL wire form."""
        record: Dict[str, object] = {
            "name": self.name,
            "severity": self.severity,
            "time": self.time,
        }
        if self.span_id is not None:
            record["span"] = self.span_id
        if self.worker is not None:
            record["worker"] = self.worker
        if self.attributes:
            record["attrs"] = dict(self.attributes)
        return record

    @classmethod
    def from_dict(cls, record: Mapping[str, object]) -> "Event":
        severity = str(record.get("severity", "info"))
        if severity not in SEVERITIES:
            severity = "info"
        span = record.get("span")
        worker = record.get("worker")
        return cls(
            str(record["name"]),
            severity,
            time_stamp=float(record.get("time") or 0.0),
            span_id=None if span is None else str(span),
            worker=None if worker is None else str(worker),
            attributes=dict(record.get("attrs") or {}),  # type: ignore[arg-type, call-overload]
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Event {self.name!r} [{self.severity}]>"


class EventLog:
    """Collects events; thread-safe; one instance per process (or test).

    ``slow_op_budgets`` maps span names to their budget in seconds;
    ``default_slow_op_budget`` applies to every other span (``None``
    disables the default watch).  Both default to the environment knobs
    (:func:`budgets_from_env`).
    """

    def __init__(
        self,
        *,
        slow_op_budgets: Optional[Mapping[str, float]] = None,
        default_slow_op_budget: Optional[float] = None,
        worker: Optional[str] = None,
    ) -> None:
        env_budgets, env_default = budgets_from_env()
        self._budgets: Dict[str, float] = (
            dict(slow_op_budgets) if slow_op_budgets is not None else env_budgets
        )
        self._default_budget = (
            default_slow_op_budget
            if default_slow_op_budget is not None
            else env_default
        )
        self._worker = worker
        self._events: List[Event] = []
        self._lock = threading.Lock()

    # -- recording ----------------------------------------------------

    def emit(
        self,
        name: str,
        severity: str = "info",
        /,
        *,
        span_id: Optional[str] = None,
        **attributes: AttributeValue,
    ) -> Event:
        """Append one event, correlated with the current span.

        ``span_id`` overrides the correlation (used by the slow-op
        watcher, which knows exactly which span went over budget);
        otherwise the installed tracer's innermost open span is used.
        """
        if span_id is None:
            tracer = current_tracer()
            if tracer is not None:
                span_id = tracer.current_id()
        event = Event(
            name,
            severity,
            span_id=span_id,
            worker=self._worker,
            attributes=attributes,
        )
        with self._lock:
            self._events.append(event)
        return event

    def budget_spec(self) -> Dict[str, object]:
        """The slow-op budgets in picklable form — shipped to pool
        workers so their logs watch with the parent's thresholds."""
        return {"budgets": dict(self._budgets), "default": self._default_budget}

    def observe_span(self, span_name: str, seconds: float, span_id: Optional[str]) -> None:
        """The slow-op watch: emit when a finished span ran over budget."""
        budget = self._budgets.get(span_name, self._default_budget)
        if budget is not None and seconds > budget:
            self.emit(
                SLOW_OP,
                "warning",
                span_id=span_id,
                span=span_name,
                seconds=round(seconds, 6),
                budget=budget,
            )

    # -- reading / exporting -----------------------------------------

    @property
    def events(self) -> List[Event]:
        """Recorded events, in emission order."""
        with self._lock:
            return list(self._events)

    def by_severity(self, minimum: str = "debug") -> List[Event]:
        """Events at or above ``minimum`` severity."""
        if minimum not in SEVERITIES:
            raise ValueError(f"unknown severity {minimum!r}")
        floor = SEVERITIES.index(minimum)
        return [
            event
            for event in self.events
            if SEVERITIES.index(event.severity) >= floor
        ]

    def to_payload(self) -> List[Dict[str, object]]:
        """The events as plain dicts (picklable, JSON-able)."""
        return [event.as_dict() for event in self.events]

    def ingest(
        self,
        payload: Iterable[Mapping[str, object]],
        *,
        worker: Optional[str] = None,
        span_map: Optional[Mapping[str, str]] = None,
    ) -> List[Event]:
        """Graft another log's payload into this one.

        ``span_map`` translates the payload's span ids into this
        process's ids — pass the mapping produced by the matching
        :meth:`repro.obs.Tracer.ingest` call so event↔span correlation
        survives the graft; unmapped ids are dropped rather than left
        dangling against the wrong trace.
        """
        grafted: List[Event] = []
        for record in payload:
            event = Event.from_dict(record)
            if worker is not None and event.worker is None:
                event.worker = worker
            if event.span_id is not None:
                if span_map is None:
                    event.span_id = None
                else:
                    event.span_id = span_map.get(event.span_id)
            grafted.append(event)
        with self._lock:
            self._events.extend(grafted)
        return grafted

    def to_jsonl(self) -> str:
        """Every event, one JSON object per line."""
        return "".join(
            json.dumps(event.as_dict(), sort_keys=True) + "\n"
            for event in self.events
        )

    def export_jsonl(self, path: str) -> None:
        """Write :meth:`to_jsonl` to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_jsonl())


def load_jsonl(path: str) -> List[Event]:
    """Read events back from a JSONL event file."""
    events: List[Event] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(Event.from_dict(json.loads(line)))
    return events


# ---------------------------------------------------------------------------
# The installed (global) event log
# ---------------------------------------------------------------------------

_ACTIVE: Optional[EventLog] = None


def _dispatch_finished_span(span: object) -> None:
    """The tracer's finished-span observer: feed the slow-op watch."""
    log = _ACTIVE
    if log is None:
        return
    seconds = getattr(span, "seconds", None)
    if seconds is None:
        return
    log.observe_span(
        getattr(span, "name", ""), float(seconds), getattr(span, "span_id", None)
    )


def _sync_span_observer() -> None:
    set_span_observer(_dispatch_finished_span if _ACTIVE is not None else None)


def install_events(log: Optional[EventLog] = None) -> EventLog:
    """Install ``log`` (default: a fresh one) as the process event log."""
    global _ACTIVE
    _ACTIVE = log if log is not None else EventLog()
    _sync_span_observer()
    return _ACTIVE


def uninstall_events() -> Optional[EventLog]:
    """Remove the installed event log (events off); returns it."""
    global _ACTIVE
    log, _ACTIVE = _ACTIVE, None
    _sync_span_observer()
    return log


def current_events() -> Optional[EventLog]:
    """The installed event log, or ``None`` while events are disabled."""
    return _ACTIVE


def emit(
    name: str,
    severity: str = "info",
    /,
    **attributes: AttributeValue,
) -> Optional[Event]:
    """Emit on the installed event log (no-op, returning ``None``, if
    none is installed)."""
    log = _ACTIVE
    if log is None:
        return None
    return log.emit(name, severity, **attributes)


class emitting:
    """``with emitting() as log:`` — scoped install/uninstall."""

    def __init__(self, log: Optional[EventLog] = None) -> None:
        self._log = log if log is not None else EventLog()
        self._previous: Optional[EventLog] = None

    def __enter__(self) -> EventLog:
        self._previous = current_events()
        install_events(self._log)
        return self._log

    def __exit__(self, *exc_info: object) -> bool:
        global _ACTIVE
        _ACTIVE = self._previous
        _sync_span_observer()
        return False
