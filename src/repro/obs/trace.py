"""The span tracer: nested, timed spans with negligible disabled cost.

A :class:`Tracer` collects **spans** — named, wall-clock-timed units of
work with string-keyed attributes and a parent/child nesting structure —
across every layer of the stack: CLI command, batch sweep, batch chunk,
worker process, engine operation, repair, query clause, consistency
attempt.  Three properties drive the design:

* **zero dependencies** — plain standard library, importable everywhere
  (including inside process-pool workers);
* **no-op mode** — when no tracer is installed, the module-level
  helpers (:func:`span`, :func:`record`) return a shared null object /
  return immediately.  Instrumented hot paths pay one attribute read
  and one ``None`` check per call, which benchmarks
  (``benchmarks/bench_obs.py``) hold to well under the documented
  overhead budget;
* **mergeable across processes** — a worker process runs its own
  tracer and ships the finished spans back as plain dicts
  (:meth:`Tracer.to_payload`); the parent grafts them under any local
  span (:meth:`Tracer.ingest`), producing one coherent trace for a
  parallel sweep.

Spans are exported one JSON object per line (:meth:`Tracer.export_jsonl`)
so traces stream, concatenate, and survive partial writes; see
``docs/OBSERVABILITY.md`` for the schema.
"""

from __future__ import annotations

import json
import threading
import time
from contextvars import ContextVar
from typing import Dict, Iterable, List, Optional, Union

#: Attribute values are kept JSON-scalar so every span serialises.
AttributeValue = Union[str, int, float, bool, None]

#: Per-thread stacks of *open* span names, keyed by thread id.  The
#: sampling profiler (:mod:`repro.obs.profiler`) reads this from its own
#: thread to attribute each sample to the sampled thread's innermost
#: span — contextvars cannot be read across threads, a plain dict can.
_THREAD_SPAN_STACKS: Dict[int, List[str]] = {}


def thread_span_name(thread_id: int) -> Optional[str]:
    """The innermost open span name on ``thread_id``, or ``None``.

    Best-effort by design: reads race with span entry/exit on the
    target thread, and a stale or missing name mis-labels one sample,
    not the trace.
    """
    stack = _THREAD_SPAN_STACKS.get(thread_id)
    if stack:
        try:
            return stack[-1]
        except IndexError:  # pragma: no cover - racing pop
            return None
    return None


class Span:
    """One unit of work: a name, a duration, and free-form attributes.

    Instances are created by :meth:`Tracer.span` (live, timed by a
    ``with`` block) or :meth:`Tracer.record` (already finished).  Until
    the span finishes, :attr:`seconds` is ``None``.
    """

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "start",
        "seconds",
        "attributes",
        "worker",
        "_perf_start",
    )

    def __init__(
        self,
        name: str,
        span_id: str,
        parent_id: Optional[str],
        *,
        start: Optional[float] = None,
        seconds: Optional[float] = None,
        attributes: Optional[Dict[str, AttributeValue]] = None,
        worker: Optional[str] = None,
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = time.time() if start is None else start
        self.seconds = seconds
        self.attributes: Dict[str, AttributeValue] = dict(attributes or {})
        self.worker = worker
        self._perf_start: Optional[float] = None

    def set(self, **attributes: AttributeValue) -> "Span":
        """Attach (or overwrite) attributes; chainable."""
        self.attributes.update(attributes)
        return self

    def as_dict(self) -> Dict[str, object]:
        """The JSONL wire form of a finished span."""
        record: Dict[str, object] = {
            "name": self.name,
            "id": self.span_id,
            "parent": self.parent_id,
            "start": self.start,
            "seconds": self.seconds,
        }
        if self.attributes:
            record["attrs"] = dict(self.attributes)
        if self.worker is not None:
            record["worker"] = self.worker
        return record

    @classmethod
    def from_dict(cls, record: Dict[str, object]) -> "Span":
        return cls(
            str(record["name"]),
            str(record["id"]),
            record.get("parent"),  # type: ignore[arg-type]
            start=float(record.get("start") or 0.0),
            seconds=record.get("seconds"),  # type: ignore[arg-type]
            attributes=dict(record.get("attrs") or {}),  # type: ignore[arg-type]
            worker=record.get("worker"),  # type: ignore[arg-type]
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        timing = f"{self.seconds * 1e3:.3f} ms" if self.seconds is not None else "open"
        return f"<Span {self.name!r} {timing}>"


class _NullSpan:
    """The shared do-nothing span handed out while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def set(self, **attributes: AttributeValue) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


class _LiveSpan:
    """Context-manager wrapper timing one :class:`Span` on a tracer."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._push(self._span)
        return self._span

    def __exit__(self, *exc_info: object) -> bool:
        self._tracer._pop(self._span)
        return False


class Tracer:
    """Collects spans; thread-safe; one instance per process (or test).

    The *current* span — the innermost ``with tracer.span(...)`` block —
    is tracked per execution context (:mod:`contextvars`), so spans
    nest correctly across threads and ``asyncio`` tasks sharing one
    tracer.
    """

    def __init__(self, worker: Optional[str] = None) -> None:
        self._worker = worker
        self._spans: List[Span] = []
        self._lock = threading.Lock()
        self._next_id = 0
        self._stack: ContextVar[tuple] = ContextVar(
            "repro-obs-span-stack", default=()
        )

    # -- recording ----------------------------------------------------

    def span(self, name: str, **attributes: AttributeValue) -> _LiveSpan:
        """A live span: ``with tracer.span("phase") as s: s.set(k=v)``."""
        span = Span(
            name,
            self._allocate_id(),
            self.current_id(),
            attributes=attributes,
            worker=self._worker,
        )
        return _LiveSpan(self, span)

    def record(
        self,
        name: str,
        seconds: float,
        attributes: Optional[Dict[str, AttributeValue]] = None,
    ) -> Span:
        """Append an already-finished span under the current parent.

        The cheap path for hot call sites (one engine operation): the
        caller timed the work itself, so no context manager, no extra
        clock reads beyond the wall-clock stamp.
        """
        span = Span(
            name,
            self._allocate_id(),
            self.current_id(),
            start=time.time() - seconds,
            seconds=seconds,
            attributes=attributes,
            worker=self._worker,
        )
        with self._lock:
            self._spans.append(span)
        return span

    def current_id(self) -> Optional[str]:
        """The innermost open span's id in this execution context."""
        stack = self._stack.get()
        return stack[-1] if stack else None

    # -- reading / exporting -----------------------------------------

    @property
    def spans(self) -> List[Span]:
        """Finished spans, in completion order (children before parents)."""
        with self._lock:
            return list(self._spans)

    def to_payload(self) -> List[Dict[str, object]]:
        """The finished spans as plain dicts (picklable, JSON-able)."""
        return [span.as_dict() for span in self.spans]

    def ingest(self, payload: Iterable[Dict[str, object]]) -> List[Span]:
        """Graft another tracer's payload into this trace.

        Span ids are re-allocated from this tracer's counter (payloads
        from several workers would otherwise collide) and root spans of
        the payload — those whose parent is absent from the payload —
        are re-parented under the current span.  Each span keeps the
        worker tag its own tracer gave it.
        """
        parent_id = self.current_id()
        spans = [Span.from_dict(record) for record in payload]
        mapping = {span.span_id: self._allocate_id() for span in spans}
        for span in spans:
            span.span_id = mapping[span.span_id]
            span.parent_id = mapping.get(span.parent_id, parent_id)
        with self._lock:
            self._spans.extend(spans)
        return spans

    def to_jsonl(self) -> str:
        """Every finished span, one JSON object per line."""
        return "".join(
            json.dumps(span.as_dict(), sort_keys=True) + "\n"
            for span in self.spans
        )

    def export_jsonl(self, path: str) -> None:
        """Write :meth:`to_jsonl` to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_jsonl())

    # -- plumbing ----------------------------------------------------

    def _allocate_id(self) -> str:
        with self._lock:
            self._next_id += 1
            return str(self._next_id)

    def _push(self, span: Span) -> None:
        span._perf_start = time.perf_counter()
        self._stack.set(self._stack.get() + (span.span_id,))
        _THREAD_SPAN_STACKS.setdefault(threading.get_ident(), []).append(
            span.name
        )

    def _pop(self, span: Span) -> None:
        span.seconds = time.perf_counter() - (span._perf_start or 0.0)
        stack = self._stack.get()
        if stack and stack[-1] == span.span_id:
            self._stack.set(stack[:-1])
        else:  # pragma: no cover - mis-nested exit; drop just this id
            self._stack.set(tuple(i for i in stack if i != span.span_id))
        thread_id = threading.get_ident()
        names = _THREAD_SPAN_STACKS.get(thread_id)
        if names:
            for index in range(len(names) - 1, -1, -1):
                if names[index] == span.name:
                    del names[index]
                    break
            if not names:
                del _THREAD_SPAN_STACKS[thread_id]
        with self._lock:
            self._spans.append(span)


def load_jsonl(path: str) -> List[Span]:
    """Read spans back from a JSONL trace file."""
    spans: List[Span] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                spans.append(Span.from_dict(json.loads(line)))
    return spans


# ---------------------------------------------------------------------------
# The installed (global) tracer
# ---------------------------------------------------------------------------

_ACTIVE: Optional[Tracer] = None


def install_tracer(tracer: Optional[Tracer] = None) -> Tracer:
    """Install ``tracer`` (default: a fresh one) as the process tracer.

    Installation is what turns instrumentation on: every instrumented
    call site reads :func:`current_tracer` and does nothing when it is
    ``None``.  Returns the installed tracer.
    """
    global _ACTIVE
    _ACTIVE = tracer if tracer is not None else Tracer()
    return _ACTIVE


def uninstall_tracer() -> Optional[Tracer]:
    """Remove the installed tracer (back to no-op mode); returns it."""
    global _ACTIVE
    tracer, _ACTIVE = _ACTIVE, None
    return tracer


def current_tracer() -> Optional[Tracer]:
    """The installed tracer, or ``None`` while tracing is disabled."""
    return _ACTIVE


def span(name: str, **attributes: AttributeValue):
    """A live span on the installed tracer, or the shared null span.

    Usable unconditionally::

        with span("batch.relations", regions=n) as s:
            ...
            s.set(pairs=answered)
    """
    tracer = _ACTIVE
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, **attributes)


def record(
    name: str,
    seconds: float,
    attributes: Optional[Dict[str, AttributeValue]] = None,
) -> None:
    """Record a finished span on the installed tracer (no-op if none)."""
    tracer = _ACTIVE
    if tracer is not None:
        tracer.record(name, seconds, attributes)


class tracing:
    """``with tracing() as tracer:`` — scoped install/uninstall.

    Restores whatever tracer (or ``None``) was installed before, so
    scopes nest safely in tests.
    """

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        self._tracer = tracer if tracer is not None else Tracer()
        self._previous: Optional[Tracer] = None

    def __enter__(self) -> Tracer:
        self._previous = current_tracer()
        install_tracer(self._tracer)
        return self._tracer

    def __exit__(self, *exc_info: object) -> bool:
        global _ACTIVE
        _ACTIVE = self._previous
        return False
