"""Fault-isolated batch relation computation.

``RelationStore.all_relations`` historically computed every ordered pair
and let the first exception kill the whole sweep — a single malformed
polygon silenced an entire configuration.  This module computes the full
pairwise matrix with **per-pair fault isolation**:

* regions are (optionally) validated up front; invalid ones are routed
  through the repair pipeline (:mod:`repro.geometry.repair`) and used in
  repaired form, with the :class:`~repro.geometry.repair.RepairReport`
  recorded;
* regions that cannot be repaired (e.g. polygons with overlapping
  interiors, which have no canonical fix) poison only their own pairs —
  every pair of healthy regions is still answered;
* a pair whose computation raises at runtime despite validation is
  retried once after repairing both operands, then reported as an error
  outcome carrying the exception context (region ids, polygon/vertex
  indices via :class:`~repro.errors.GeometryError`).

The result is a :class:`BatchReport` of :class:`PairOutcome` entries —
``ok`` / ``repaired`` / ``error`` — never an exception for bad geometry.

Two execution paths share the isolation machinery:

* an engine that speaks the **plane protocol** (``supports_plane``,
  e.g. :class:`~repro.core.sweep.SweepEngine`) answers whole primary
  rows through ``sweep_plane`` over a
  :class:`~repro.core.plane.GeometryPlane` — the configuration the
  parent flattens once into columnar numpy arrays — serially as an
  inline run of the pool's chunk function, carved into chunks so a
  percentage sweep holds one chunk's area block at a time.  Rows the
  kernel does not answer (past a deadline, or in a chunk that raised)
  go to the per-pair loop :func:`_sweep_rows`, so fault isolation is
  preserved pair by pair; for every other engine that loop is the
  whole sweep;
* ``workers=N`` chunks the primary rows across one **persistent,
  supervised process pool** for every engine: each worker recreates the
  engine from :meth:`~repro.core.engine.Engine.worker_spec`, receives
  the sweep's geometry once at initializer time — the plane for a
  plane engine, the validated region maps otherwise; inherited under
  fork, one pickled copy per worker under spawn or forkserver, never
  pickled per chunk — and sweeps index-range chunks sized adaptively
  from observed chunk latency.  Outcomes keep primary-major order and
  per-worker :class:`~repro.core.engine.EngineStats` snapshots are
  merged into the report's stats.  Plane workers return compact
  tile-mask/area blocks the parent assembles into outcomes exactly as
  the inline run does; the others run the same :func:`_sweep_rows`
  the serial path runs.

When the observability subsystem (:mod:`repro.obs`) has sinks
installed, the sweep is traced end to end: a ``batch.relations`` root
span, one ``batch.chunk`` span per chunk (serial sweeps are one
chunk), and — under ``workers=N`` — per-worker spans recorded inside
each worker process, serialised back with the outcomes and grafted
into the parent's trace, with worker metrics merged into the installed
registry.
"""

from __future__ import annotations

import gc
import os
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import repeat
from operator import attrgetter
from typing import (
    Any,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro import obs

from repro.cardirect.model import Configuration
from repro.core.engine import (
    Engine,
    EngineLike,
    EngineStats,
    create_engine,
    resolve_engine,
)
from repro.core.guarded import DEFAULT_EPSILON
from repro.core.matrix import PercentageMatrix
from repro.core.plane import GeometryPlane
from repro.core.relation import RELATIONS_BY_MASK, CardinalDirection
from repro.core.tiles import Tile
from repro.core.validate import ERROR, validate_region
from repro.errors import DeadlineExceeded, GeometryError, InjectedFault, ReproError
from repro.geometry.bbox import BoundingBox
from repro.geometry.region import Region
from repro.geometry.repair import REPAIR, RepairReport, repair_region
from repro.resilience.deadline import (
    Deadline,
    count_deadline_exceeded,
    current_deadline,
    deadline_scope,
)
from repro.resilience.faults import fault_point, maybe_corrupt
from repro.resilience.retry import RetryPolicy, count_retry

#: Outcome statuses.
OK = "ok"
REPAIRED = "repaired"
FAILED = "error"
DEADLINE = "deadline"

#: One plain retry (no backoff) — exactly the historical behaviour of the
#: retry-after-repair path, now expressed as a policy callers can replace.
DEFAULT_BATCH_RETRY_POLICY = RetryPolicy(
    max_attempts=2, base_delay=0.0, jitter=0.0
)

#: Extra seconds the parallel supervisor waits past an expired deadline so
#: workers flushing their own deadline-labelled outcomes can still return
#: them instead of being counted as lost.
_DEADLINE_GRACE = 0.25


class PairOutcome(NamedTuple):
    """The result (or failure) of one ordered pair.

    A named tuple rather than a frozen dataclass: a plane-parallel
    sweep constructs one per pair in the parent's assembly loop, and
    tuple construction is several times cheaper than frozen-dataclass
    field assignment — at a million pairs that difference is seconds.
    Still immutable, still compared field by field.
    """

    primary_id: str
    reference_id: str
    status: str  # OK, REPAIRED, FAILED or DEADLINE
    relation: Optional[CardinalDirection] = None
    percentages: Optional[PercentageMatrix] = None
    error: Optional[str] = None
    path: Optional[str] = None  # "fast" / "exact" under engine="guarded"

    @property
    def ok(self) -> bool:
        return self.status in (OK, REPAIRED)

    def __str__(self) -> str:
        if self.ok:
            note = " (repaired)" if self.status == REPAIRED else ""
            return (
                f"{self.primary_id} {self.relation} {self.reference_id}{note}"
            )
        return f"{self.primary_id} ?? {self.reference_id}: {self.error}"


@dataclass
class BatchReport:
    """Every pair's outcome, plus the region-level repair bookkeeping.

    ``engine`` names the compute backend that served the sweep and
    ``engine_stats`` carries its uniform telemetry (call counts,
    wall-clock totals, ladder path counts) for exactly this batch.
    Under ``workers=N`` the stats are the merged totals of every
    worker's sweep.

    The supervision fields account for how the parallel executor earned
    the outcomes: ``worker_failures`` counts chunk dispatches lost to
    crashed / hung / broken workers, ``chunk_retries`` re-dispatches of
    lost chunks, and ``inline_chunks`` chunks that exhausted their
    retries and ran serially in the parent as the last resort.  A crash
    thus surfaces *only* here (and in telemetry) — never as missing or
    failed pairs.  ``deadline_hit`` is set when a wall-clock deadline
    expired mid-sweep, in which case the unreached pairs carry the
    ``DEADLINE`` status (see :meth:`deadline_outcomes`).
    """

    outcomes: List[PairOutcome]
    repairs: Dict[str, RepairReport]
    broken: Dict[str, str]
    engine: Optional[str] = None
    engine_stats: Optional[EngineStats] = field(default=None, repr=False)
    worker_failures: int = 0
    chunk_retries: int = 0
    inline_chunks: int = 0
    deadline_hit: bool = False

    def ok_outcomes(self) -> List[PairOutcome]:
        return [outcome for outcome in self.outcomes if outcome.ok]

    def error_outcomes(self) -> List[PairOutcome]:
        return [
            outcome for outcome in self.outcomes if outcome.status == FAILED
        ]

    def deadline_outcomes(self) -> List[PairOutcome]:
        """Pairs abandoned because the wall-clock deadline expired."""
        return [
            outcome for outcome in self.outcomes if outcome.status == DEADLINE
        ]

    def relations(self) -> Dict[Tuple[str, str], CardinalDirection]:
        """The answered pairs as a ``{(primary, reference): R}`` mapping."""
        return {
            (outcome.primary_id, outcome.reference_id): outcome.relation
            for outcome in self.outcomes
            if outcome.ok
        }

    def summary(self) -> str:
        ok = len(self.ok_outcomes())
        failed = len(self.error_outcomes())
        parts = [f"{ok} pair(s) answered, {failed} failed"]
        abandoned = len(self.deadline_outcomes())
        if abandoned:
            parts.append(f"{abandoned} pair(s) past deadline")
        if self.repairs:
            parts.append(f"{len(self.repairs)} region(s) repaired")
        if self.broken:
            parts.append(
                f"{len(self.broken)} region(s) unusable: "
                + ", ".join(sorted(self.broken))
            )
        if self.worker_failures:
            parts.append(
                f"{self.worker_failures} worker failure(s) recovered "
                f"({self.chunk_retries} chunk retr"
                f"{'y' if self.chunk_retries == 1 else 'ies'}, "
                f"{self.inline_chunks} inline)"
            )
        return "; ".join(parts)


def _error_issues(region: Region, region_id: str) -> List[str]:
    return [
        str(issue)
        for issue in validate_region(region, region_id=region_id)
        if issue.severity == ERROR
    ]


def _compute_pair(
    primary: Region,
    box: BoundingBox,
    *,
    engine: Engine,
    percentages: bool,
) -> Tuple[CardinalDirection, Optional[PercentageMatrix], Optional[str]]:
    """One pair through the selected compute engine."""
    relation, path = engine.relation_with_path(primary, box)
    matrix: Optional[PercentageMatrix] = None
    if percentages:
        matrix, matrix_path = engine.percentages_with_path(primary, box)
        if matrix_path is not None and matrix_path != path:
            path = f"{path}/{matrix_path}"
    return relation, matrix, path


def _resolve_batch_engine(engine: EngineLike, epsilon: float) -> Engine:
    """An :class:`Engine` for one sweep.

    Accepts an instance as-is; a name creates a fresh instance so the
    report's stats cover exactly this batch.  ``epsilon`` is forwarded
    to the guarded ladder (the only built-in engine that takes one).
    """
    if isinstance(engine, Engine):
        return engine
    if engine == "guarded":
        return create_engine("guarded", epsilon=epsilon)
    try:
        return resolve_engine(engine)
    except ValueError as error:
        raise ValueError(f"compute engine selection failed: {error}") from None


def _try_repair_into(
    region_id: str,
    region: Region,
    repairs: Dict[str, RepairReport],
    broken: Dict[str, str],
) -> Optional[Region]:
    """Repair a region; record the report or why it stayed broken."""
    try:
        repaired, report = repair_region(
            region, mode=REPAIR, region_id=region_id
        )
    except GeometryError as error:
        broken[region_id] = str(error.with_context(region_id=region_id))
        return None
    residual = _error_issues(repaired, region_id)
    if residual:
        broken[region_id] = "unrepairable: " + "; ".join(residual)
        return None
    repairs[region_id] = report
    return repaired


def _unusable_outcome(
    primary_id: str, reference_id: str, broken: Dict[str, str]
) -> PairOutcome:
    """A pair with an unusable region on either side, primary named first."""
    return PairOutcome(
        primary_id,
        reference_id,
        FAILED,
        error="; ".join(
            f"region {region_id!r} unusable: {broken[region_id]}"
            for region_id in (primary_id, reference_id)
            if region_id in broken
        ),
    )


def _deadline_outcome(
    primary_id: str, reference_id: str, detail: str = ""
) -> PairOutcome:
    """A pair abandoned because the wall-clock budget ran out."""
    return PairOutcome(
        primary_id,
        reference_id,
        DEADLINE,
        error=detail or "wall-clock deadline expired before this pair",
    )


def _pair_outcome(
    primary_id: str,
    reference_id: str,
    healthy: Dict[str, Region],
    boxes: Dict[str, BoundingBox],
    repairs: Dict[str, RepairReport],
    broken: Dict[str, str],
    *,
    backend: Engine,
    percentages: bool,
    repair: bool,
    policy: RetryPolicy = DEFAULT_BATCH_RETRY_POLICY,
) -> PairOutcome:
    """One healthy pair through the engine, with policy-bounded retries.

    Transient failures (injected faults) are retried by plain
    recomputation; other :class:`ReproError`\\ s take the
    retry-after-repair path when ``repair`` allows and the policy grants
    more than one attempt.  A deadline expiry is terminal and yields a
    ``DEADLINE`` outcome, never a retry.
    """
    primary = healthy[primary_id]
    box = boxes[reference_id]
    repaired_pair = primary_id in repairs or reference_id in repairs
    try:
        fault_point(
            "batch.pair",
            primary=primary_id,
            reference=reference_id,
            attempt=0,
        )
        relation, matrix, path = _compute_pair(
            primary, box, engine=backend, percentages=percentages
        )
    except DeadlineExceeded as error:
        return _deadline_outcome(primary_id, reference_id, str(error))
    except InjectedFault as error:
        retried = _retry_transient(
            primary_id,
            reference_id,
            primary,
            box,
            backend=backend,
            percentages=percentages,
            policy=policy,
            repaired_pair=repaired_pair,
        )
        if retried is not None:
            return retried
        return PairOutcome(
            primary_id,
            reference_id,
            FAILED,
            error=f"{type(error).__name__}: {error}",
        )
    except ReproError as error:
        if isinstance(error, GeometryError):
            error.with_context(region_id=primary_id)
        if repair and not repaired_pair and policy.max_attempts > 1:
            count_retry("batch.repair")
            retried = _retry_after_repair(
                primary_id,
                reference_id,
                healthy,
                boxes,
                repairs,
                broken,
                engine=backend,
                percentages=percentages,
            )
            if retried is not None:
                return retried
        return PairOutcome(
            primary_id,
            reference_id,
            FAILED,
            error=f"{type(error).__name__}: {error}",
        )
    return PairOutcome(
        primary_id,
        reference_id,
        REPAIRED if repaired_pair else OK,
        relation=relation,
        percentages=matrix,
        path=path,
    )


def _retry_transient(
    primary_id: str,
    reference_id: str,
    primary: Region,
    box: BoundingBox,
    *,
    backend: Engine,
    percentages: bool,
    policy: RetryPolicy,
    repaired_pair: bool,
) -> Optional[PairOutcome]:
    """Plain recomputation retries for a transiently-failing pair.

    Used after an :class:`InjectedFault`: the geometry is fine, so
    repair would be wasted work — just try again, up to the policy's
    attempt budget, backing off between attempts (capped by the current
    deadline).  Returns ``None`` when every attempt failed — the caller
    then records the original error.
    """
    deadline = current_deadline()
    for retry in range(policy.max_attempts - 1):
        pause = policy.delay(retry, key=f"{primary_id}:{reference_id}")
        if deadline is not None:
            if deadline.expired():
                return _deadline_outcome(primary_id, reference_id)
            pause = min(pause, deadline.remaining())
        count_retry("batch.pair")
        if pause > 0.0:
            time.sleep(pause)
        try:
            fault_point(
                "batch.pair",
                primary=primary_id,
                reference=reference_id,
                attempt=retry + 1,
            )
            relation, matrix, path = _compute_pair(
                primary, box, engine=backend, percentages=percentages
            )
        except DeadlineExceeded as error:
            return _deadline_outcome(primary_id, reference_id, str(error))
        except InjectedFault:
            continue
        except ReproError:
            return None
        return PairOutcome(
            primary_id,
            reference_id,
            REPAIRED if repaired_pair else OK,
            relation=relation,
            percentages=matrix,
            path=path,
        )
    return None


def _sweep_rows(
    primary_ids: Sequence[str],
    all_ids: Sequence[str],
    *,
    include_self: bool,
    healthy: Dict[str, Region],
    boxes: Dict[str, BoundingBox],
    repairs: Dict[str, RepairReport],
    broken: Dict[str, str],
    backend: Engine,
    percentages: bool,
    repair: bool,
    policy: RetryPolicy = DEFAULT_BATCH_RETRY_POLICY,
) -> List[PairOutcome]:
    """The per-pair sweep over ``primary_ids`` × ``all_ids``.

    Every pair goes through :func:`_pair_outcome`, with its per-pair
    fault isolation and retry-after-repair.  This is the whole sweep of
    an engine without the plane protocol, and the fallback for the rows
    the plane kernel did not answer (see :func:`_inline_rows`).
    Mutates ``healthy`` / ``boxes`` / ``repairs`` as retries repair
    regions, so later pairs reuse the repaired geometry.

    The current deadline (contextvar) is checked once per row and once
    per pair: when it expires, every unreached pair is emitted as a
    ``DEADLINE`` outcome, so the output always covers the full
    ``primary_ids`` × ``all_ids`` matrix — partial work is labelled,
    never silently dropped.
    """
    outcomes: List[PairOutcome] = []
    deadline = current_deadline()
    for position, primary_id in enumerate(primary_ids):
        if deadline is not None and deadline.expired():
            count_deadline_exceeded("batch.sweep")
            for late_primary in primary_ids[position:]:
                outcomes.extend(
                    _deadline_outcome(late_primary, reference_id)
                    for reference_id in all_ids
                    if include_self or reference_id != late_primary
                )
            break
        for reference_id in all_ids:
            if not include_self and reference_id == primary_id:
                continue
            if primary_id in broken or reference_id in broken:
                outcome = _unusable_outcome(primary_id, reference_id, broken)
            elif deadline is not None and deadline.expired():
                outcome = _deadline_outcome(primary_id, reference_id)
            else:
                outcome = _pair_outcome(
                    primary_id,
                    reference_id,
                    healthy,
                    boxes,
                    repairs,
                    broken,
                    backend=backend,
                    percentages=percentages,
                    repair=repair,
                    policy=policy,
                )
            outcomes.append(outcome)
    return outcomes


# ---------------------------------------------------------------------------
# Supervised process pool
# ---------------------------------------------------------------------------

#: Floor on the adaptive chunk size — below this the dispatch overhead
#: (IPC round-trip, task bookkeeping) dominates the row work.
_MIN_CHUNK_ROWS = 4

#: How many chunks per worker the initial carve aims for: an early latency
#: observation, at one IPC round trip per chunk a worker waits through.
_CHUNK_LEAD = 2

#: Target wall-clock per chunk once a throughput estimate exists: long
#: enough to amortise dispatch overhead, short enough that a lost chunk
#: re-dispatches cheaply and deadline checks stay responsive.
_TARGET_CHUNK_SECONDS = 0.25


class _ChunkSizer:
    """Adaptive chunk sizing from observed chunk latency.

    Starts from a static carve (about :data:`_CHUNK_LEAD` chunks per
    worker, floored at :data:`_MIN_CHUNK_ROWS` rows, never wider than an
    even ``total / workers`` split so small workloads still fan out) and
    converges on whatever row count currently takes about
    :data:`_TARGET_CHUNK_SECONDS` per chunk, smoothing the observed
    rows-per-second with an even EWMA so one outlier chunk cannot whip
    the size around.  No chunk is wider than an even split of the rows
    still to carve (floored at :data:`_MIN_CHUNK_ROWS`), so the last
    chunks end together rather than one wide chunk idling the others.
    """

    def __init__(self, total_rows: int, workers: int) -> None:
        self._workers = workers
        self._ceiling = max(1, -(-total_rows // workers))
        lead = max(_MIN_CHUNK_ROWS, -(-total_rows // (workers * _CHUNK_LEAD)))
        self._size = max(1, min(lead, self._ceiling))
        self._rate: Optional[float] = None

    def next_size(self, remaining: int) -> int:
        """Rows to carve into the next chunk."""
        even = max(_MIN_CHUNK_ROWS, -(-remaining // self._workers))
        return max(1, min(self._size, even, remaining))

    def observe(self, rows: int, seconds: float) -> None:
        """Fold one completed chunk's latency into the size estimate."""
        if rows <= 0 or seconds <= 0.0:
            return
        rate = rows / seconds
        self._rate = rate if self._rate is None else 0.5 * self._rate + 0.5 * rate
        target = int(self._rate * _TARGET_CHUNK_SECONDS)
        self._size = max(_MIN_CHUNK_ROWS, min(target, self._ceiling))


class _Chunk:
    """One index-range dispatch unit of a pooled sweep."""

    __slots__ = ("index", "start", "stop", "attempt", "dispatched_at")

    def __init__(
        self, index: int, start: int, stop: int, attempt: int = 0
    ) -> None:
        self.index = index
        self.start = start
        self.stop = stop
        self.attempt = attempt
        self.dispatched_at = 0.0

    @property
    def rows(self) -> int:
        return self.stop - self.start


#: Worker-process state installed by :func:`_pool_init` and reused by
#: every chunk the worker serves — the point of the persistent pool is
#: that the sweep's constant state crosses the process boundary once
#: per worker, never once per chunk: the engine spec, then either the
#: plane and its (row, column) restriction (plane engines) or the
#: region context :func:`_region_block` sweeps (every other engine).
_WORKER: Dict[str, Any] = {}


def _pool_init(
    engine_spec: tuple,
    plane: Optional[GeometryPlane],
    restriction: tuple,
    regions: Optional[tuple],
) -> None:
    """Pool initializer: install the sweep's constant state once.

    A plane engine's worker receives the parent's ``plane`` and sweeps
    the ``(row_index, column_index)`` ``restriction`` (see
    :func:`batch_relations`'s ``primaries`` / ``references``; ``None``
    entries mean every row / column).  Any other engine's worker
    receives ``regions`` instead — the restricted primary / reference
    id lists, the validated ``healthy`` / ``boxes`` / ``repairs`` /
    ``broken`` maps, the ``repair`` flag and the retry policy.  Under
    fork the workers inherit either one; under spawn or forkserver each
    worker unpickles one copy.  What a worker starts with is frozen out
    of its garbage collections, which would copy every page it sits on.
    """
    gc.freeze()
    _WORKER.update(
        engine_spec=engine_spec,
        plane=plane,
        restriction=restriction,
        regions=regions,
    )


def _plane_block(
    backend: Engine, task: dict, plane: GeometryPlane, restriction: tuple
) -> Tuple[int, tuple]:
    """A plane engine's chunk: ``sweep_plane`` over ``plane``.

    Runs in a pool worker and, inline, in the parent (see
    :func:`_inline_rows`).  Returns the rows swept — fewer than asked
    when the deadline expired mid-chunk — and the compact ``(masks,
    paths, areas)`` blocks :func:`_assemble_plane_rows` turns into
    outcomes in the parent.
    """
    row_index, column_index = restriction
    rows_done, masks, paths, areas = getattr(backend, "sweep_plane")(
        plane,
        task["start"],
        task["stop"],
        include_self=task["include_self"],
        percentages=task["percentages"],
        attempt=task["attempt"],
        row_index=row_index,
        column_index=column_index,
    )
    return rows_done, (masks, paths, areas)


def _region_block(backend: Engine, task: dict) -> Tuple[int, tuple]:
    """Any other engine's chunk: :func:`_sweep_rows` over Region maps.

    The same call the inline fallback makes, on per-chunk copies of the
    installed maps so every chunk starts from the parent's validated
    state whichever worker serves it.  Returns the whole chunk as done
    (pairs past the deadline come back labelled ``DEADLINE``) with its
    outcomes as plain tuples (a ``PairOutcome`` costs a Python call per
    pickle and unpickle) and the repairs made here, for the parent.
    """
    (
        primary_ids,
        reference_ids,
        healthy,
        boxes,
        repairs,
        broken,
        repair,
        policy,
    ) = _WORKER["regions"]
    chunk_repairs = dict(repairs)
    outcomes = _sweep_rows(
        primary_ids[task["start"] : task["stop"]],
        reference_ids,
        include_self=task["include_self"],
        healthy=dict(healthy),
        boxes=dict(boxes),
        repairs=chunk_repairs,
        broken=dict(broken),
        backend=backend,
        percentages=task["percentages"],
        repair=repair,
        policy=policy,
    )
    new_repairs = {
        region_id: report
        for region_id, report in chunk_repairs.items()
        if region_id not in repairs
    }
    return task["stop"] - task["start"], ([tuple(o) for o in outcomes], new_repairs)


def _pool_chunk(task: dict) -> tuple:
    """One index-range chunk in a pool worker.

    The task dict carries nothing but indices and flags — the geometry
    was installed by :func:`_pool_init`.  A fresh engine per chunk,
    recreated from its ``(name, options)`` spec (under fork the worker
    inherits every :func:`~repro.core.engine.register_engine` made
    before the pool started), keeps the stats snapshot scoped to this
    dispatch (re-dispatched chunks must not double-count).  Returns
    ``(rows_done, block, cpu_seconds, stats, spans, metrics, profile,
    events)``: the :func:`_plane_block` / :func:`_region_block` result,
    the chunk's CPU cost (feeding the adaptive sizer), a detached
    :meth:`~repro.core.engine.EngineStats.as_dict` snapshot and — when
    the parent had a tracer / metrics registry / sampling profiler /
    event log installed — the worker's serialised spans, metrics
    snapshot, folded-stack counts and event records.  The parent grafts
    the spans into its own trace, merges the metrics and profile, and
    ingests the events, so ``workers=N`` loses no telemetry to the
    process boundary (observers excepted; see
    :meth:`~repro.core.engine.Engine.worker_spec`).
    """
    chunk_index = task["chunk_index"]
    attempt = task["attempt"]
    fault_point("batch.worker", chunk=chunk_index, attempt=attempt)
    engine_name, engine_options = _WORKER["engine_spec"]
    backend = create_engine(engine_name, **engine_options)
    plane = _WORKER["plane"]
    rows = task["stop"] - task["start"]
    worker_label = f"worker-{chunk_index}"
    tracer = obs.Tracer(worker=worker_label) if task.get("trace") else None
    registry = obs.MetricsRegistry() if task.get("collect_metrics") else None
    profiler = obs.SamplingProfiler() if task.get("profile") else None
    events_spec = task.get("events")
    events_log = (
        obs.EventLog(
            slow_op_budgets=events_spec.get("budgets"),
            default_slow_op_budget=events_spec.get("default"),
            worker=worker_label,
        )
        if events_spec
        else None
    )
    started = time.perf_counter()
    cpu_started = time.process_time()
    with obs.tracing(tracer) if tracer is not None else nullcontext():
        with obs.collecting(registry) if registry is not None else nullcontext():
            with obs.emitting(events_log) if events_log is not None else nullcontext():
                with profiler if profiler is not None else nullcontext():
                    with obs.span(
                        "batch.worker",
                        chunk=chunk_index,
                        attempt=attempt,
                        pid=os.getpid(),
                        primaries=rows,
                    ):
                        with obs.span(
                            "batch.chunk", chunk=chunk_index, primaries=rows
                        ):
                            with deadline_scope(task.get("deadline_seconds")):
                                rows_done, block = (
                                    _region_block(backend, task)
                                    if plane is None
                                    else _plane_block(
                                        backend, task, plane, _WORKER["restriction"]
                                    )
                                )
                                if rows_done < rows:
                                    count_deadline_exceeded("batch.sweep")
    elapsed = time.perf_counter() - started
    # CPU seconds, not wall: under N-way contention the wall latency of
    # a chunk inflates with the worker count, and sizing chunks from it
    # would shrink them (and blow up per-chunk overhead) exactly when
    # the machine is busiest.  The worker's own CPU time measures the
    # real per-row cost regardless of who else is running.
    cpu_seconds = time.process_time() - cpu_started
    return (
        rows_done,
        block,
        cpu_seconds if cpu_seconds > 0.0 else elapsed,
        backend.stats.as_dict(),
        tracer.to_payload() if tracer is not None else None,
        registry.snapshot() if registry is not None else None,
        profiler.to_payload() if profiler is not None else None,
        events_log.to_payload() if events_log is not None else None,
    )


def _assemble_plane_rows(
    masks: Any,
    paths: Any,
    areas: Any,
    *,
    start: int,
    rows_done: int,
    all_ids: Sequence[str],
    include_self: bool,
    repairs: Dict[str, RepairReport],
    broken: Dict[str, str],
    percentages: bool,
    row_lookup: Optional[Sequence[int]] = None,
    column_positions: Optional[Sequence[int]] = None,
) -> List[PairOutcome]:
    """Plane-kernel mask/area blocks → :class:`PairOutcome` rows.

    The one assembly of the inline run and the pool alike: broken pairs
    carry the primary-then-reference unusable message
    :func:`_sweep_rows` writes, pruned pairs the exact ``{tile: 100}``
    matrix, broadcast pairs a
    :meth:`~repro.core.matrix.PercentageMatrix.from_areas` over the
    per-tile float areas in :data:`~repro.core.sweep.AREA_TILE_ORDER`.

    For a restricted sweep, ``row_lookup`` maps chunk positions to
    global plane rows and ``column_positions`` lists the reference
    columns in the caller's order (both ``None`` for the full matrix),
    so restricted outcomes come in the caller's primary × reference
    order.

    A million pairs at a thousand regions pass through here, so each row
    is built in bulk: its masks and paths become lists once, relations
    come from :data:`~repro.core.relation.RELATIONS_BY_MASK`, and the
    outcomes are made by ``map``/``zip`` over ``tuple.__new__`` without
    a Python-level loop per pair.  The pairs a mask cannot answer all
    carry mask 0 — self, broken and empty-mask columns — and are
    patched afterwards.
    """
    from repro.core.sweep import (
        AREA_TILE_ORDER,
        BROADCAST_PATH,
        PLANE_PATH_BROADCAST,
        PLANE_PATH_PRUNE,
        PRUNE_PATH,
        prune_matrix,
    )

    ids = list(all_ids)
    columns = (
        list(range(len(ids)))
        if column_positions is None
        else list(column_positions)
    )
    reference_ids = [ids[column] for column in columns]
    mask_block = masks[:rows_done]
    path_block = paths[:rows_done]
    if column_positions is not None:
        mask_block = mask_block[:, columns]
        path_block = path_block[:, columns]
    # Per row, the slots whose mask is 0: self, broken and empty-mask pairs.
    unanswered: List[List[int]] = [[] for _ in range(rows_done)]
    for row_offset, slot in zip(*(mask_block == 0).nonzero()):
        unanswered[row_offset].append(int(slot))
    slots_of: Dict[int, List[int]] = {}
    for slot, column in enumerate(columns):
        slots_of.setdefault(column, []).append(slot)
    column_statuses = [
        REPAIRED if reference_id in repairs else OK
        for reference_id in reference_ids
    ]
    relation_of = RELATIONS_BY_MASK.__getitem__
    path_name_of = (None, PRUNE_PATH, BROADCAST_PATH).__getitem__
    prune_by_mask = {1 << tile: prune_matrix(tile) for tile in Tile}

    def matrix_of(
        mask: int, path: int, cells: List[float]
    ) -> Optional[PercentageMatrix]:
        if path == PLANE_PATH_PRUNE:
            return prune_by_mask[mask]
        if path == PLANE_PATH_BROADCAST:
            return PercentageMatrix.from_areas(dict(zip(AREA_TILE_ORDER, cells)))
        return None

    new_outcome: Any = tuple.__new__
    outcomes: List[PairOutcome] = []
    for row_offset in range(rows_done):
        mask_row = mask_block[row_offset].tolist()
        path_row = path_block[row_offset].tolist()
        position = start + row_offset
        row_index = position if row_lookup is None else row_lookup[position]
        primary_id = ids[row_index]
        if primary_id in broken:
            row = [
                _unusable_outcome(primary_id, reference_id, broken)
                for reference_id in reference_ids
            ]
        else:
            matrices: Any = repeat(None)
            if percentages:
                cells_row = (
                    areas[row_offset]
                    if column_positions is None
                    else areas[row_offset, columns]
                ).tolist()
                matrices = map(matrix_of, mask_row, path_row, cells_row)
            row = list(
                map(
                    new_outcome,
                    repeat(PairOutcome),
                    zip(
                        repeat(primary_id),
                        reference_ids,
                        repeat(REPAIRED)
                        if primary_id in repairs
                        else column_statuses,
                        map(relation_of, mask_row),
                        matrices,
                        repeat(None),
                        map(path_name_of, path_row),
                    ),
                )
            )
            for slot in unanswered[row_offset]:
                reference_id = reference_ids[slot]
                row[slot] = (
                    _unusable_outcome(primary_id, reference_id, broken)
                    if reference_id in broken
                    else PairOutcome(
                        primary_id,
                        reference_id,
                        FAILED,
                        error="plane kernel produced an empty tile mask",
                    )
                )
        if not include_self:
            for slot in reversed(slots_of.get(row_index, [])):
                del row[slot]
        outcomes += row
    return outcomes


@dataclass
class _Sweep:
    """One sweep's constant state, as the parent holds it.

    Row positions address ``primary_ids``, the restricted row list, and
    references keep the caller's order; ``row_index`` /
    ``column_index`` give their plane rows (``None``: every region, in
    configuration order).  ``plane`` is set for a plane engine only.
    """

    all_ids: List[str]
    primary_ids: List[str]
    reference_ids: List[str]
    row_index: Optional[Tuple[int, ...]]
    column_index: Optional[Tuple[int, ...]]
    include_self: bool
    percentages: bool
    healthy: Dict[str, Region]
    boxes: Dict[str, BoundingBox]
    repairs: Dict[str, RepairReport]
    broken: Dict[str, str]
    backend: Engine
    repair: bool
    policy: RetryPolicy
    plane: Optional[GeometryPlane]

    def region_rows(self, start: int, stop: int) -> List[PairOutcome]:
        """Rows ``[start, stop)`` through the per-pair :func:`_sweep_rows`."""
        return _sweep_rows(
            self.primary_ids[start:stop],
            self.reference_ids,
            include_self=self.include_self,
            healthy=self.healthy,
            boxes=self.boxes,
            repairs=self.repairs,
            broken=self.broken,
            backend=self.backend,
            percentages=self.percentages,
            repair=self.repair,
            policy=self.policy,
        )

    def plane_rows(
        self, start: int, rows_done: int, block: tuple
    ) -> List[PairOutcome]:
        """The answered rows of a :func:`_plane_block` result."""
        return _assemble_plane_rows(
            *block,
            start=start,
            rows_done=rows_done,
            all_ids=self.all_ids,
            include_self=self.include_self,
            repairs=self.repairs,
            broken=self.broken,
            percentages=self.percentages,
            row_lookup=self.row_index,
            column_positions=self.column_index,
        )


def _inline_rows(
    sweep: _Sweep, start: int, stop: int, *, attempt: int = 0
) -> List[PairOutcome]:
    """Rows ``[start, stop)`` of the row list, swept in the parent.

    A plane engine runs the pool's chunk function, :func:`_plane_block`,
    inline over chunks carved by :class:`_ChunkSizer` — so a percentage
    sweep holds one chunk's ``(rows, n, 9)`` area block at a time — and
    assembles each block as the pool does.  A chunk whose kernel raised
    is replayed pair by pair through :func:`_sweep_rows`; the rows past
    an expired deadline go there too, which labels them ``DEADLINE``
    and counts the expiry once.  An engine without the plane sweeps
    every row through :func:`_sweep_rows`.  ``attempt`` reaches the
    ``batch.row`` fault-injection context.
    """
    outcomes: List[PairOutcome] = []
    plane = sweep.plane
    if plane is not None:
        restriction = (sweep.row_index, sweep.column_index)
        sizer = _ChunkSizer(stop - start, 1)
        while start < stop:
            size = sizer.next_size(stop - start)
            task = {
                "start": start,
                "stop": start + size,
                "include_self": sweep.include_self,
                "percentages": sweep.percentages,
                "attempt": attempt,
            }
            cpu_started = time.process_time()
            try:
                rows_done, block = _plane_block(
                    sweep.backend, task, plane, restriction
                )
            except ReproError:
                outcomes += sweep.region_rows(start, start + size)
                start += size
                continue
            sizer.observe(rows_done, time.process_time() - cpu_started)
            outcomes += sweep.plane_rows(start, rows_done, block)
            start += rows_done
            if rows_done < size:
                break  # the deadline expired: the rest is labelled below
    outcomes += sweep.region_rows(start, stop)
    return outcomes


def _supervise_pool(
    sweep: _Sweep, *, workers: int, chunk_timeout: Optional[float]
) -> Tuple[List[PairOutcome], Dict[str, int]]:
    """The one pool supervisor behind every ``workers=N`` sweep.

    One :class:`~concurrent.futures.ProcessPoolExecutor` lives across
    the whole sweep, its workers initialised once by :func:`_pool_init`
    — handed the plane for a plane engine, the validated region maps
    otherwise.  The supervisor keeps up to ``workers`` index-range
    chunks in flight, carving chunk sizes adaptively from observed
    chunk latency.  Loss handling:

    * a future that *raises* (an injected fault, a worker bug) loses
      only its own chunk — the pool survives;
    * a ``BrokenProcessPool`` (worker killed) loses every in-flight
      chunk and the pool is rebuilt;
    * a ``chunk_timeout`` expiry means a hung worker, which never
      returns on its own: every in-flight chunk is lost, the pool's
      workers are killed and the pool is rebuilt.

    Lost chunks re-enter the dispatch queue with an incremented attempt
    (``policy.max_attempts`` bounding, backoff between attempts); chunks
    that exhaust retries — plus anything stranded by a deadline expiry —
    run inline through :func:`_inline_rows`, the serial path, which
    labels past-deadline pairs ``DEADLINE``.  Workers return partial
    blocks when their deadline slice expires; the unswept remainder is
    requeued as a fresh chunk so the matrix is always complete.  The
    final outcome list is reassembled in ascending row order, so
    primary-major order is preserved exactly no matter which attempt
    (or the inline fallback) answered which rows.
    """
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
    from concurrent.futures.process import BrokenProcessPool

    tracer = obs.current_tracer()
    registry = obs.current_metrics()
    profiler = obs.current_profiler()
    events_log = obs.current_events()
    backend = sweep.backend
    policy = sweep.policy
    engine_spec = backend.worker_spec()
    deadline = current_deadline()
    total_rows = len(sweep.primary_ids)
    regions = (
        None
        if sweep.plane is not None
        else (
            sweep.primary_ids,
            sweep.reference_ids,
            sweep.healthy,
            sweep.boxes,
            sweep.repairs,
            sweep.broken,
            sweep.repair,
            policy,
        )
    )
    sizer = _ChunkSizer(total_rows, workers)
    stats = {"worker_failures": 0, "chunk_retries": 0, "inline_chunks": 0}
    completed: List[Tuple[int, List[PairOutcome]]] = []
    retry_queue: List[_Chunk] = []
    exhausted: List[_Chunk] = []
    in_flight: Dict[Any, _Chunk] = {}
    next_start = 0
    next_index = 0
    pool: Optional[Any] = None

    def _task(chunk: _Chunk) -> dict:
        return {
            "chunk_index": chunk.index,
            "attempt": chunk.attempt,
            "start": chunk.start,
            "stop": chunk.stop,
            "include_self": sweep.include_self,
            "percentages": sweep.percentages,
            "deadline_seconds": (
                deadline.remaining() if deadline is not None else None
            ),
            "trace": tracer is not None,
            "collect_metrics": registry is not None,
            "profile": profiler is not None,
            "events": (
                events_log.budget_spec() if events_log is not None else None
            ),
        }

    def _count_lost(count: int, reason: str) -> None:
        stats["worker_failures"] += count
        if registry is not None:
            registry.counter(
                "repro_worker_restart_total",
                "Parallel batch chunk dispatches lost to worker failures.",
            ).inc(count, reason=reason)
        obs.emit("batch.worker_lost", "warning", count=count, reason=reason)

    def _requeue(chunk: _Chunk) -> None:
        if chunk.attempt + 1 < policy.max_attempts:
            chunk.attempt += 1
            stats["chunk_retries"] += 1
            count_retry("batch.chunk")
            retry_queue.append(chunk)
        else:
            exhausted.append(chunk)

    def _lose(chunk: _Chunk, reason: str) -> None:
        _count_lost(1, reason)
        _requeue(chunk)

    def _absorb(chunk: _Chunk, result: tuple) -> None:
        nonlocal next_index
        (
            rows_done,
            block,
            cpu_seconds,
            stats_snapshot,
            span_payload,
            metrics_snapshot,
            profile_payload,
            events_payload,
        ) = result
        backend.stats.merge(stats_snapshot)
        span_id_map: Dict[str, str] = {}
        if span_payload and tracer is not None:
            tracer.ingest(
                span_payload, worker=f"worker-{chunk.index}", id_map=span_id_map
            )
        if metrics_snapshot and registry is not None:
            registry.merge(metrics_snapshot)
        if profile_payload and profiler is not None:
            profiler.merge(profile_payload)
        if events_payload and events_log is not None:
            events_log.ingest(
                events_payload,
                worker=f"worker-{chunk.index}",
                span_map=span_id_map or None,
            )
        if rows_done > 0:
            sizer.observe(rows_done, cpu_seconds)
            if sweep.plane is None:
                plain, new_repairs = block
                chunk_outcomes = list(map(PairOutcome._make, plain))
                sweep.repairs.update(new_repairs)
            else:
                chunk_outcomes = sweep.plane_rows(chunk.start, rows_done, block)
            completed.append((chunk.start, chunk_outcomes))
        if rows_done < chunk.rows:
            # The worker's deadline slice expired mid-chunk; requeue the
            # unswept remainder — under a live parent deadline it is
            # re-dispatched, under an expired one the inline fallback
            # below labels it DEADLINE.
            retry_queue.append(
                _Chunk(next_index, chunk.start + rows_done, chunk.stop)
            )
            next_index += 1

    def _shutdown_pool(*, abandon: bool) -> None:
        nonlocal pool
        if pool is not None:
            if abandon:
                # shutdown(wait=False) never stops a hung worker: it and
                # the executor's manager thread would outlive the sweep,
                # and keep the interpreter from exiting.  Kill the
                # workers so the join below returns promptly (Python
                # 3.9-3.12 have no public call for this).
                for process in list((pool._processes or {}).values()):
                    process.kill()
            pool.shutdown(wait=True, cancel_futures=True)
            pool = None

    try:
        while True:
            if deadline is not None and deadline.expired():
                break
            while len(in_flight) < workers and (
                retry_queue or next_start < total_rows
            ):
                if retry_queue:
                    chunk = retry_queue.pop(0)
                    if chunk.attempt:
                        pause = policy.delay(
                            chunk.attempt - 1, key="batch.chunk"
                        )
                        if deadline is not None:
                            pause = min(
                                pause, max(deadline.remaining(), 0.0)
                            )
                        if pause > 0.0:
                            time.sleep(pause)
                else:
                    size = sizer.next_size(total_rows - next_start)
                    chunk = _Chunk(next_index, next_start, next_start + size)
                    next_index += 1
                    next_start += size
                if pool is None:
                    pool = ProcessPoolExecutor(
                        max_workers=workers,
                        initializer=_pool_init,
                        initargs=(
                            engine_spec,
                            sweep.plane,
                            (sweep.row_index, sweep.column_index),
                            regions,
                        ),
                    )
                chunk.dispatched_at = time.monotonic()
                try:
                    future = pool.submit(_pool_chunk, _task(chunk))
                except BrokenProcessPool:
                    _lose(chunk, "broken_pool")
                    _shutdown_pool(abandon=False)
                    continue
                in_flight[future] = chunk
            if not in_flight:
                break
            budget: Optional[float] = None
            if chunk_timeout is not None:
                now = time.monotonic()
                budget = max(
                    0.0,
                    min(
                        chunk_timeout - (now - flying.dispatched_at)
                        for flying in in_flight.values()
                    ),
                )
            if deadline is not None:
                grace = deadline.remaining() + _DEADLINE_GRACE
                budget = grace if budget is None else min(budget, grace)
            done, _ = wait(
                set(in_flight), timeout=budget, return_when=FIRST_COMPLETED
            )
            if not done:
                if deadline is not None and deadline.expired():
                    # Workers flush their own partial blocks on expiry;
                    # whatever stayed unreturned past the grace window is
                    # labelled by the inline fallback below.
                    break
                # chunk_timeout elapsed: at least one worker is hung.  A
                # hung worker cannot be cancelled, only killed — and
                # every in-flight dispatch shares its abandoned pool.
                for flying_chunk in list(in_flight.values()):
                    _lose(flying_chunk, "timeout")
                in_flight.clear()
                _shutdown_pool(abandon=True)
                continue
            pool_broken = False
            for future in done:
                finished = in_flight.pop(future)
                try:
                    result = future.result()
                except BrokenProcessPool:
                    _lose(finished, "broken_pool")
                    pool_broken = True
                except DeadlineExceeded:
                    # The worker saw the deadline before the supervisor
                    # did.  Not a worker failure: re-dispatching would
                    # burn retry budget on a budget that is already
                    # gone, so the chunk goes straight to the exhausted
                    # pile and the inline fallback labels its pairs
                    # DEADLINE.
                    count_deadline_exceeded("batch.pool")
                    exhausted.append(finished)
                except Exception as error:
                    # The worker raised (e.g. an injected fault): the
                    # chunk is lost but the pool survives — no rebuild.
                    stats["worker_failures"] += 1
                    if registry is not None:
                        registry.counter(
                            "repro_worker_restart_total",
                            "Parallel batch chunk dispatches lost "
                            "to worker failures.",
                        ).inc(reason=type(error).__name__)
                    obs.emit(
                        "batch.worker_lost",
                        "warning",
                        count=1,
                        reason=type(error).__name__,
                    )
                    _requeue(finished)
                else:
                    _absorb(finished, result)
            if pool_broken:
                # A killed worker breaks the whole executor; every other
                # in-flight dispatch goes down with it.
                for flying_chunk in list(in_flight.values()):
                    _lose(flying_chunk, "broken_pool")
                in_flight.clear()
                _shutdown_pool(abandon=False)
    finally:
        _shutdown_pool(abandon=bool(in_flight))

    # Whatever the pool never answered: chunks that exhausted their
    # retries, anything stranded in flight / queued by deadline expiry,
    # plus the rows never carved at all.
    leftovers = exhausted + retry_queue + list(in_flight.values())
    if next_start < total_rows:
        leftovers.append(_Chunk(next_index, next_start, total_rows))
        next_index += 1
    if leftovers:
        leftovers.sort(key=lambda record: record.start)
        stats["inline_chunks"] = len(leftovers)
        for record in leftovers:
            with obs.span(
                "batch.chunk",
                chunk=record.index,
                primaries=record.rows,
                inline=True,
            ):
                completed.append(
                    (
                        record.start,
                        _inline_rows(
                            sweep,
                            record.start,
                            record.stop,
                            attempt=policy.max_attempts,
                        ),
                    )
                )
    completed.sort(key=lambda item: item[0])
    outcomes: List[PairOutcome] = []
    for _, chunk_outcomes in completed:
        outcomes.extend(chunk_outcomes)
    return outcomes, stats


def batch_relations(
    configuration: Configuration,
    *,
    include_self: bool = False,
    percentages: bool = False,
    engine: Optional[EngineLike] = None,
    repair: bool = True,
    validate: bool = True,
    epsilon: float = DEFAULT_EPSILON,
    workers: Optional[int] = None,
    deadline: Optional[Union[Deadline, float]] = None,
    retry_policy: Optional[RetryPolicy] = None,
    chunk_timeout: Optional[float] = None,
    primaries: Optional[Sequence[str]] = None,
    references: Optional[Sequence[str]] = None,
) -> BatchReport:
    """Compute every ordered pair with per-pair fault isolation.

    ``primaries`` / ``references`` restrict the sweep to the given id
    subsets (each defaults to every region): only pairs in ``primaries
    × references`` are computed, in the given order.  This is how an
    index-supplied candidate list (e.g. from
    :meth:`~repro.core.index.SpatialIndex.direction_candidates`)
    reaches the parallel executor — the plane still flattens the whole
    configuration once, but chunks address positions in the restricted
    row list, so non-candidate rows and columns are never swept.

    ``engine`` selects the compute backend by registered name —
    ``"exact"`` (reference, the default), ``"fast"`` (float64 numpy),
    ``"guarded"`` (the exactness-fallback ladder), ``"clipping"``,
    ``"sweep"`` (prune + broadcast rows over the plane), or any third-party
    :func:`~repro.core.engine.register_engine` registration — or as an
    :class:`~repro.core.engine.Engine` instance.  The engine's
    :class:`~repro.core.engine.EngineStats` for the sweep are threaded
    into the returned report.

    With ``repair`` (default) invalid regions are repaired before use
    and failing pairs are retried on repaired geometry; with
    ``validate`` (default) the O(n²) geometric invariants are checked up
    front so silently-wrong answers from degenerate input (e.g. bowties,
    which raise nothing) are caught, not just crashes.

    ``workers=N`` (N > 1) chunks the primary rows across a process
    pool, whatever the engine: each worker recreates the engine from
    :meth:`~repro.core.engine.Engine.worker_spec` and sweeps its chunks;
    outcomes keep primary-major order and per-worker stats are merged
    into ``report.engine_stats``.  Validation and up-front repair still
    run once, in the parent, before the fan-out.  The fan-out is
    *supervised*: chunks lost to crashed, hung (``chunk_timeout``
    seconds; the hung pool's workers are killed) or broken workers are
    re-dispatched under the retry policy, then run inline in the parent
    as the last resort — a dead worker costs latency and a
    ``report.worker_failures`` entry, never pairs.

    ``deadline`` (seconds, or a :class:`~repro.resilience.Deadline`)
    bounds the sweep's wall-clock: pairs not reached in time come back
    as ``DEADLINE`` outcomes (``report.deadline_hit`` set) instead of
    the call blocking indefinitely.  A deadline installed with
    :func:`~repro.resilience.deadline_scope` is honoured the same way.
    ``retry_policy`` bounds every retry loop (pair-level repair retries
    and chunk re-dispatch alike); the default preserves the historical
    single-retry behaviour.
    """
    if workers is not None:
        if isinstance(workers, bool) or not isinstance(workers, int):
            raise ValueError(
                f"workers must be a positive integer, got {workers!r} "
                f"of type {type(workers).__name__}"
            )
        if workers < 1:
            raise ValueError(
                f"workers must be a positive integer, got {workers}"
            )
    if chunk_timeout is not None and not chunk_timeout > 0:
        raise ValueError(
            f"chunk_timeout must be a positive number of seconds, "
            f"got {chunk_timeout!r}"
        )
    policy = retry_policy if retry_policy is not None else DEFAULT_BATCH_RETRY_POLICY
    backend = _resolve_batch_engine(
        "exact" if engine is None else engine, epsilon
    )
    healthy: Dict[str, Region] = {}
    repairs: Dict[str, RepairReport] = {}
    broken: Dict[str, str] = {}

    for annotated in configuration:
        region = maybe_corrupt(
            "batch.region", annotated.region, region_id=annotated.id
        )
        if validate:
            issues = _error_issues(region, annotated.id)
            if issues:
                if repair:
                    repaired = _try_repair_into(
                        annotated.id, region, repairs, broken
                    )
                    if repaired is not None:
                        healthy[annotated.id] = repaired
                else:
                    broken[annotated.id] = "; ".join(issues)
                continue
        healthy[annotated.id] = region

    boxes: Dict[str, BoundingBox] = {
        region_id: region.bounding_box()
        for region_id, region in healthy.items()
    }

    all_ids = list(configuration.region_ids)
    known_ids = set(all_ids)
    for label, subset in (("primaries", primaries), ("references", references)):
        if subset is None:
            continue
        unknown = [region_id for region_id in subset if region_id not in known_ids]
        if unknown:
            raise ValueError(
                f"{label} contains ids not in the configuration: "
                f"{unknown[:5]!r}"
            )
    primary_ids = list(primaries) if primaries is not None else all_ids
    reference_ids = list(references) if references is not None else all_ids
    position_of = {region_id: index for index, region_id in enumerate(all_ids)}
    supervision = {"worker_failures": 0, "chunk_retries": 0, "inline_chunks": 0}
    with deadline_scope(deadline):
        with obs.span(
            "batch.relations",
            engine=backend.name,
            regions=len(all_ids),
            primaries=len(primary_ids),
            references=len(reference_ids),
            workers=workers or 1,
            percentages=percentages,
        ) as batch_span:
            sweep = _Sweep(
                all_ids=all_ids,
                primary_ids=primary_ids,
                reference_ids=reference_ids,
                row_index=(
                    None
                    if primaries is None
                    else tuple(position_of[region_id] for region_id in primary_ids)
                ),
                column_index=(
                    None
                    if references is None
                    else tuple(position_of[region_id] for region_id in reference_ids)
                ),
                include_self=include_self,
                percentages=percentages,
                healthy=healthy,
                boxes=boxes,
                repairs=repairs,
                broken=broken,
                backend=backend,
                repair=repair,
                policy=policy,
                plane=(
                    GeometryPlane.build(all_ids, healthy=healthy, boxes=boxes)
                    if backend.supports_plane
                    else None
                ),
            )
            if workers is not None and workers > 1 and len(primary_ids) > 1:
                outcomes, supervision = _supervise_pool(
                    sweep, workers=workers, chunk_timeout=chunk_timeout
                )
            else:
                with obs.span(
                    "batch.chunk", chunk=0, primaries=len(primary_ids)
                ):
                    outcomes = _inline_rows(sweep, 0, len(primary_ids))
            tally = Counter(map(attrgetter("status"), outcomes))
            failed = len(outcomes) - tally[OK] - tally[REPAIRED]
            deadline_hit = tally[DEADLINE] > 0
            batch_span.set(
                pairs=len(outcomes),
                failed=failed,
                deadline_hit=deadline_hit,
                worker_failures=supervision["worker_failures"],
            )
    registry = obs.current_metrics()
    if registry is not None:
        counter = registry.counter(
            "repro_batch_pairs_total",
            "Pair outcomes produced by batch sweeps.",
        )
        for status in (OK, REPAIRED, FAILED, DEADLINE):
            if tally[status]:
                counter.inc(tally[status], status=status)
    return BatchReport(
        outcomes,
        repairs,
        broken,
        engine=backend.name,
        engine_stats=backend.stats,
        worker_failures=supervision["worker_failures"],
        chunk_retries=supervision["chunk_retries"],
        inline_chunks=supervision["inline_chunks"],
        deadline_hit=deadline_hit,
    )


def _retry_after_repair(
    primary_id: str,
    reference_id: str,
    healthy: Dict[str, Region],
    boxes: Dict[str, BoundingBox],
    repairs: Dict[str, RepairReport],
    broken: Dict[str, str],
    *,
    engine: Engine,
    percentages: bool,
) -> Optional[PairOutcome]:
    """Repair both operands and recompute a failed pair once.

    Mutates the shared ``healthy`` / ``boxes`` / ``repairs`` maps so
    later pairs reuse the repaired geometry.  Returns ``None`` when the
    repair fails or the recomputation still raises — the caller then
    records the *original* error.
    """
    for region_id in (primary_id, reference_id):
        if region_id in repairs:
            continue
        repaired = _try_repair_into(
            region_id, healthy[region_id], repairs, broken
        )
        if repaired is None:
            broken.pop(region_id, None)  # keep the pair error authoritative
            return None
        healthy[region_id] = repaired
        boxes[region_id] = repaired.bounding_box()
    try:
        relation, matrix, path = _compute_pair(
            healthy[primary_id],
            boxes[reference_id],
            engine=engine,
            percentages=percentages,
        )
    except ReproError:
        return None
    return PairOutcome(
        primary_id,
        reference_id,
        REPAIRED,
        relation=relation,
        percentages=matrix,
        path=path,
    )
