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

The result is a :class:`BatchReport` — never an exception for bad
geometry.  It stores the answer as columns: a primaries × references
uint16 tile-mask matrix, status and path codes, sparse error texts and
optional percentages.  Each row is written once, by row-slice copy from
the plane kernel or pair by pair from :func:`_sweep_rows`, and its
statuses and errors are fixed then.  :class:`PairOutcome` objects
(``ok`` / ``repaired`` / ``error`` / ``deadline``) are made only when
asked for, row by row, through :attr:`BatchReport.outcomes`.

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
  from observed chunk latency.  Per-worker
  :class:`~repro.core.engine.EngineStats` snapshots are merged into the
  report's stats.  Plane workers return tile-mask/area blocks the
  parent copies into the report's rows exactly as the inline run does;
  the others run the same :func:`_sweep_rows` the serial path runs,
  into a chunk-sized table whose arrays travel back.

When the observability subsystem (:mod:`repro.obs`) has sinks
installed, the sweep is traced end to end: a ``batch.relations`` root
span, one ``batch.chunk`` span per chunk (serial sweeps are one
chunk), and — under ``workers=N`` — whatever each worker records into
the fresh sinks it opens, shipped back with the chunk and grafted into
the installed ones (:mod:`repro.obs.channel`).  A dispatch lost to a
worker crash or timeout leaves a zero-length ``batch.worker_lost``
span under ``batch.relations``.
"""

from __future__ import annotations

import gc
import os
import time
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from itertools import chain, compress, groupby, repeat
from operator import eq, itemgetter
from typing import Any, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs

from repro.cardirect.model import Configuration
from repro.core.engine import Engine, EngineLike, EngineStats, create_engine, resolve_engine
from repro.core.matrix import PercentageMatrix
from repro.core.plane import GeometryPlane
from repro.core.relation import RELATIONS_BY_MASK, CardinalDirection
from repro.core.fast import AREA_TILE_ORDER
from repro.core.sweep import BROADCAST_PATH, PRUNE_MATRICES, PRUNE_PATH
from repro.core.sweep import PLANE_PATH_BROADCAST, PLANE_PATH_PRUNE
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
from repro.resilience.faults import FaultInjector, current_injector
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

    A named tuple rather than a frozen dataclass: a report makes one per
    pair each time its :attr:`~BatchReport.outcomes` are read, and tuple
    construction is several times cheaper than frozen-dataclass field
    assignment — at a million pairs that difference is seconds.  Still
    immutable, still compared field by field.
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


#: A report's status codes; code 4 marks a self pair the sweep skipped
#: (``include_self=False``), which has no outcome.
_STATUSES: Tuple[Optional[str], ...] = (OK, REPAIRED, FAILED, DEADLINE, None)
_STATUS_CODE = {status: code for code, status in enumerate(_STATUSES)}
_REPAIRED_CODE, _FAILED_CODE, _DEADLINE_CODE, _ABSENT = 1, 2, 3, 4

#: One pair's answer as the per-pair sweep writes it: a
#: :class:`PairOutcome`'s ``(status, relation, percentages, error, path)``.
_Answer = Tuple[
    str, Optional[CardinalDirection], Optional[PercentageMatrix], Optional[str], Optional[str]
]

#: The error of a ``DEADLINE`` pair unless the sweep wrote another.
_DEADLINE_TEXT = "wall-clock deadline expired before this pair"

_PRUNE_BY_MASK = {1 << tile: matrix for tile, matrix in PRUNE_MATRICES.items()}
_new_outcome: Any = tuple.__new__


def _plane_matrix(
    mask: int, path: int, cells: List[float]
) -> Optional[PercentageMatrix]:
    """A plane-written pair's matrix: a pruned pair's single-tile one, a
    broadcast pair's normalised areas, else none."""
    if path == PLANE_PATH_PRUNE:
        return _PRUNE_BY_MASK[mask]
    if path == PLANE_PATH_BROADCAST:
        return PercentageMatrix.from_areas(dict(zip(AREA_TILE_ORDER, cells)))
    return None


def _overlay(values: List[Any], slots: Sequence[int], entries: Any) -> None:
    """Write a row's sparse ``{column: value}`` entries over ``values``,
    the decoded values of its columns ``slots``."""
    if isinstance(slots, range):
        for column, value in (entries or {}).items():
            values[column] = value
    elif entries:
        for position, column in enumerate(slots):
            if column in entries:
                values[position] = entries[column]


class OutcomeTable(SequenceABC):
    """A sweep's pair outcomes, stored as columns over primaries ×
    references slots and read as a primary-major sequence.

    ``masks`` (uint16 tile bitmasks, 0 without a relation), ``status``
    (codes into :data:`_STATUSES`) and ``paths`` (codes into
    ``path_names``) are ``(rows, width)`` arrays.  ``errors`` and
    ``matrices`` are sparse ``{row: {column: value}}`` maps; a
    ``DEADLINE`` slot without an entry has :data:`_DEADLINE_TEXT`.  A
    percentage sweep's plane-written pairs get their matrices from the
    kernel's ``areas`` block.

    Reading decodes :class:`PairOutcome` objects afresh, a row at a
    time, and keeps none of them; a slice reads as a list.  Assigning an
    item, or a slice of the same length, encodes each outcome into its
    slot, so every reader of the report sees the change.
    """

    def __init__(
        self,
        primary_ids: Sequence[str],
        reference_ids: Sequence[str],
        *,
        include_self: bool,
    ) -> None:
        self.primary_ids = list(primary_ids)
        self.reference_ids = list(reference_ids)
        self.width = len(self.reference_ids)
        shape = (len(self.primary_ids), self.width)
        self.masks = np.zeros(shape, dtype=np.uint16)
        self.status = np.zeros(shape, dtype=np.uint8)
        self.paths = np.zeros(shape, dtype=np.uint8)
        self.path_names: List[Optional[str]] = [None, PRUNE_PATH, BROADCAST_PATH]
        self.errors: Dict[int, Dict[int, Optional[str]]] = {}
        self.matrices: Dict[int, Dict[int, Optional[PercentageMatrix]]] = {}
        self.areas: Optional[np.ndarray] = None
        self.absent: Dict[int, List[int]] = {}  # per row, its self slots
        columns_of: Dict[str, List[int]] = {}
        for column, reference_id in enumerate(self.reference_ids):
            columns_of.setdefault(reference_id, []).append(column)
        present = np.full(shape[0], self.width)
        for row, primary_id in enumerate(self.primary_ids):
            if not include_self and primary_id in columns_of:
                self.absent[row] = columns_of[primary_id]
                self.status[row, self.absent[row]] = _ABSENT
                present[row] -= len(self.absent[row])
        self.starts = np.concatenate(([0], np.cumsum(present)))
        self.size = int(self.starts[-1])

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[PairOutcome]:
        return chain.from_iterable(map(self.decode, range(len(self.primary_ids))))

    def __getitem__(self, index: Any) -> Any:
        if isinstance(index, slice):
            return [self[position] for position in range(*index.indices(self.size))]
        row, column = self.locate(index)
        return self.decode(row, [column])[0]

    def __setitem__(self, index: Any, outcome: Any) -> None:
        if isinstance(index, slice):
            positions = range(*index.indices(self.size))
            replacement = list(outcome)
            if len(replacement) != len(positions):
                raise ValueError(f"{len(replacement)} outcomes for {len(positions)} pairs")
            for position, item in zip(positions, replacement):
                self[position] = item
            return
        row, column = self.locate(index)
        slot = (self.primary_ids[row], self.reference_ids[column])
        if (outcome.primary_id, outcome.reference_id) != slot:
            raise ValueError(f"outcome {index} must be of the pair {slot!r}")
        for sparse in (self.errors, self.matrices):
            sparse.get(row, {}).pop(column, None)
        self.put(row, [column], [outcome[2:]])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SequenceABC) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def put(self, row: int, columns: List[int], answers: List[_Answer]) -> None:
        """Encode ``(status, relation, percentages, error, path)`` answers
        into the empty slots ``columns`` of one row."""
        for path in {answer[4] for answer in answers}:
            self.path_code(path)
        at = np.asarray(columns, dtype=np.intp)
        codes = [_STATUS_CODE[answer[0]] for answer in answers]
        self.status[row, at] = codes
        # A pair without a relation (``None``) encodes as mask 0.
        self.masks[row, at] = [getattr(answer[1], "mask", 0) for answer in answers]
        self.paths[row, at] = [self.path_names.index(answer[4]) for answer in answers]
        errors = {
            column: answer[3]
            for column, code, answer in zip(columns, codes, answers)
            if answer[3] != (_DEADLINE_TEXT if code == _DEADLINE_CODE else None)
        }
        matrices = {
            column: answer[2]
            for column, answer in zip(columns, answers)
            if answer[2] is not None or self.areas is not None
        }
        for sparse, entries in ((self.errors, errors), (self.matrices, matrices)):
            if entries:
                sparse.setdefault(row, {}).update(entries)

    def path_code(self, path: Optional[str]) -> int:
        if path not in self.path_names:
            self.path_names.append(path)
        return self.path_names.index(path)

    def paste(self, start: int, chunk: "OutcomeTable") -> None:
        """Copy a chunk table's rows in from row ``start``."""
        stop = start + len(chunk.primary_ids)
        self.masks[start:stop] = chunk.masks
        self.status[start:stop] = chunk.status
        codes = np.array([self.path_code(n) for n in chunk.path_names], np.uint8)
        self.paths[start:stop] = codes[chunk.paths]
        for mine, theirs in ((self.errors, chunk.errors), (self.matrices, chunk.matrices)):
            mine.update((start + row, entries) for row, entries in theirs.items())

    def tally(self) -> Dict[Optional[str], int]:
        """The pair count of every status."""
        counts = np.bincount(self.status.ravel(), minlength=len(_STATUSES))
        return dict(zip(_STATUSES, counts.tolist()))

    def locate(self, index: int) -> Tuple[int, int]:
        """The ``(row, column)`` slot of the ``index``-th outcome."""
        position = index + self.size if index < 0 else index
        if not 0 <= position < self.size:
            raise IndexError("outcome index out of range")
        row = int(np.searchsorted(self.starts, position, side="right")) - 1
        column = position - int(self.starts[row])
        for skipped in self.absent.get(row, ()):
            column += skipped <= column
        return row, column

    def decode(
        self, row: int, columns: Optional[List[int]] = None
    ) -> List[PairOutcome]:
        """The outcomes of one row's ``columns`` (default: its every pair),
        made in bulk: ``map`` / ``zip`` over ``tuple.__new__``, no
        Python-level loop per pair."""
        at: Any = slice(None) if columns is None else columns
        slots: Sequence[int] = range(self.width) if columns is None else columns
        status_row = self.status[row, at].tolist()
        mask_row = self.masks[row, at].tolist()
        path_row = self.paths[row, at].tolist()
        errors: Any = repeat(None)
        if row in self.errors or _DEADLINE_CODE in status_row:
            errors = [_DEADLINE_TEXT if c == _DEADLINE_CODE else None for c in status_row]
            _overlay(errors, slots, self.errors.get(row))
        matrices: Any = repeat(None)
        if row in self.matrices or self.areas is not None:
            matrices = (
                [None] * len(status_row)
                if self.areas is None
                else list(map(_plane_matrix, mask_row, path_row, self.areas[row, at].tolist()))
            )
            _overlay(matrices, slots, self.matrices.get(row))
        outcomes = list(
            map(
                _new_outcome,
                repeat(PairOutcome),
                zip(
                    repeat(self.primary_ids[row]),
                    map(self.reference_ids.__getitem__, slots),
                    map(_STATUSES.__getitem__, status_row),
                    map(RELATIONS_BY_MASK.__getitem__, mask_row),
                    matrices,
                    errors,
                    map(self.path_names.__getitem__, path_row),
                ),
            )
        )
        for column in reversed(self.absent.get(row, ()) if columns is None else ()):
            del outcomes[column]
        return outcomes

    def select(self, *codes: int) -> List[PairOutcome]:
        """The outcomes with a status code in ``codes``, in order."""
        rows, columns = np.nonzero(np.isin(self.status, codes))
        outcomes: List[PairOutcome] = []
        for row, group in groupby(zip(rows.tolist(), columns.tolist()), itemgetter(0)):
            outcomes += self.decode(row, [column for _, column in group])
        return outcomes

    def relations(self) -> Dict[Tuple[str, str], CardinalDirection]:
        """The answered pairs' relations, straight from the mask column."""
        relations: Dict[Tuple[str, str], CardinalDirection] = {}
        answered = (self.status <= _REPAIRED_CODE).tolist()
        for row, primary_id in enumerate(self.primary_ids):
            pairs = zip(repeat(primary_id), self.reference_ids)
            found = map(RELATIONS_BY_MASK.__getitem__, self.masks[row].tolist())
            relations.update(compress(zip(pairs, found), answered[row]))
        return relations


@dataclass
class BatchReport:
    """Every pair's outcome, plus the region-level repair bookkeeping.

    The pairs are stored as columns, in ``table``, which is also what
    :attr:`outcomes` returns.  It and the ``*_outcomes()`` selections
    make :class:`PairOutcome` objects on request; :meth:`relations` and
    :meth:`summary` read the columns directly.

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

    table: OutcomeTable = field(repr=False)
    repairs: Dict[str, RepairReport]
    broken: Dict[str, str]
    engine: Optional[str] = None
    engine_stats: Optional[EngineStats] = field(default=None, repr=False)
    worker_failures: int = 0
    chunk_retries: int = 0
    inline_chunks: int = 0
    deadline_hit: bool = False

    @property
    def outcomes(self) -> OutcomeTable:
        """Every pair's :class:`PairOutcome`, as the :class:`OutcomeTable`.
        Assigning a list of the same pairs, in order, encodes it."""
        return self.table

    @outcomes.setter
    def outcomes(self, outcomes: Iterable[PairOutcome]) -> None:
        self.table[:] = outcomes

    def ok_outcomes(self) -> List[PairOutcome]:
        return self.table.select(0, _REPAIRED_CODE)

    def error_outcomes(self) -> List[PairOutcome]:
        return self.table.select(_FAILED_CODE)

    def deadline_outcomes(self) -> List[PairOutcome]:
        """Pairs abandoned because the wall-clock deadline expired."""
        return self.table.select(_DEADLINE_CODE)

    def relations(self) -> Dict[Tuple[str, str], CardinalDirection]:
        """The answered pairs as a ``{(primary, reference): R}`` mapping."""
        return self.table.relations()

    def summary(self) -> str:
        tally = self.table.tally()
        parts = [
            f"{tally[OK] + tally[REPAIRED]} pair(s) answered, "
            f"{tally[FAILED]} failed"
        ]
        if tally[DEADLINE]:
            parts.append(f"{tally[DEADLINE]} pair(s) past deadline")
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


def _unusable_text(
    primary_id: str, reference_id: str, broken: Dict[str, str]
) -> str:
    """Why a pair cannot be answered: its unusable regions, primary
    first ("" when both are usable)."""
    return "; ".join(
        f"region {region_id!r} unusable: {broken[region_id]}"
        for region_id in (primary_id, reference_id)
        if region_id in broken
    )


def _deadline_answer(detail: str = "") -> _Answer:
    """A pair abandoned because the wall-clock budget ran out."""
    return (DEADLINE, None, None, detail or _DEADLINE_TEXT, None)


def _pair_outcome(sweep: "_Sweep", primary_id: str, reference_id: str) -> _Answer:
    """One healthy pair through the engine, with policy-bounded retries.

    A transient failure (an injected fault) is retried by plain
    recomputation up to the policy's attempt budget, backing off between
    attempts (capped by the current deadline); when no attempt succeeds,
    or a retry meets another error, the first fault is recorded.  Any
    other :class:`ReproError` takes the retry-after-repair path when the
    sweep repairs and the policy grants more than one attempt.  A
    deadline expiry is terminal and yields a ``DEADLINE`` outcome, never
    a retry.
    """
    primary = sweep.healthy[primary_id]
    box = sweep.boxes[reference_id]
    repaired_pair = primary_id in sweep.repairs or reference_id in sweep.repairs
    policy = sweep.policy
    fault: Optional[ReproError] = None
    for attempt in range(policy.max_attempts):
        if attempt:
            deadline = current_deadline()
            pause = policy.delay(attempt - 1, key=f"{primary_id}:{reference_id}")
            if deadline is not None:
                if deadline.expired():
                    return _deadline_answer()
                pause = min(pause, deadline.remaining())
            count_retry("batch.pair")
            if pause > 0.0:
                time.sleep(pause)
        try:
            if sweep.injector is not None:
                sweep.injector.trigger(
                    "batch.pair",
                    primary=primary_id,
                    reference=reference_id,
                    attempt=attempt,
                )
            relation, matrix, path = _compute_pair(
                primary, box, engine=sweep.backend, percentages=sweep.percentages
            )
        except DeadlineExceeded as error:
            return _deadline_answer(str(error))
        except InjectedFault as error:
            fault = fault or error
            continue
        except ReproError as error:
            if fault is not None:
                break
            if isinstance(error, GeometryError):
                error.with_context(region_id=primary_id)
            if sweep.repair and not repaired_pair and policy.max_attempts > 1:
                count_retry("batch.repair")
                retried = _retry_after_repair(sweep, primary_id, reference_id)
                if retried is not None:
                    return retried
            fault = error
            break
        return (REPAIRED if repaired_pair else OK, relation, matrix, None, path)
    return (FAILED, None, None, f"{type(fault).__name__}: {fault}", None)


def _sweep_rows(sweep: "_Sweep", start: int, stop: int) -> None:
    """The per-pair sweep of the table's rows ``[start, stop)``.

    Every pair goes through :func:`_pair_outcome`, with its per-pair
    fault isolation and retry-after-repair, and each row is written
    into the table once its pairs are answered; no :class:`PairOutcome`
    is made.  This is the whole sweep of an
    engine without the plane protocol, and the fallback for the rows the
    plane kernel did not answer (see :func:`_inline_rows`).  Mutates the
    sweep's ``healthy`` / ``boxes`` / ``repairs`` as retries repair
    regions, so later pairs reuse the repaired geometry.

    The current deadline (contextvar) is checked once per row and once
    per pair: when it expires, every unreached pair is labelled
    ``DEADLINE``, so the table always covers the full rows — partial
    work is labelled, never silently dropped.
    """
    table, broken = sweep.table, sweep.broken
    deadline = current_deadline()
    for row in range(start, stop):
        if deadline is not None and deadline.expired():
            count_deadline_exceeded("batch.sweep")
            late = table.status[row:stop]
            late[late != _ABSENT] = _DEADLINE_CODE
            return
        primary_id = table.primary_ids[row]
        skipped = table.absent.get(row, ())
        columns = [c for c in range(table.width) if c not in skipped]
        answers: List[_Answer] = []
        for reference_id in map(table.reference_ids.__getitem__, columns):
            if primary_id in broken or reference_id in broken:
                unusable = _unusable_text(primary_id, reference_id, broken)
                answers.append((FAILED, None, None, unusable, None))
            elif deadline is not None and deadline.expired():
                answers.append(_deadline_answer())
            else:
                answers.append(_pair_outcome(sweep, primary_id, reference_id))
        table.put(row, columns, answers)


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
    when the deadline expired mid-chunk — and the full-width ``(masks,
    paths, areas)`` blocks :meth:`_Sweep.plane_rows` copies into the
    report's rows in the parent.
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


def _region_block(
    backend: Engine, task: dict, injector: Optional[FaultInjector]
) -> Tuple[int, tuple]:
    """Any other engine's chunk: :func:`_sweep_rows` over Region maps.

    The same call the inline fallback makes, on per-chunk copies of the
    installed maps so every chunk starts from the parent's validated
    state whichever worker serves it, into a table of the chunk's rows;
    its pairs fire the chunk's fault ``injector``.
    Returns the whole chunk as done (pairs past the deadline come back
    labelled ``DEADLINE``) with that table — arrays and sparse maps, no
    per-pair objects beyond the percentage matrices — and the repairs
    made here, for the parent.
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
    table = OutcomeTable(
        primary_ids[task["start"] : task["stop"]],
        reference_ids,
        include_self=task["include_self"],
    )
    sweep = _Sweep(
        table=table,
        include_self=task["include_self"],
        percentages=task["percentages"],
        healthy=dict(healthy),
        boxes=dict(boxes),
        repairs=dict(repairs),
        broken=dict(broken),
        backend=backend,
        repair=repair,
        policy=policy,
        injector=injector,
    )
    _sweep_rows(sweep, 0, len(table.primary_ids))
    new_repairs = {
        region_id: report
        for region_id, report in sweep.repairs.items()
        if region_id not in repairs
    }
    return len(table.primary_ids), (table, new_repairs)


def _pool_chunk(task: dict) -> tuple:
    """One index-range chunk in a pool worker.

    The task dict carries nothing but indices, flags and the parent's
    :func:`~repro.obs.sink_spec` — the geometry was installed by
    :func:`_pool_init`.  A fresh engine per chunk, recreated from its
    ``(name, options)`` spec (under fork the worker inherits every
    :func:`~repro.core.engine.register_engine` made before the pool
    started), keeps the stats snapshot scoped to this dispatch
    (re-dispatched chunks must not double-count).  Returns
    ``(rows_done, block, cpu_seconds, stats, telemetry)``: the
    :func:`_plane_block` / :func:`_region_block` result, the chunk's CPU
    cost (feeding the adaptive sizer), a detached
    :meth:`~repro.core.engine.EngineStats.as_dict` snapshot and what the
    worker's fresh sinks recorded, which the parent grafts into its own
    (:func:`~repro.obs.graft`), so ``workers=N`` loses no telemetry to
    the process boundary.
    """
    chunk_index = task["chunk_index"]
    attempt = task["attempt"]
    injector = current_injector()
    if injector is not None:
        injector.trigger("batch.worker", chunk=chunk_index, attempt=attempt)
    engine_name, engine_options = _WORKER["engine_spec"]
    backend = create_engine(engine_name, **engine_options)
    plane = _WORKER["plane"]
    rows = task["stop"] - task["start"]
    started = time.perf_counter()
    cpu_started = time.process_time()
    with obs.fresh_sinks(task["obs"], worker=f"worker-{chunk_index}") as sinks:
        with obs.span(
            "batch.worker",
            chunk=chunk_index,
            attempt=attempt,
            pid=os.getpid(),
            primaries=rows,
        ):
            with obs.span("batch.chunk", chunk=chunk_index, primaries=rows):
                with deadline_scope(task.get("deadline_seconds")):
                    rows_done, block = (
                        _region_block(backend, task, injector)
                        if plane is None
                        else _plane_block(backend, task, plane, _WORKER["restriction"])
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
        sinks.payload(),
    )


@dataclass
class _Sweep:
    """One sweep's constant state, as the parent holds it.

    Every row is written into ``table``, whose rows are the restricted
    primaries and whose columns the references, in the caller's order;
    ``row_index`` / ``column_index`` give their plane rows (``None``:
    every region, in configuration order).  ``plane`` is set for a plane
    engine only.  It holds the geometry as validated, so its rows are
    labelled from the repairs and unusable regions known when it was
    built, not from what a per-pair retry repairs later.  ``injector``
    is the fault injector the sweep's pairs fire, resolved once per
    sweep (``None``: none armed).
    """

    table: OutcomeTable
    include_self: bool
    percentages: bool
    healthy: Dict[str, Region]
    boxes: Dict[str, BoundingBox]
    repairs: Dict[str, RepairReport]
    broken: Dict[str, str]
    backend: Engine
    repair: bool
    policy: RetryPolicy
    plane: Optional[GeometryPlane] = None
    row_index: Optional[Tuple[int, ...]] = None
    column_index: Optional[Tuple[int, ...]] = None
    injector: Optional[FaultInjector] = None

    def __post_init__(self) -> None:
        self.plane_repaired = frozenset(self.repairs)
        self.plane_broken = dict(self.broken)
        self.column_codes = np.array(
            [reference_id in self.repairs for reference_id in self.table.reference_ids],
            dtype=np.uint8,
        )

    def plane_rows(self, start: int, rows_done: int, block: tuple) -> None:
        """Copy the answered rows of a :func:`_plane_block` result in.

        Their pairs are ``OK``, or ``REPAIRED`` with a repaired region;
        a pair with an empty mask — an unusable region's, or a kernel
        miss — fails, with the text saying which.
        """
        table = self.table
        stop = start + rows_done
        columns: Any = (
            slice(None) if self.column_index is None else list(self.column_index)
        )
        masks, paths, areas = (
            None if block_part is None else block_part[:rows_done, columns]
            for block_part in block
        )
        table.masks[start:stop] = masks
        table.paths[start:stop] = paths
        if areas is not None:
            if table.areas is None:
                table.areas = np.zeros(table.masks.shape + (9,))
            table.areas[start:stop] = areas
        repaired = [
            primary_id in self.plane_repaired
            for primary_id in table.primary_ids[start:stop]
        ]
        status = table.status[start:stop]
        status[...] = np.where(
            masks == 0,
            _FAILED_CODE,
            np.maximum(np.array(repaired, np.uint8)[:, None], self.column_codes),
        )
        for row in range(start, stop):
            status[row - start, table.absent.get(row, [])] = _ABSENT
        for offset, column in zip(*np.nonzero(status == _FAILED_CODE)):
            row, column = start + int(offset), int(column)
            table.errors.setdefault(row, {})[column] = _unusable_text(
                table.primary_ids[row], table.reference_ids[column], self.plane_broken
            ) or "plane kernel produced an empty tile mask"


def _inline_rows(
    sweep: _Sweep, start: int, stop: int, *, attempt: int = 0
) -> None:
    """Rows ``[start, stop)`` of the row list, swept in the parent.

    A plane engine runs the pool's chunk function, :func:`_plane_block`,
    inline over chunks carved by :class:`_ChunkSizer` — so a percentage
    sweep holds one chunk's ``(rows, n, 9)`` area block at a time — and
    copies each block in as the pool does.  A chunk whose kernel raised
    is replayed pair by pair through :func:`_sweep_rows`; the rows past
    an expired deadline go there too, which labels them ``DEADLINE``
    and counts the expiry once.  An engine without the plane sweeps
    every row through :func:`_sweep_rows`.  ``attempt`` reaches the
    ``batch.row`` fault-injection context.
    """
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
                _sweep_rows(sweep, start, start + size)
                start += size
                continue
            sizer.observe(rows_done, time.process_time() - cpu_started)
            sweep.plane_rows(start, rows_done, block)
            start += rows_done
            if rows_done < size:
                break  # the deadline expired: the rest is labelled below
    _sweep_rows(sweep, start, stop)


def _supervise_pool(
    sweep: _Sweep, *, workers: int, chunk_timeout: Optional[float]
) -> Dict[str, int]:
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
    requeued as a fresh chunk so the matrix is always complete.  Every
    answered chunk is written straight into its rows of ``sweep.table``,
    whichever attempt (or the inline fallback) answered it.  Returns
    the supervision counts.
    """
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
    from concurrent.futures.process import BrokenProcessPool

    sink_spec = obs.sink_spec()
    registry = obs.current_metrics()
    backend = sweep.backend
    policy = sweep.policy
    engine_spec = backend.worker_spec()
    deadline = current_deadline()
    total_rows = len(sweep.table.primary_ids)
    regions = (
        None
        if sweep.plane is not None
        else (
            sweep.table.primary_ids,
            sweep.table.reference_ids,
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
            "obs": sink_spec,
        }

    def _lose(chunk: _Chunk, reason: str) -> None:
        stats["worker_failures"] += 1
        if registry is not None:
            registry.counter(
                "repro_worker_restart_total",
                "Parallel batch chunk dispatches lost to worker failures.",
            ).inc(reason=reason)
        obs.record("batch.worker_lost", 0.0, {"count": 1, "reason": reason})
        if chunk.attempt + 1 < policy.max_attempts:
            chunk.attempt += 1
            stats["chunk_retries"] += 1
            count_retry("batch.chunk")
            retry_queue.append(chunk)
        else:
            exhausted.append(chunk)

    def _absorb(chunk: _Chunk, result: tuple) -> None:
        nonlocal next_index
        rows_done, block, cpu_seconds, stats_snapshot, telemetry = result
        backend.stats.merge(stats_snapshot)
        obs.graft(telemetry)
        if rows_done > 0:
            sizer.observe(rows_done, cpu_seconds)
            if sweep.plane is None:
                chunk_table, new_repairs = block
                sweep.table.paste(chunk.start, chunk_table)
                sweep.repairs.update(new_repairs)
            else:
                sweep.plane_rows(chunk.start, rows_done, block)
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
                error = future.exception()
                if error is None:
                    _absorb(finished, future.result())
                elif isinstance(error, BrokenProcessPool):
                    _lose(finished, "broken_pool")
                    pool_broken = True
                elif isinstance(error, DeadlineExceeded):
                    # The worker saw the deadline before the supervisor
                    # did.  Not a worker failure: re-dispatching would
                    # burn retry budget on a budget that is already
                    # gone, so the chunk goes straight to the exhausted
                    # pile and the inline fallback labels its pairs
                    # DEADLINE.
                    count_deadline_exceeded("batch.pool")
                    exhausted.append(finished)
                elif isinstance(error, Exception):
                    # The worker raised (e.g. an injected fault): the
                    # chunk is lost but the pool survives — no rebuild.
                    _lose(finished, type(error).__name__)
                else:
                    raise error  # KeyboardInterrupt / SystemExit: no chunk loss
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
                _inline_rows(
                    sweep, record.start, record.stop, attempt=policy.max_attempts
                )
    return stats


def batch_relations(
    configuration: Configuration,
    *,
    include_self: bool = False,
    percentages: bool = False,
    engine: Optional[EngineLike] = None,
    repair: bool = True,
    validate: bool = True,
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
    :class:`~repro.core.engine.Engine` instance (a guarded ladder with
    its own ``epsilon`` is ``create_engine("guarded", epsilon=...)``).
    The engine's :class:`~repro.core.engine.EngineStats` for the sweep
    are threaded into the returned report.

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
    backend = resolve_engine("exact" if engine is None else engine)
    injector = current_injector()
    healthy: Dict[str, Region] = {}
    repairs: Dict[str, RepairReport] = {}
    broken: Dict[str, str] = {}

    for annotated in configuration:
        region = annotated.region
        if injector is not None:
            region = injector.corrupt("batch.region", region, region_id=annotated.id)
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
            table = OutcomeTable(
                primary_ids, reference_ids, include_self=include_self
            )
            sweep = _Sweep(
                table=table,
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
                injector=injector,
                plane=(
                    GeometryPlane.build(all_ids, healthy=healthy, boxes=boxes)
                    if backend.supports_plane
                    else None
                ),
            )
            if workers is not None and workers > 1 and len(primary_ids) > 1:
                supervision = _supervise_pool(
                    sweep, workers=workers, chunk_timeout=chunk_timeout
                )
            else:
                with obs.span(
                    "batch.chunk", chunk=0, primaries=len(primary_ids)
                ):
                    _inline_rows(sweep, 0, len(primary_ids))
            tally = table.tally()
            deadline_hit = tally[DEADLINE] > 0
            batch_span.set(
                pairs=table.size,
                failed=tally[FAILED] + tally[DEADLINE],
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
        table,
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
    sweep: _Sweep, primary_id: str, reference_id: str
) -> Optional[_Answer]:
    """Repair both operands and recompute a failed pair once.

    Mutates the sweep's ``healthy`` / ``boxes`` / ``repairs`` maps so
    later pairs reuse the repaired geometry.  Returns ``None`` when the
    repair fails or the recomputation still raises — the caller then
    records the *original* error.
    """
    healthy, boxes, repairs, broken = (
        sweep.healthy, sweep.boxes, sweep.repairs, sweep.broken
    )
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
            engine=sweep.backend,
            percentages=sweep.percentages,
        )
    except ReproError:
        return None
    return (REPAIRED, relation, matrix, None, path)
