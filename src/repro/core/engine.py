"""Pluggable compute engines: one dispatch point for every compute path.

The repository grew four ways to compute a cardinal direction relation —
the exact reference (Compute-CDR / Compute-CDR%), the vectorised numpy
fast path, the guarded exactness-fallback ladder, and the polygon
clipping baseline of Section 3 — and, historically, every consumer
(:class:`~repro.cardirect.store.RelationStore`, :mod:`repro.core.batch`,
the CLI, the benchmarks) re-implemented the ``fast=`` / ``guarded=`` /
``compute=`` dispatch between them, each with its own ad-hoc telemetry.

This module is the single dispatch point.  An :class:`Engine` answers

* :meth:`Engine.relation`    — ``R`` with ``primary R mbb(reference)``;
* :meth:`Engine.percentages` — the percentage matrix of the same pair;

both *against a precomputed reference mbb* (a region scans its edges for
its mbb once; an engine never rescans a reference region's edges).
Every engine instance carries a uniform :class:`EngineStats` record —
call counts, wall-clock totals (:func:`time.perf_counter`), ladder path
counts, cache-assist counts.  When the observability subsystem
(:mod:`repro.obs`) has a tracer or metrics registry installed, every
operation is also reported there — a span named
``engine.<name>.<operation>`` and the ``repro_engine_operations_total`` /
``repro_engine_operation_seconds`` series.  One method,
:meth:`Engine._account`, feeds all three from the same per-path counts;
a private sink is a scoped install (``with obs.tracing(tracer): ...``).

Engines are looked up by name in a string-keyed registry:

>>> engine = create_engine("guarded")
>>> sorted(available_engines())
['clipping', 'exact', 'fast', 'guarded', 'sweep']

Third-party backends plug in with one call — :func:`register_engine` —
after which every consumer (``RelationStore(engine=...)``,
``batch_relations(engine=...)``, ``cardirect ... --engine``) can select
them by name with no further surgery.  See ``docs/ENGINES.md``.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from fractions import Fraction
from typing import Callable, Dict, Iterable, Mapping, Optional, Tuple, Union

from repro.core.compute import compute_cdr_against_box
from repro.core.matrix import PercentageMatrix
from repro.core.percentages import compute_cdr_percentages_against_box
from repro.core.relation import RELATIONS_BY_MASK, CardinalDirection
from repro.core.tiles import Tile, single_tile_prune
from repro.geometry.bbox import BoundingBox
from repro.geometry.region import Region
from repro.obs.metrics import current_metrics
from repro.obs.trace import AttributeValue, current_tracer
from repro.resilience.deadline import current_deadline

#: The two operations every engine implements.
OPERATIONS = ("relation", "percentages")

#: What answered one engine invocation (see :meth:`EngineStats.record`):
#: one pair's path (``None`` for a single-path engine), or the
#: ``{path: pairs}`` counts of an invocation that answered many pairs.
Paths = Union[None, str, Mapping[str, int]]


class EngineStats:
    """Uniform per-engine-instance telemetry.

    Maintained by the :class:`Engine` base class for every backend, so
    consumers read one shape regardless of the compute path:

    * :attr:`calls` / :attr:`seconds` — per-operation call counts and
      wall-clock totals (``perf_counter``);
    * :attr:`path_counts` — how often each internal path answered
      (the guarded ladder's ``"fast"`` / ``"exact"`` rungs, the sweep
      engine's ``"prune"`` / ``"broadcast"``; empty for single-path
      engines);
    * :attr:`cache_assists` — operations a *caller* answered from its
      own cache without invoking the engine (recorded by the caller via
      :meth:`record_cache_assist`, e.g. the relation store's pair cache);
    * :attr:`edge_cache_hits` — engine calls served from the engine's
      own per-primary edge-array cache instead of rebuilding the
      primary's float64 arrays (the dominant per-pair cost on sweeps).
    """

    __slots__ = ("calls", "seconds", "path_counts", "cache_assists",
                 "edge_cache_hits")

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {op: 0 for op in OPERATIONS}
        self.seconds: Dict[str, float] = {op: 0.0 for op in OPERATIONS}
        self.path_counts: Dict[str, int] = {}
        self.cache_assists: int = 0
        self.edge_cache_hits: int = 0

    @property
    def total_calls(self) -> int:
        return sum(self.calls.values())

    @property
    def total_seconds(self) -> float:
        return sum(self.seconds.values())

    def record(
        self, operation: str, seconds: float, paths: Paths = None
    ) -> int:
        """Account one completed engine invocation; returns its pairs.

        ``paths`` is the internal path that answered one pair (``None``
        for a single-path engine), or the ``{path: pairs}`` counts of an
        invocation that answered several pairs at once (a row of the
        sweep engine's :meth:`~repro.core.sweep.SweepEngine.sweep_plane`).
        ``calls`` advances by the pairs, so pairs-per-second telemetry
        stays comparable across engines, while ``seconds`` accrues the
        invocation's one wall-clock measurement.
        """
        if paths is None:
            count = 1
        elif isinstance(paths, str):
            count = 1
            self.path_counts[paths] = self.path_counts.get(paths, 0) + 1
        else:
            count = 0
            for path, pairs in paths.items():
                count += pairs
                self.path_counts[path] = self.path_counts.get(path, 0) + pairs
        self.calls[operation] = self.calls.get(operation, 0) + count
        self.seconds[operation] = self.seconds.get(operation, 0.0) + seconds
        return count

    def record_cache_assist(self) -> None:
        """Account one call a caller's cache answered for the engine."""
        self.cache_assists += 1

    def record_edge_cache_hit(self) -> None:
        """Account one engine call served from the edge-array cache."""
        self.edge_cache_hits += 1

    def merge(self, snapshot: Mapping[str, object]) -> None:
        """Fold a detached :meth:`as_dict` snapshot into this record.

        The parallel batch executor runs one engine per worker process
        and merges the per-worker snapshots into the single
        :class:`EngineStats` attached to the
        :class:`~repro.core.batch.BatchReport`.
        """
        for op, count in snapshot.get("calls", {}).items():
            self.calls[op] = self.calls.get(op, 0) + count
        for op, seconds in snapshot.get("seconds", {}).items():
            self.seconds[op] = self.seconds.get(op, 0.0) + seconds
        for path, count in snapshot.get("path_counts", {}).items():
            self.path_counts[path] = self.path_counts.get(path, 0) + count
        self.cache_assists += snapshot.get("cache_assists", 0)
        self.edge_cache_hits += snapshot.get("edge_cache_hits", 0)

    def as_dict(self) -> Dict[str, object]:
        """A plain-dict snapshot (JSON-friendly, detached from the engine)."""
        return {
            "calls": dict(self.calls),
            "seconds": dict(self.seconds),
            "path_counts": dict(self.path_counts),
            "cache_assists": self.cache_assists,
            "edge_cache_hits": self.edge_cache_hits,
        }

    def summary(self) -> str:
        """One line of human-readable telemetry."""
        per_op = ", ".join(
            f"{self.calls.get(op, 0)} {op}" for op in OPERATIONS
        )
        parts = [
            f"{self.total_calls} call(s) ({per_op}) "
            f"in {self.total_seconds * 1e3:.3f} ms"
        ]
        if self.path_counts:
            parts.append(
                "paths: "
                + ", ".join(
                    f"{path}={count}"
                    for path, count in sorted(self.path_counts.items())
                )
            )
        if self.cache_assists:
            parts.append(f"cache assists: {self.cache_assists}")
        if self.edge_cache_hits:
            parts.append(f"edge-cache hits: {self.edge_cache_hits}")
        return "; ".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EngineStats({self.as_dict()!r})"


#: Default capacity of the per-engine edge-array cache.  The batch sweep
#: iterates primary-major, so even a single slot catches the dominant
#: rebuild; a few extra slots absorb interleaved store access patterns.
DEFAULT_EDGE_CACHE_SIZE = 8


class Engine:
    """Base class for compute engines.

    Subclasses set :attr:`name` and implement the two hooks

    * ``_relation(primary, box) -> (CardinalDirection, path | None)``
    * ``_percentages(primary, box) -> (PercentageMatrix, path | None)``

    where ``path`` optionally labels the internal path that answered
    (the guarded ladder reports ``"fast"`` / ``"exact"``).  The base
    class wraps both with timing and accounting (:meth:`_account`), so
    a backend is only ever the two hooks.

    The base class also owns a small **per-primary edge cache**: the
    float64 edge arrays of the last few primary regions,
    keyed by object identity.  Building those arrays is a Python loop
    over every vertex — the documented dominant cost of the numpy fast
    path — and an all-pairs sweep historically rebuilt them O(n) times
    per primary (once per reference box, and again for the percentage
    call of the same pair).  Engines that consume edge arrays
    (``fast``, ``guarded`` and the ``sweep`` engine's per-pair calls;
    its plane sweep reads the plane's own arrays) fetch them via
    :meth:`edge_arrays` so one build serves every reference box and
    both operations; hits are visible as
    ``stats.edge_cache_hits``.  ``edge_cache_size=0`` disables caching
    (the pre-cache behaviour, kept for benchmarking).
    """

    #: Registry key and display name; subclasses override.
    name: str = "engine"

    #: Whether the engine implements the index-addressed
    #: ``sweep_plane(plane, start, stop, ...)`` protocol over a
    #: :class:`~repro.core.plane.GeometryPlane`.  Every batch sweep of
    #: such an engine then runs that kernel — inline when serial, in the
    #: pool's workers under ``workers=N`` — and falls back to the
    #: per-pair protocol only for rows the kernel did not answer;
    #: engines without it sweep pair by pair, and their pool workers get
    #: the validated region maps instead.  One supervisor runs both.
    supports_plane: bool = False

    def __init__(self, *, edge_cache_size: int = DEFAULT_EDGE_CACHE_SIZE) -> None:
        self.stats = EngineStats()
        self._edge_cache_size = edge_cache_size
        # id(region) -> (region, arrays); the strong region reference
        # pins the id against reuse while cached.
        self._edge_cache: "OrderedDict[int, tuple]" = OrderedDict()

    # -- public API --------------------------------------------------

    def relation(self, primary: Region, box: BoundingBox) -> CardinalDirection:
        """``R`` with ``primary R b`` where ``mbb(b) == box``."""
        return self.relation_with_path(primary, box)[0]

    def percentages(self, primary: Region, box: BoundingBox) -> PercentageMatrix:
        """The percentage matrix of ``primary`` against ``box``."""
        return self.percentages_with_path(primary, box)[0]

    def relation_with_path(
        self, primary: Region, box: BoundingBox
    ) -> Tuple[CardinalDirection, Optional[str]]:
        """Like :meth:`relation`, also naming the internal path taken."""
        return self._timed("relation", self._relation, primary, box)

    def percentages_with_path(
        self, primary: Region, box: BoundingBox
    ) -> Tuple[PercentageMatrix, Optional[str]]:
        """Like :meth:`percentages`, also naming the internal path taken."""
        return self._timed("percentages", self._percentages, primary, box)

    # -- edge-array cache --------------------------------------------

    def edge_arrays(self, primary: Region) -> Tuple:
        """The primary's float64 edge arrays
        (:class:`~repro.core.fast.EdgeArrays`), cached per region object.

        One build serves every reference box *and* both the relation
        and percentage calls of a pair; hits are recorded in
        ``stats.edge_cache_hits``.
        """
        from repro.core.fast import _edge_arrays

        if self._edge_cache_size <= 0:
            return _edge_arrays(primary)  # caching disabled
        key = id(primary)
        entry = self._edge_cache.get(key)
        if entry is not None and entry[0] is primary:
            self._edge_cache.move_to_end(key)
            self.stats.record_edge_cache_hit()
            return entry[1]
        arrays = _edge_arrays(primary)
        self._edge_cache[key] = (primary, arrays)
        while len(self._edge_cache) > self._edge_cache_size:
            self._edge_cache.popitem(last=False)
        return arrays

    # -- lifecycle ----------------------------------------------------

    def clone_options(self) -> Dict[str, object]:
        """The constructor options that configure this instance.

        Subclasses with tunables (the guarded ladder's ``epsilon`` /
        ``drift_tolerance``) override this so :meth:`spawn` and the
        parallel batch executor can build *compatible* fresh instances
        instead of silently dropping configuration.
        """
        return {}

    def spawn(self) -> "Engine":
        """A fresh instance with this engine's configuration.

        Same backend, same tunables — but zero'd stats and an empty
        cache, so a consumer (e.g. ``RelationStore.batch_relations``)
        gets telemetry covering exactly its own sweep.
        """
        return type(self)(**self.clone_options())

    def worker_spec(self) -> Tuple[str, Dict[str, object]]:
        """``(registry name, options)`` for recreating this engine in a
        worker process.

        A worker's engine reports to the sinks the worker installs, and
        the batch executor grafts them into the parent's (see
        :mod:`repro.obs.channel`), alongside the merged
        :meth:`EngineStats.as_dict` snapshots.
        """
        return self.name, self.clone_options()

    # -- subclass hooks ----------------------------------------------

    def _relation(
        self, primary: Region, box: BoundingBox
    ) -> Tuple[CardinalDirection, Optional[str]]:
        raise NotImplementedError

    def _percentages(
        self, primary: Region, box: BoundingBox
    ) -> Tuple[PercentageMatrix, Optional[str]]:
        raise NotImplementedError

    # -- plumbing ----------------------------------------------------

    def _timed(self, operation, implementation, primary, box):
        # Pair-granularity deadline enforcement: refuse to start an
        # operation whose budget has already expired (one contextvar
        # read + None check when no deadline is installed).
        deadline = current_deadline()
        if deadline is not None:
            deadline.check(f"engine.{self.name}.{operation}")
        start = time.perf_counter()
        value, path = implementation(primary, box)
        self._account(operation, time.perf_counter() - start, path)
        return value, path

    def _account(self, operation: str, seconds: float, paths: Paths) -> None:
        """Account one completed invocation, once, in every sink.

        :class:`EngineStats`, the installed span tracer and the
        installed metrics registry (both from :mod:`repro.obs`) read
        the same ``paths`` counts (see :meth:`EngineStats.record`), so
        they cannot disagree.  While no sink is installed this costs
        the stats update and two ``None`` checks.  The span carries the
        ``path`` of one pair, or a bulk invocation's ``count`` and its
        pairs per path; the counter counts pairs per path.
        """
        count = self.stats.record(operation, seconds, paths)
        tracer = current_tracer()
        if tracer is not None:
            attributes: Dict[str, AttributeValue] = {
                "engine": self.name,
                "operation": operation,
            }
            if isinstance(paths, str):
                attributes["path"] = paths
            elif paths is not None:
                attributes["count"] = count
                attributes.update((path, pairs) for path, pairs in paths.items() if pairs)
            tracer.record(f"engine.{self.name}.{operation}", seconds, attributes)
        registry = current_metrics()
        if registry is not None:
            per_path: Iterable[Tuple[Optional[str], int]] = (
                ((paths, 1),) if paths is None or isinstance(paths, str) else paths.items()
            )
            counter = registry.counter(
                "repro_engine_operations_total",
                "Completed engine operations (bulk calls count per pair).",
            )
            for path, pairs in per_path:
                if pairs:
                    counter.inc(
                        pairs, engine=self.name, operation=operation, path=path or ""
                    )
            registry.histogram(
                "repro_engine_operation_seconds",
                "Wall-clock seconds per engine invocation.",
            ).observe(seconds, engine=self.name, operation=operation)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


# ---------------------------------------------------------------------------
# Built-in engines
# ---------------------------------------------------------------------------


#: Per tile, the ``Fraction`` cells Compute-CDR% gives a pair pruned to it.
_EXACT_PRUNE_MATRICES: Dict[Tile, PercentageMatrix] = {
    tile: PercentageMatrix({t: Fraction(100 if t is tile else 0) for t in Tile})
    for tile in Tile
}


def _is_rational(primary: Region, box: BoundingBox) -> bool:
    """Whether all coordinates are int / ``Fraction`` (``Fraction`` cells)."""
    values = [box.min_x, box.min_y, box.max_x, box.max_y]
    for polygon in primary.polygons:
        values.extend(c for vertex in polygon.vertices for c in (vertex.x, vertex.y))
    return all(isinstance(value, (int, Fraction)) for value in values)


class ExactEngine(Engine):
    """The reference implementation: Compute-CDR / Compute-CDR%, exact
    over Python's numeric tower.  A pair :func:`~repro.core.tiles.single_tile_prune`
    decides gets the edge path's answer from the boxes, except float
    percentages: their one cell, ``100.0 * v / v``, is not always 100.0."""

    name = "exact"

    def _relation(self, primary, box):
        tile = single_tile_prune(primary.bounding_box(), box)
        if tile is not None:
            return RELATIONS_BY_MASK[1 << tile], None
        return compute_cdr_against_box(primary, box), None

    def _percentages(self, primary, box):
        tile = single_tile_prune(primary.bounding_box(), box)
        if tile is not None and _is_rational(primary, box):
            return _EXACT_PRUNE_MATRICES[tile], None
        return compute_cdr_percentages_against_box(primary, box), None


class FastEngine(Engine):
    """The vectorised float64 numpy path (:mod:`repro.core.fast`): the
    kernel the sweep engine runs over whole rows, called with one box.

    Appropriate for large float workloads where exact rational
    percentages are not required; only as exact as float64 for ties at
    the grid lines, and it never prunes, so it stays the unpruned float
    baseline.  Edge arrays come from the base class's per-primary
    cache, so an all-pairs sweep builds each primary's arrays once
    rather than once per pair.
    """

    name = "fast"

    def _relation(self, primary, box):
        from repro.core.fast import compute_cdr_fast_against_box

        return (
            compute_cdr_fast_against_box(
                primary, box, arrays=self.edge_arrays(primary)
            ),
            None,
        )

    def _percentages(self, primary, box):
        from repro.core.fast import compute_cdr_percentages_fast_against_box

        return (
            compute_cdr_percentages_fast_against_box(
                primary, box, arrays=self.edge_arrays(primary)
            ),
            None,
        )


class GuardedEngine(Engine):
    """The exactness-fallback ladder (:mod:`repro.core.guarded`): fast
    where provably safe, exact where not.

    The rung that answered each call is accumulated in
    ``stats.path_counts`` (``"fast"`` / ``"exact"``) and reported as the
    ``path`` label of its span and metric.
    """

    name = "guarded"

    def __init__(
        self,
        *,
        epsilon: Optional[float] = None,
        drift_tolerance: Optional[float] = None,
        edge_cache_size: int = DEFAULT_EDGE_CACHE_SIZE,
    ) -> None:
        from repro.core.guarded import DEFAULT_DRIFT_TOLERANCE, DEFAULT_EPSILON

        super().__init__(edge_cache_size=edge_cache_size)
        self.epsilon = DEFAULT_EPSILON if epsilon is None else epsilon
        self.drift_tolerance = (
            DEFAULT_DRIFT_TOLERANCE
            if drift_tolerance is None
            else drift_tolerance
        )
        # Pre-seed both rungs so telemetry readers always see both keys.
        self.stats.path_counts = {"fast": 0, "exact": 0}

    def clone_options(self) -> Dict[str, object]:
        return {
            "epsilon": self.epsilon,
            "drift_tolerance": self.drift_tolerance,
        }

    def _relation(self, primary, box):
        from repro.core.guarded import guarded_cdr_against_box

        relation, diagnostics = guarded_cdr_against_box(
            primary,
            box,
            epsilon=self.epsilon,
            arrays=self.edge_arrays(primary),
        )
        return relation, diagnostics.path

    def _percentages(self, primary, box):
        from repro.core.guarded import guarded_percentages_against_box

        matrix, diagnostics = guarded_percentages_against_box(
            primary,
            box,
            epsilon=self.epsilon,
            drift_tolerance=self.drift_tolerance,
            arrays=self.edge_arrays(primary),
        )
        return matrix, diagnostics.path


class ClippingEngine(Engine):
    """The polygon-clipping baseline the paper argues against (§3).

    Nine edge scans per call; kept as a registered engine so the
    benchmarks can compare every backend under identical harnesses.
    """

    name = "clipping"

    def _relation(self, primary, box):
        from repro.core.baseline import clip_region_to_tiles

        pieces = clip_region_to_tiles(primary, box)
        tiles = [tile for tile, polygons in pieces.items() if polygons]
        return CardinalDirection(*tiles), None

    def _percentages(self, primary, box):
        from repro.core.baseline import clip_region_to_tiles

        pieces = clip_region_to_tiles(primary, box)
        areas = {
            tile: sum((polygon.area() for polygon in polygons), start=0)
            for tile, polygons in pieces.items()
        }
        return PercentageMatrix.from_areas(areas), None


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

#: A factory producing a fresh :class:`Engine`; usually the class itself.
EngineFactory = Callable[..., Engine]

_REGISTRY: Dict[str, EngineFactory] = {}

#: Anything the consumers accept as an engine selector.
EngineLike = Union[str, Engine]


def register_engine(
    name: str, factory: EngineFactory, *, replace: bool = False
) -> None:
    """Register a backend under ``name`` (usually the engine class).

    After registration every consumer can select it by name:
    ``RelationStore(configuration, engine=name)``,
    ``batch_relations(..., engine=name)``, ``cardirect ... --engine
    name``.  Re-registering an existing name raises unless
    ``replace=True``.
    """
    if not name or not isinstance(name, str):
        raise ValueError(f"engine name must be a non-empty string, got {name!r}")
    if name in _REGISTRY and not replace:
        raise ValueError(
            f"engine {name!r} is already registered; pass replace=True to override"
        )
    _REGISTRY[name] = factory


def unregister_engine(name: str) -> None:
    """Remove a registered backend (primarily for tests/plugins)."""
    _REGISTRY.pop(name, None)


def available_engines() -> Tuple[str, ...]:
    """The names of all registered backends, sorted."""
    return tuple(sorted(_REGISTRY))


def create_engine(name: str, **options: object) -> Engine:
    """Instantiate a fresh engine by registry name.

    ``options`` are forwarded to the backend's factory (e.g.
    ``create_engine("guarded", epsilon=1e-6)``).
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"{name!r} does not name a registered compute engine; "
            f"registered: {', '.join(available_engines())}"
        ) from None
    return factory(**options)


def resolve_engine(engine: EngineLike, **options: object) -> Engine:
    """Accept an :class:`Engine` instance as-is, or create one by name."""
    if isinstance(engine, Engine):
        return engine
    if isinstance(engine, str):
        return create_engine(engine, **options)
    raise TypeError(
        "engine must be an Engine instance or a registered engine name, "
        f"got {type(engine).__name__}"
    )


def _sweep_factory(**options) -> Engine:
    """Lazy factory for the sweep engine (defers the numpy import)."""
    from repro.core.sweep import SweepEngine

    return SweepEngine(**options)


register_engine(ExactEngine.name, ExactEngine)
register_engine(FastEngine.name, FastEngine)
register_engine(GuardedEngine.name, GuardedEngine)
register_engine(ClippingEngine.name, ClippingEngine)
register_engine("sweep", _sweep_factory)
