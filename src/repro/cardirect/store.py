"""Cached pairwise relation computation for a configuration.

CARDIRECT stores "the direction relations among the different regions"
alongside the geometry.  :class:`RelationStore` computes them on demand
with Compute-CDR / Compute-CDR%, caches them, and lets edits invalidate
exactly the affected entries.  The all-pairs matrix is filled by one
:func:`~repro.core.batch.batch_relations` call, the same sweep the
batch pipeline runs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, Optional, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.batch import BatchReport

from repro.cardirect.model import AnnotatedRegion, Configuration
from repro.core.engine import Engine, EngineLike, EngineStats, resolve_engine
from repro.core.index import SpatialIndex
from repro.core.matrix import PercentageMatrix
from repro.core.relation import CardinalDirection
from repro.errors import DeadlineExceeded, GeometryError, ReproError
from repro.extensions.distance import DistanceFrame, minimum_distance
from repro.extensions.topology import RCC8, rcc8
from repro.geometry.bbox import BoundingBox
from repro.obs.metrics import current_metrics

#: ``all_relations`` error policies.
ON_ERROR_MODES = ("raise", "skip", "report")


def _count_store_request(operation: str, result: str, count: int = 1) -> None:
    """``count`` ``repro_store_requests_total{operation, result}`` increments.

    ``result`` is ``"hit"`` when the store's own cache answered and
    ``"miss"`` when the engine had to compute.  A no-op unless a metrics
    registry is installed (:func:`repro.obs.install_metrics`).
    """
    registry = current_metrics()
    if registry is not None:
        registry.counter(
            "repro_store_requests_total",
            "RelationStore lookups, by operation and cache outcome.",
        ).inc(count, operation=operation, result=result)


class RelationStore:
    """Lazy, invalidation-aware cache of pairwise spatial relations.

    Besides the paper's cardinal directions (qualitative and with
    percentages), the store also serves the future-work extensions —
    RCC8 topology and qualitative distance — under the same caching and
    invalidation discipline, so the enriched query language costs each
    geometric computation once.
    """

    def __init__(
        self,
        configuration: Configuration,
        *,
        distance_frame: Optional[DistanceFrame] = None,
        engine: Optional[EngineLike] = None,
        use_index: bool = True,
    ) -> None:
        """``engine`` selects the cardinal-direction compute backend —
        a registered engine name (``"exact"`` default, ``"fast"``,
        ``"guarded"``, ``"clipping"``, or any third-party registration)
        or an :class:`~repro.core.engine.Engine` instance (e.g. one
        carrying a custom ``epsilon``).  The store
        routes every :meth:`relation` / :meth:`percentages` miss through
        it against the cached reference mbb, and its telemetry is
        readable as :attr:`engine_stats`.

        ``use_index=False`` disables the mbb spatial index
        (:attr:`index` stays ``None``), forcing every consumer — the
        query evaluator foremost — onto the full-scan path."""
        self._configuration = configuration
        self._relations: Dict[Tuple[str, str], CardinalDirection] = {}
        self._percentages: Dict[Tuple[str, str], PercentageMatrix] = {}
        self._topology: Dict[Tuple[str, str], RCC8] = {}
        self._distances: Dict[Tuple[str, str], float] = {}
        self._caches = (self._relations, self._percentages,
                        self._topology, self._distances)
        # Every id some cache key names, a removed region's included, so
        # invalidating one id pops O(n) candidate keys.
        self._cached_ids: Set[str] = set()
        self._distance_frame = distance_frame
        self._engine = resolve_engine("exact" if engine is None else engine)
        self._use_index = bool(use_index)
        self._index: Optional[SpatialIndex] = None
        # Maintained relation matrix: `_matrix_ids` names the id set a
        # complete matrix was last built for (None = never), `_dirty`
        # the ids whose row/column must be recomputed before serving.
        self._matrix_ids: Optional[Tuple[str, ...]] = None
        self._dirty: Set[str] = set()

    @property
    def configuration(self) -> Configuration:
        return self._configuration

    @property
    def engine(self) -> Engine:
        """The compute backend serving this store's direction queries."""
        return self._engine

    @property
    def engine_stats(self) -> EngineStats:
        """The engine's telemetry: call counts, timings, ladder paths."""
        return self._engine.stats

    def bounding_box(self, region_id: str) -> BoundingBox:
        """The region's mbb (cached on the region) — the grid every
        relation is read against, and the anchor geometry index queries
        take."""
        return self._configuration.get(region_id).region.bounding_box()

    @property
    def use_index(self) -> bool:
        """Whether this store maintains an mbb spatial index."""
        return self._use_index

    @property
    def index(self) -> Optional[SpatialIndex]:
        """The :class:`~repro.core.index.SpatialIndex` over this
        configuration's mbbs, built lazily and kept current across
        :meth:`update_region` / :meth:`invalidate` (regions whose box
        cannot be computed stay unindexed — always candidates, never
        rejected).  ``None`` when the store was built with
        ``use_index=False``.
        """
        if not self._use_index:
            return None
        ids = tuple(self._configuration.region_ids)
        index = self._index
        if index is None or index.ids != ids:
            boxes: Dict[str, BoundingBox] = {}
            for region_id in ids:
                try:
                    boxes[region_id] = self.bounding_box(region_id)
                except ReproError:
                    continue
            index = SpatialIndex(ids, boxes)
            self._index = index
        return index

    def refresh_matrix(self) -> None:
        """Bring the maintained all-pairs relation matrix up to date.

        First call (or after the configuration's id set changes) fills
        every ordered pair with one :meth:`_sweep`, then replays the
        pairs it could not answer through :meth:`relation`, so the
        first that fails again raises with its region context.  After a
        targeted :meth:`invalidate` / :meth:`update_region`, only the
        dirty ids' rows and columns are refilled, pair by pair through
        :meth:`relation` — ``O(n)`` engine work per edited region
        instead of the ``O(n^2)`` rebuild.  :meth:`all_relations` calls
        this implicitly.
        """
        ids = tuple(self._configuration.region_ids)
        if self._matrix_ids != ids:
            # Full (re)build: the dirty set is subsumed — invalidation
            # already dropped the stale pairs, so they recompute here.
            self._dirty.clear()
            for outcome in self._sweep().error_outcomes():
                self._refill(outcome.primary_id, outcome.reference_id)
            self._matrix_ids = ids
            return
        for region_id in sorted(self._dirty.intersection(ids)):
            for other_id in ids:
                if other_id != region_id:
                    self._refill(region_id, other_id)
                    self._refill(other_id, region_id)
        self._dirty.clear()

    def _sweep(self, *, include_self: bool = False) -> "BatchReport":
        """Every ordered pair from one ``batch_relations`` call.

        The sweep runs on the stored geometry — no validation, no
        repair — through this store's own engine instance, so its work
        lands in :attr:`engine_stats`.  Answered pairs are cached
        straight from the report's mask column; when the ambient
        deadline cut the sweep short, the cached pairs stay and
        :class:`~repro.errors.DeadlineExceeded` is raised.
        """
        from repro.core.batch import batch_relations

        report = batch_relations(
            self._configuration,
            include_self=include_self,
            engine=self._engine,
            validate=False,
            repair=False,
        )
        answered = report.relations()
        self._relations.update(answered)
        self._cached_ids.update(self._configuration.region_ids)
        _count_store_request("relation", "miss", len(answered))
        if report.deadline_hit:
            raise DeadlineExceeded(site="store.sweep", remaining=0.0)
        return report

    def _refill(self, primary_id: str, reference_id: str) -> CardinalDirection:
        """The pair's relation, computed through :meth:`relation` unless
        cached, with the primary's id attached to a geometry error."""
        cached = self._relations.get((primary_id, reference_id))
        if cached is not None:
            return cached
        try:
            return self.relation(primary_id, reference_id)
        except GeometryError as error:
            error.with_context(region_id=primary_id)
            raise

    def relation(self, primary_id: str, reference_id: str) -> CardinalDirection:
        """``R`` with ``primary R reference`` (cached)."""
        key = (primary_id, reference_id)
        cached = self._relations.get(key)
        if cached is None:
            primary = self._configuration.get(primary_id).region
            cached = self._engine.relation(primary, self.bounding_box(reference_id))
            self._relations[key] = cached
            self._cached_ids.update(key)
            _count_store_request("relation", "miss")
        else:
            self._engine.stats.record_cache_assist()
            _count_store_request("relation", "hit")
        return cached

    def percentages(self, primary_id: str, reference_id: str) -> PercentageMatrix:
        """The percentage matrix of ``primary`` vs ``reference`` (cached)."""
        key = (primary_id, reference_id)
        cached = self._percentages.get(key)
        if cached is None:
            primary = self._configuration.get(primary_id).region
            cached = self._engine.percentages(primary, self.bounding_box(reference_id))
            self._percentages[key] = cached
            self._cached_ids.update(key)
            _count_store_request("percentages", "miss")
        else:
            self._engine.stats.record_cache_assist()
            _count_store_request("percentages", "hit")
        return cached

    def all_relations(
        self, *, include_self: bool = False, on_error: str = "raise"
    ) -> Iterator[Tuple[str, str, CardinalDirection]]:
        """Every ordered pair's relation — what CARDIRECT persists as
        ``Relation`` elements.

        ``on_error`` selects the fault-isolation policy:

        * ``"raise"`` (default, historical behaviour) — the first failing
          pair aborts the sweep, with region-id context attached to
          :class:`~repro.errors.GeometryError`;
        * ``"skip"`` — failing pairs are silently omitted; every pair of
          healthy regions is still yielded;
        * ``"report"`` — yields :class:`~repro.core.batch.PairOutcome`
          objects instead of triples, one per pair, ``ok`` or ``error``.
          For the full validate→repair→retry pipeline use
          :meth:`batch_relations`.

        In the default ``"raise"`` mode the sweep is served from the
        maintained matrix (:meth:`refresh_matrix`): the first run fills
        it with one ``batch_relations`` call, later runs replay it with
        no engine work at all, and edits re-enter only the touched
        row/column.  ``include_self`` and the other modes read one such
        sweep of their own; a failed pair is replayed through
        :meth:`relation` in ``"raise"`` mode only.  Every mode raises
        :class:`~repro.errors.DeadlineExceeded` when the ambient
        deadline cut the sweep short.
        """
        if on_error not in ON_ERROR_MODES:
            raise ValueError(
                f"on_error must be one of {ON_ERROR_MODES}, got {on_error!r}"
            )
        ids = self._configuration.region_ids
        if on_error == "raise" and not include_self:
            self.refresh_matrix()
            relations = self._relations
            for primary_id in ids:
                for reference_id in ids:
                    if primary_id == reference_id:
                        continue
                    yield (
                        primary_id,
                        reference_id,
                        relations[(primary_id, reference_id)],
                    )
            return
        for outcome in self._sweep(include_self=include_self).outcomes:
            if on_error == "report":
                yield outcome
            elif outcome.ok:
                yield outcome.primary_id, outcome.reference_id, outcome.relation
            elif on_error == "raise":
                yield (
                    outcome.primary_id,
                    outcome.reference_id,
                    self._refill(outcome.primary_id, outcome.reference_id),
                )

    def batch_relations(self, **kwargs) -> "BatchReport":
        """Fault-isolated pairwise sweep with repair and retry.

        Delegates to :func:`repro.core.batch.batch_relations` over this
        store's configuration, defaulting the compute engine to a fresh
        instance of the store's own — via
        :meth:`~repro.core.engine.Engine.spawn`, so a custom engine's
        configuration (a guarded ladder's ``epsilon``) carries over
        while the report's ``engine_stats`` still cover exactly the
        sweep.  Accepts the same keyword
        arguments; returns a :class:`~repro.core.batch.BatchReport`.
        """
        from repro.core.batch import batch_relations

        if "engine" not in kwargs:
            kwargs["engine"] = self._engine.spawn()
        return batch_relations(self._configuration, **kwargs)

    @property
    def distance_frame(self) -> DistanceFrame:
        """The frame used by :meth:`qualitative_distance`.

        Derived from the configuration's regions on first use unless one
        was supplied at construction.
        """
        if self._distance_frame is None:
            self._distance_frame = DistanceFrame.for_scene(
                [annotated.region for annotated in self._configuration]
            )
        return self._distance_frame

    def topology(self, primary_id: str, reference_id: str) -> RCC8:
        """The RCC8 relation (cached; requires rectilinear regions)."""
        key = (primary_id, reference_id)
        cached = self._topology.get(key)
        if cached is None:
            cached = rcc8(
                self._configuration.get(primary_id).region,
                self._configuration.get(reference_id).region,
            )
            self._topology[key] = cached
            self._topology[(reference_id, primary_id)] = cached.inverse()
            self._cached_ids.update(key)
        return cached

    def distance(self, primary_id: str, reference_id: str) -> float:
        """Minimum distance between the two regions (cached, symmetric)."""
        key = (primary_id, reference_id)
        cached = self._distances.get(key)
        if cached is None:
            cached = minimum_distance(
                self._configuration.get(primary_id).region,
                self._configuration.get(reference_id).region,
            )
            self._distances[key] = cached
            self._distances[(reference_id, primary_id)] = cached
            self._cached_ids.update(key)
        return cached

    def qualitative_distance(self, primary_id: str, reference_id: str) -> str:
        """The distance symbol under :attr:`distance_frame`."""
        return self.distance_frame.classify(
            self.distance(primary_id, reference_id)
        )

    def invalidate(self, region_id: Optional[str] = None) -> None:
        """Drop cache entries touching ``region_id`` (or everything).

        Call after editing a region's geometry via
        :meth:`Configuration.replace_region`.  A targeted invalidation
        pops the keys pairing ``region_id`` with each id the caches name
        (``O(n)`` lookups, not a scan of every cached pair), marks only
        that region's matrix row/column dirty (recomputed on
        the next :meth:`refresh_matrix` / :meth:`all_relations`) and
        re-points the spatial index row in place; the no-argument form
        drops the matrix and the index wholesale.
        """
        if region_id is None:
            for cache in self._caches:
                cache.clear()
            self._cached_ids.clear()
            self._matrix_ids = None
            self._dirty.clear()
            self._index = None
            return
        for other_id in self._cached_ids:
            for key in ((region_id, other_id), (other_id, region_id)):
                for cache in self._caches:
                    cache.pop(key, None)
        self._cached_ids.discard(region_id)
        if self._matrix_ids is not None:
            self._dirty.add(region_id)
        if self._index is not None:
            try:
                box: Optional[BoundingBox] = self.bounding_box(region_id)
            except (ReproError, KeyError):
                box = None
            if not self._index.update(region_id, box):
                self._index = None

    def update_region(self, annotated: AnnotatedRegion) -> None:
        """Replace a region in the configuration and invalidate its entries."""
        self._configuration.replace_region(annotated)
        self.invalidate(annotated.id)
