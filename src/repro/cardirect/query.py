"""The CARDIRECT query model (Section 4).

A query is ``q = {(x1, ..., xn) | φ(x1, ..., xn)}`` where ``φ`` is a
conjunction of three kinds of atoms:

* ``x_i = a`` — direct reference to a region of the configuration
  (:class:`IdentityCondition`);
* ``f(x_i) = c`` — a thematic restriction, e.g. ``color(x1) = blue``
  (:class:`AttributeCondition`);
* ``x_i R x_j`` — a (possibly disjunctive) cardinal direction constraint
  (:class:`RelationCondition`).

Evaluation enumerates assignments of configuration regions to the
variables with straightforward constraint propagation: unary conditions
prune each variable's candidate set up front, then binary relation
conditions are checked during a depth-first assignment, most-constrained
variable first.  Relations come from a :class:`~repro.cardirect.store.
RelationStore`, so repeated queries over one configuration never
recompute geometry.

When the store carries a spatial index (:attr:`RelationStore.index`,
the default), each direction clause additionally restricts its
variable's pool *before* the engine sees it: with the other side bound,
the clause is a box-arithmetic question over the candidate's mbb
(:meth:`~repro.core.index.SpatialIndex.direction_candidates`), so
provably-impossible candidates are dropped and provably-satisfying ones
skip the engine check outright.  The index answers are conservative in
both directions, so results are identical to the full scan — pass
``use_index=False`` (or build the store with ``use_index=False``, or
``--no-index`` on the CLI) to fall back and check.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import DeadlineExceeded, QueryError, ReproError
from repro.cardirect.model import THEMATIC_ATTRIBUTES, Configuration
from repro.cardirect.store import RelationStore
from repro.core.relation import CardinalDirection, DisjunctiveCD
from repro.core.tiles import Tile
from repro.extensions.topology import RCC8
from repro.obs.metrics import current_metrics
from repro.obs.trace import current_tracer, span as _obs_span
from repro.resilience.deadline import current_deadline


@dataclass(frozen=True)
class IdentityCondition:
    """``x = a`` — the variable must be a specific region (id or name)."""

    variable: str
    reference: str


@dataclass(frozen=True)
class AttributeCondition:
    """``f(x) = c`` — a thematic attribute must have an exact value."""

    variable: str
    attribute: str
    value: str

    def __post_init__(self) -> None:
        if self.attribute not in THEMATIC_ATTRIBUTES:
            raise QueryError(
                f"unknown attribute {self.attribute!r}; "
                f"expected one of {THEMATIC_ATTRIBUTES}"
            )


@dataclass(frozen=True)
class RelationCondition:
    """``x R y`` — a basic or disjunctive cardinal direction constraint."""

    primary: str
    relation: DisjunctiveCD
    reference: str

    @classmethod
    def basic(
        cls, primary: str, relation: CardinalDirection, reference: str
    ) -> "RelationCondition":
        return cls(primary, DisjunctiveCD((relation,)), reference)


@dataclass(frozen=True)
class TopologyCondition:
    """``rcc8(x, y) = EC`` — the future-work topological atom [2].

    ``relations`` is a non-empty set of admissible RCC8 relations (a
    disjunction, mirroring disjunctive cardinal direction atoms).
    """

    primary: str
    relations: frozenset
    reference: str

    def __post_init__(self) -> None:
        if not self.relations:
            raise QueryError("topology condition needs >= 1 RCC8 relation")
        for relation in self.relations:
            if not isinstance(relation, RCC8):
                raise QueryError(f"not an RCC8 relation: {relation!r}")

    @classmethod
    def parse_values(cls, primary: str, text: str, reference: str) -> "TopologyCondition":
        names = [part.strip() for part in text.strip("{}").split(",")]
        try:
            relations = frozenset(RCC8[name.upper()] for name in names if name)
        except KeyError as error:
            raise QueryError(f"unknown RCC8 relation {error.args[0]!r}") from None
        return cls(primary, relations, reference)


@dataclass(frozen=True)
class DistanceCondition:
    """``distance(x, y) = close`` — the future-work distance atom [3].

    ``symbols`` is a non-empty set of admissible distance symbols under
    the store's frame of reference.
    """

    primary: str
    symbols: frozenset
    reference: str

    def __post_init__(self) -> None:
        if not self.symbols:
            raise QueryError("distance condition needs >= 1 symbol")

    @classmethod
    def parse_values(cls, primary: str, text: str, reference: str) -> "DistanceCondition":
        symbols = frozenset(
            part.strip() for part in text.strip("{}").split(",") if part.strip()
        )
        return cls(primary, symbols, reference)


#: Comparison operators usable in percentage conditions.
_COMPARATORS: Dict[str, Callable[[float, float], bool]] = {
    ">=": lambda left, right: left >= right,
    "<=": lambda left, right: left <= right,
    ">": lambda left, right: left > right,
    "<": lambda left, right: left < right,
    "=": lambda left, right: left == right,
}


@dataclass(frozen=True)
class PercentageCondition:
    """``pct(x, y, NE) >= 50`` — a quantitative directional atom.

    Constrains the share of ``primary``'s area falling into one tile of
    ``reference``'s grid (the cells of the cardinal direction matrix with
    percentages).  ``threshold`` is in percentage points.
    """

    primary: str
    tile: Tile
    operator: str
    threshold: float
    reference: str

    def __post_init__(self) -> None:
        if self.operator not in _COMPARATORS:
            raise QueryError(
                f"unknown comparator {self.operator!r}; "
                f"expected one of {sorted(_COMPARATORS)}"
            )
        if not isinstance(self.tile, Tile):
            raise QueryError(f"not a tile: {self.tile!r}")
        if not 0 <= float(self.threshold) <= 100:
            raise QueryError(
                f"percentage threshold must be in [0, 100], got {self.threshold!r}"
            )

    def holds(self, share) -> bool:
        return _COMPARATORS[self.operator](float(share), float(self.threshold))


Condition = Union[
    IdentityCondition,
    AttributeCondition,
    RelationCondition,
    TopologyCondition,
    DistanceCondition,
    PercentageCondition,
]


@dataclass
class Query:
    """A conjunctive query over a configuration.

    ``variables`` fixes the order of each result tuple.  By default
    distinct variables must bind to distinct regions (the natural reading
    of the paper's examples); pass ``allow_repeats=True`` to lift that.
    """

    variables: Sequence[str]
    conditions: List[Condition] = field(default_factory=list)
    allow_repeats: bool = False

    def __post_init__(self) -> None:
        if not self.variables:
            raise QueryError("a query needs at least one variable")
        if len(set(self.variables)) != len(self.variables):
            raise QueryError("duplicate variable in query head")
        known = set(self.variables)
        for condition in self.conditions:
            for variable in _condition_variables(condition):
                if variable not in known:
                    raise QueryError(
                        f"condition uses unknown variable {variable!r} "
                        f"(declared: {sorted(known)})"
                    )

    def evaluate(
        self, store: RelationStore, *, use_index: bool = True
    ) -> List[Tuple[str, ...]]:
        """All satisfying assignments, as tuples of region ids.

        ``use_index=False`` bypasses the store's spatial index for this
        evaluation (the full-scan reference path); by construction both
        paths return identical results.

        With a tracer or metrics registry installed (:mod:`repro.obs`),
        evaluation is profiled: a ``query.evaluate`` span wraps the
        search, each binary condition gets a ``query.clause`` child span
        carrying its check/reject counts and accumulated time (plus,
        for index-restricted relation clauses, ``index_candidates`` /
        ``index_rejected`` / ``index_definite``), and the unary pruning
        records per-clause candidate counts.  Without installed sinks
        the instrumented bookkeeping is skipped entirely.

        Under a deadline (an enclosing
        :func:`~repro.resilience.deadline_scope`) the search stops when
        the budget expires and raises
        :class:`~repro.errors.DeadlineExceeded` with the result tuples
        found so far attached as ``error.partial_results`` — callers
        choose between the partial answer and the failure.
        """
        tracer = current_tracer()
        registry = current_metrics()
        if tracer is None and registry is None:
            plain: List[Tuple[str, ...]] = []
            try:
                for row in self.iter_results(store, use_index=use_index):
                    plain.append(row)
            except DeadlineExceeded as error:
                error.partial_results = tuple(plain)
                raise
            return plain
        clause_stats: Dict[int, List[float]] = {}
        with _obs_span(
            "query.evaluate",
            variables=len(self.variables),
            conditions=len(self.conditions),
        ) as query_span:
            results: List[Tuple[str, ...]] = []
            try:
                for row in self.iter_results(
                    store, use_index=use_index, _clause_stats=clause_stats
                ):
                    results.append(row)
            except DeadlineExceeded as error:
                query_span.set(
                    results=len(results), deadline_exceeded=True
                )
                error.partial_results = tuple(results)
                raise
            query_span.set(results=len(results))
            if tracer is not None or registry is not None:
                binary_conditions = _binary_conditions(self.conditions)
                for index, condition in enumerate(binary_conditions):
                    (
                        checks,
                        rejected,
                        seconds,
                        index_candidates,
                        index_rejected,
                        index_definite,
                    ) = clause_stats.get(index, (0, 0, 0.0, 0, 0, 0))
                    kind = _condition_kind(condition)
                    if tracer is not None:
                        tracer.record(
                            "query.clause",
                            float(seconds),
                            {
                                "kind": kind,
                                "clause": (
                                    f"{condition.primary} ? "
                                    f"{condition.reference}"
                                ),
                                "checks": int(checks),
                                "rejected": int(rejected),
                                "index_candidates": int(index_candidates),
                                "index_rejected": int(index_rejected),
                                "index_definite": int(index_definite),
                            },
                        )
                    if registry is not None:
                        registry.counter(
                            "repro_query_clause_checks_total",
                            "Binary clause checks during query evaluation.",
                        ).inc(int(checks), kind=kind)
                        if index_candidates or index_rejected:
                            registry.counter(
                                "repro_query_index_candidates_total",
                                "Clause candidates admitted by the "
                                "spatial index.",
                            ).inc(int(index_candidates), kind=kind)
                            registry.counter(
                                "repro_query_index_rejected_total",
                                "Clause candidates rejected by the spatial "
                                "index before any engine work.",
                            ).inc(int(index_rejected), kind=kind)
                        if index_definite:
                            registry.counter(
                                "repro_query_index_definite_total",
                                "Engine checks skipped because the spatial "
                                "index proved the clause outright.",
                            ).inc(int(index_definite), kind=kind)
        if registry is not None:
            registry.counter(
                "repro_query_evaluations_total",
                "Queries evaluated to completion.",
            ).inc()
            registry.counter(
                "repro_query_results_total",
                "Result tuples produced by query evaluation.",
            ).inc(len(results))
        return results

    def iter_results(
        self,
        store: RelationStore,
        *,
        use_index: bool = True,
        _clause_stats: Optional[Dict[int, List[float]]] = None,
    ) -> Iterator[Tuple[str, ...]]:
        configuration = store.configuration
        candidates = self._unary_filtered_candidates(configuration)
        binary_conditions = _binary_conditions(self.conditions)
        # Most-constrained variable first keeps the search shallow;
        # lexicographic tie-break keeps the order (and every trace
        # derived from it) deterministic across runs.
        order = sorted(
            self.variables, key=lambda v: (len(candidates[v]), v)
        )
        assignment: Dict[str, str] = {}
        index = store.index if use_index else None

        def restrict(
            variable: str,
        ) -> Tuple[Sequence[str], Dict[int, FrozenSet[str]]]:
            """Index-restrict the variable's pool at this search depth.

            Every relation clause linking ``variable`` to an
            already-bound one is answered by the index against the
            bound side's mbb: the pool shrinks to the clause's
            candidate superset, and provably-satisfying ids are
            collected per clause so :func:`admissible` can skip their
            engine checks.
            """
            pool = candidates[variable]
            definite_map: Dict[int, FrozenSet[str]] = {}
            if index is None or not pool:
                return pool, definite_map
            allowed: Optional[FrozenSet[str]] = None
            for cond_index, condition in enumerate(binary_conditions):
                if not isinstance(condition, RelationCondition):
                    continue
                if (
                    condition.primary == variable
                    and condition.reference in assignment
                ):
                    role = "primary"
                    anchor = assignment[condition.reference]
                elif (
                    condition.reference == variable
                    and condition.primary in assignment
                ):
                    role = "reference"
                    anchor = assignment[condition.primary]
                else:
                    continue
                try:
                    box = store.bounding_box(anchor)
                except ReproError:
                    continue  # broken anchor: the engine check decides
                answer = index.direction_candidates(
                    condition.relation, box, role=role
                )
                if answer is None:
                    continue  # too wide to be selective
                allowed = (
                    answer.candidates
                    if allowed is None
                    else allowed & answer.candidates
                )
                if answer.definite:
                    definite_map[cond_index] = answer.definite
                if _clause_stats is not None:
                    entry = _clause_stats.setdefault(
                        cond_index, [0, 0, 0.0, 0, 0, 0]
                    )
                    survivors = sum(
                        1 for rid in pool if rid in answer.candidates
                    )
                    entry[3] += survivors
                    entry[4] += len(pool) - survivors
            if allowed is None:
                return pool, definite_map
            return [rid for rid in pool if rid in allowed], definite_map

        def admissible(
            variable: str,
            region_id: str,
            definite_map: Dict[int, FrozenSet[str]],
        ) -> bool:
            if not self.allow_repeats and region_id in assignment.values():
                return False
            assignment[variable] = region_id
            try:
                for index_, condition in enumerate(binary_conditions):
                    primary = assignment.get(condition.primary)
                    reference = assignment.get(condition.reference)
                    if primary is None or reference is None:
                        continue
                    if (
                        index_ in definite_map
                        and region_id in definite_map[index_]
                    ):
                        # The index already proved this clause for this
                        # candidate (single-tile prune): no engine work.
                        if _clause_stats is not None:
                            entry = _clause_stats.setdefault(
                                index_, [0, 0, 0.0, 0, 0, 0]
                            )
                            entry[5] += 1
                        continue
                    if _clause_stats is None:
                        if not _binary_satisfied(
                            condition, primary, reference, store
                        ):
                            return False
                    else:
                        started = time.perf_counter()
                        held = _binary_satisfied(
                            condition, primary, reference, store
                        )
                        entry = _clause_stats.setdefault(
                            index_, [0, 0, 0.0, 0, 0, 0]
                        )
                        entry[0] += 1
                        entry[2] += time.perf_counter() - started
                        if not held:
                            entry[1] += 1
                            return False
                return True
            finally:
                del assignment[variable]

        deadline = current_deadline()

        def search(depth: int) -> Iterator[Tuple[str, ...]]:
            if depth == len(order):
                yield tuple(assignment[v] for v in self.variables)
                return
            variable = order[depth]
            pool, definite_map = restrict(variable)
            for region_id in pool:
                # Candidate-granularity deadline enforcement: already-
                # yielded rows stay valid, so the caller keeps a
                # well-labelled partial result.
                if deadline is not None:
                    deadline.check("query.evaluate")
                if admissible(variable, region_id, definite_map):
                    assignment[variable] = region_id
                    yield from search(depth + 1)
                    del assignment[variable]

        yield from search(0)

    def _unary_filtered_candidates(
        self, configuration: Configuration
    ) -> Dict[str, Sequence[str]]:
        tracer = current_tracer()
        # None: the variable's pool is still the whole configuration.
        pools: Dict[str, Optional[Sequence[str]]] = {
            variable: None for variable in self.variables
        }
        for condition in self.conditions:
            if not isinstance(
                condition, (IdentityCondition, AttributeCondition)
            ):
                continue
            pool = pools[condition.variable]
            before = len(configuration) if pool is None else len(pool)
            started = time.perf_counter() if tracer is not None else 0.0
            if isinstance(condition, IdentityCondition):
                resolved = configuration.resolve(condition.reference).id
                pool = [resolved] if pool is None or resolved in pool else []
            else:
                matching = configuration.ids_with(
                    condition.attribute, condition.value
                )
                if pool is None:
                    pool = matching
                else:
                    keep = set(matching)
                    pool = [
                        region_id for region_id in pool if region_id in keep
                    ]
            pools[condition.variable] = pool
            if tracer is not None:
                tracer.record(
                    "query.clause",
                    time.perf_counter() - started,
                    {
                        "kind": _condition_kind(condition),
                        "clause": condition.variable,
                        "candidates_before": before,
                        "candidates_after": len(pool),
                    },
                )
        return {
            variable: configuration.region_ids if pool is None else pool
            for variable, pool in pools.items()
        }


def _binary_conditions(conditions: Sequence[Condition]) -> List[Condition]:
    """The binary (two-variable) conditions, in declaration order."""
    return [
        condition
        for condition in conditions
        if isinstance(
            condition,
            (
                RelationCondition,
                TopologyCondition,
                DistanceCondition,
                PercentageCondition,
            ),
        )
    ]


def _condition_kind(condition: Condition) -> str:
    """A short lowercase tag for telemetry labels (``relation``, ...)."""
    name = type(condition).__name__
    if name.endswith("Condition"):
        name = name[: -len("Condition")]
    return name.lower()


def _condition_variables(condition: Condition) -> Tuple[str, ...]:
    if isinstance(condition, (IdentityCondition, AttributeCondition)):
        return (condition.variable,)
    if isinstance(
        condition,
        (
            RelationCondition,
            TopologyCondition,
            DistanceCondition,
            PercentageCondition,
        ),
    ):
        return (condition.primary, condition.reference)
    raise QueryError(f"unknown condition type: {type(condition).__name__}")


def _binary_satisfied(
    condition: Condition, primary: str, reference: str, store: RelationStore
) -> bool:
    if isinstance(condition, RelationCondition):
        return condition.relation.contains(store.relation(primary, reference))
    if isinstance(condition, TopologyCondition):
        return store.topology(primary, reference) in condition.relations
    if isinstance(condition, PercentageCondition):
        share = store.percentages(primary, reference).percentage(condition.tile)
        return condition.holds(share)
    return store.qualitative_distance(primary, reference) in condition.symbols
