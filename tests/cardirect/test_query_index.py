"""Index-accelerated query evaluation: equivalence, order, telemetry.

The spatial index is only allowed to make evaluation *faster*: for any
configuration and any query, the indexed path must return the exact
result list — same rows, same order — as the full scan
(``use_index=False``).  The randomized property test here is the same
gate CI runs; the remaining cases pin the deterministic variable
ordering (ties broken lexicographically) and the clause telemetry the
index feeds.
"""

import json
import random

import pytest

from repro.cardirect.model import AnnotatedRegion, Configuration
from repro.cardirect.query import (
    AttributeCondition,
    Query,
    RelationCondition,
)
from repro.cardirect.store import RelationStore
from repro.core.relation import (
    ALL_BASIC_RELATIONS,
    CardinalDirection,
    DisjunctiveCD,
)
from repro.core.tiles import Tile
from repro.geometry.region import Region
from repro.workloads.generators import random_rectilinear_region

SEEDS = (5, 17, 20040314)

COLORS = ("red", "blue", "green", "")


def rect_region(x0, y0, x1, y1) -> Region:
    return Region.from_coordinates([[(x0, y0), (x0, y1), (x1, y1), (x1, y0)]])


def random_configuration(rng: random.Random, count: int) -> Configuration:
    return Configuration.from_regions(
        [
            AnnotatedRegion(
                id=f"r{index}",
                name=f"Region {index}",
                color=rng.choice(COLORS),
                region=random_rectilinear_region(
                    rng, rng.randrange(1, 4), bounds=(-30, -30, 30, 30)
                ),
            )
            for index in range(count)
        ]
    )


def random_query(rng: random.Random) -> Query:
    """A random conjunctive query over two or three variables."""
    variables = ["a", "b", "c"][: rng.randrange(2, 4)]
    conditions = []
    if rng.random() < 0.5:
        conditions.append(
            AttributeCondition("a", "color", rng.choice(("red", "blue")))
        )
    pairs = [("a", "b")] + ([("b", "c")] if len(variables) == 3 else [])
    for primary, reference in pairs:
        width = rng.randrange(1, 7)
        relation = DisjunctiveCD(
            rng.sample(ALL_BASIC_RELATIONS, width)
        )
        conditions.append(
            RelationCondition(primary, relation, reference)
        )
    return Query(variables, conditions)


class TestIndexScanEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("engine", ["sweep", "exact"])
    def test_randomized_queries(self, seed, engine):
        """The CI gate: object-for-object equality on random configs."""
        rng = random.Random(seed)
        for round_ in range(4):
            configuration = random_configuration(rng, rng.randrange(6, 18))
            indexed = RelationStore(configuration, engine=engine)
            scanned = RelationStore(
                configuration, engine=engine, use_index=False
            )
            for _ in range(3):
                query = random_query(rng)
                assert query.evaluate(indexed, use_index=True) == (
                    query.evaluate(scanned, use_index=False)
                ), (seed, round_, query.conditions)

    def test_indexed_store_scan_evaluation(self):
        """``use_index=False`` works against an index-bearing store."""
        rng = random.Random(1)
        configuration = random_configuration(rng, 10)
        store = RelationStore(configuration)
        query = random_query(rng)
        assert query.evaluate(store, use_index=False) == query.evaluate(
            store, use_index=True
        )

    def test_unindexed_store_serves_index_requests(self):
        """A ``use_index=False`` store has no index: evaluate falls
        back to the scan even when asked to use one."""
        rng = random.Random(2)
        configuration = random_configuration(rng, 8)
        store = RelationStore(configuration, use_index=False)
        assert store.index is None
        query = random_query(rng)
        reference = RelationStore(configuration, use_index=False)
        assert query.evaluate(store, use_index=True) == query.evaluate(
            reference, use_index=False
        )


class TestDeterministicOrdering:
    def _store(self) -> RelationStore:
        configuration = Configuration.from_regions(
            [
                AnnotatedRegion("p1", rect_region(0, 10, 2, 12)),
                AnnotatedRegion("p2", rect_region(4, 10, 6, 12)),
                AnnotatedRegion("q1", rect_region(0, 0, 2, 2)),
                AnnotatedRegion("q2", rect_region(4, 0, 6, 2)),
            ]
        )
        return RelationStore(configuration)

    def test_tie_breaks_lexicographically(self):
        """Equal candidate pools: the smaller *name* is bound first.

        Both variables start with all four regions, so only the
        tie-break decides the nesting; with ``x`` outer the rows come
        grouped by ``x`` in region order, which is observable in the
        result sequence (tuples stay in head order ``(y, x)``).
        """
        store = self._store()
        relation = DisjunctiveCD({CardinalDirection(Tile.N)})
        query = Query(
            ["y", "x"], [RelationCondition("x", relation, "y")]
        )
        ids = list(store.configuration.region_ids)
        expected = []
        for x in ids:  # outer: "x" < "y" at equal pool sizes
            for y in ids:
                if x == y:
                    continue
                if store.relation(x, y) == CardinalDirection(Tile.N):
                    expected.append((y, x))
        for use_index in (True, False):
            assert (
                query.evaluate(store, use_index=use_index) == expected
            ), use_index
        assert expected  # the scenario must actually produce rows

    def test_stable_across_runs(self):
        rng = random.Random(23)
        configuration = random_configuration(rng, 12)
        query = random_query(rng)
        store = RelationStore(configuration)
        first = query.evaluate(store)
        for _ in range(3):
            assert query.evaluate(store) == first


class TestIndexTelemetry:
    def test_metrics_counters(self):
        from repro.obs.metrics import install_metrics, uninstall_metrics

        rng = random.Random(3)
        configuration = random_configuration(rng, 14)
        store = RelationStore(configuration)
        relation = DisjunctiveCD({CardinalDirection(Tile.N)})
        query = Query(
            ["a", "b"], [RelationCondition("a", relation, "b")]
        )
        registry = install_metrics()
        try:
            query.evaluate(store)
        finally:
            uninstall_metrics()
        text = json.dumps(registry.snapshot())
        assert "repro_query_index_candidates_total" in text
        assert "repro_query_index_rejected_total" in text

    def test_scan_emits_no_index_metrics(self):
        from repro.obs.metrics import install_metrics, uninstall_metrics

        rng = random.Random(3)
        configuration = random_configuration(rng, 14)
        store = RelationStore(configuration, use_index=False)
        relation = DisjunctiveCD({CardinalDirection(Tile.N)})
        query = Query(
            ["a", "b"], [RelationCondition("a", relation, "b")]
        )
        registry = install_metrics()
        try:
            query.evaluate(store, use_index=False)
        finally:
            uninstall_metrics()
        text = json.dumps(registry.snapshot())
        assert "repro_query_index_candidates_total" not in text
        assert "repro_query_clause_checks_total" in text


class TestAttributeTableFreshness:
    """Colour filters read a table the configuration builds on first
    use; every edit must drop it, or filters answer from stale colours."""

    QUERIES = [
        Query(["x"], [AttributeCondition("x", "color", color)])
        for color in COLORS
    ] + [
        Query(
            ["x", "y"],
            [
                AttributeCondition("x", "color", "red"),
                AttributeCondition("y", "color", "blue"),
                RelationCondition(
                    "x", DisjunctiveCD(ALL_BASIC_RELATIONS[:40]), "y"
                ),
            ],
        )
    ]

    def _assert_matches_fresh(self, store):
        fresh = RelationStore(
            Configuration.from_regions(store.configuration.regions())
        )
        for query in self.QUERIES:
            assert query.evaluate(store) == query.evaluate(fresh), (
                query.conditions
            )

    def test_colour_queries_follow_edits(self):
        rng = random.Random(29)
        configuration = random_configuration(rng, 14)
        store = RelationStore(configuration)
        self._assert_matches_fresh(store)  # builds the table
        red = next(r for r in configuration if r.color == "red")
        store.update_region(red.recolored("blue"))
        self._assert_matches_fresh(store)
        configuration.add(
            AnnotatedRegion("added", rect_region(40, 40, 45, 45), color="red")
        )
        self._assert_matches_fresh(store)
        blue = next(r for r in configuration if r.color == "blue")
        configuration.remove(blue.id)
        self._assert_matches_fresh(store)
