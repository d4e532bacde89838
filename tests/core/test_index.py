"""Property tests for the column spatial index (`repro.core.index`).

The index is an *accelerator*, so its acceptance bar is containment,
not similarity: for every direction clause, its candidate set must
contain every true satisfier (soundness — a miss would silently drop
query answers) and its definite set must contain only true satisfiers
whose relation is exactly the single-tile disjunct (so the evaluator
may skip the engine check).  `tile_candidates` gets the adversarial
boundary treatment `single_tile_prune` gets in the sweep suite: the
two must agree pair-for-pair, including on grazing mbbs where strict
semantics forbid pruning.  The whole-column comparisons themselves are
checked exactly, before and after edits, against a per-row plain-Python
reference that applies the same query boxes.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import create_engine
from repro.core.index import (
    MAX_DISJUNCTS,
    IndexAnswer,
    SpatialIndex,
    _closed_bounds,
    _strict_bounds,
)
from repro.core.relation import (
    ALL_BASIC_RELATIONS,
    CardinalDirection,
    DisjunctiveCD,
)
from repro.core.tiles import Tile, single_tile_prune
from repro.geometry.bbox import BoundingBox
from repro.workloads.generators import random_rectilinear_region

SEEDS = (3, 11, 20040314)


def _workload(seed, count, *, rectangles=3, bounds=(-40, -40, 40, 40)):
    """id -> Region for ``count`` random rectilinear regions."""
    rng = random.Random(seed)
    return {
        f"r{index}": random_rectilinear_region(
            rng, rectangles, bounds=bounds
        )
        for index in range(count)
    }


def _boxes(regions):
    return {
        region_id: region.bounding_box()
        for region_id, region in regions.items()
    }


def _index(regions, **kwargs):
    boxes = _boxes(regions)
    return SpatialIndex(sorted(regions), boxes, **kwargs), boxes


class TestTileCandidates:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("role", ["primary", "reference"])
    def test_matches_single_tile_prune(self, seed, role):
        regions = _workload(seed, 30)
        index, boxes = _index(regions)
        for anchor_id, anchor_box in boxes.items():
            answers = index.tile_candidates(anchor_box, role=role)
            for other_id, other_box in boxes.items():
                if role == "primary":
                    pruned = single_tile_prune(other_box, anchor_box)
                else:
                    pruned = single_tile_prune(anchor_box, other_box)
                listed = {
                    tile
                    for tile, members in answers.items()
                    if other_id in members
                }
                if pruned is None or pruned is Tile.B:
                    assert not listed, (anchor_id, other_id, listed)
                else:
                    assert listed == {pruned}, (anchor_id, other_id)

    def test_boundary_contact_never_qualifies(self):
        """Grazing mbbs share a grid line: strict semantics say no."""
        reference = BoundingBox(0, 0, 10, 10)
        grazing = {
            "west_touch": BoundingBox(-5, 2, 0, 8),
            "north_touch": BoundingBox(2, 10, 8, 15),
            "corner_touch": BoundingBox(10, 10, 15, 15),
            "due_west": BoundingBox(-5, 2, -1, 8),
        }
        index = SpatialIndex(sorted(grazing), grazing)
        answers = index.tile_candidates(reference, role="primary")
        listed = {
            region_id
            for members in answers.values()
            for region_id in members
        }
        assert listed == {"due_west"}
        assert answers[Tile.W] == ("due_west",)

    def test_b_tile_absent(self):
        regions = _workload(0, 10)
        index, boxes = _index(regions)
        answers = index.tile_candidates(next(iter(boxes.values())))
        assert Tile.B not in answers
        assert set(answers) == set(Tile) - {Tile.B}


class TestDirectionCandidates:
    def _true_satisfiers(
        self, engine, regions, boxes, relation, anchor_id, role
    ):
        found = set()
        for other_id in regions:
            if other_id == anchor_id:
                continue
            if role == "primary":
                computed = engine.relation(
                    regions[other_id], boxes[anchor_id]
                )
            else:
                computed = engine.relation(
                    regions[anchor_id], boxes[other_id]
                )
            if relation.contains(computed):
                found.add(other_id)
        return found

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("role", ["primary", "reference"])
    def test_sound_and_definite(self, seed, role):
        """candidates ⊇ true satisfiers ⊇ definite, per random clause."""
        rng = random.Random(seed)
        regions = _workload(seed, 25)
        index, boxes = _index(regions)
        engine = create_engine("exact")
        single_tiles = [
            CardinalDirection(tile) for tile in Tile if tile is not Tile.B
        ]
        for _ in range(12):
            anchor_id = rng.choice(sorted(regions))
            width = rng.randrange(1, 5)
            relation = DisjunctiveCD(
                {rng.choice(ALL_BASIC_RELATIONS) for _ in range(width)}
                | {rng.choice(single_tiles)}
            )
            answer = index.direction_candidates(
                relation, boxes[anchor_id], role=role
            )
            assert answer is not None
            true = self._true_satisfiers(
                engine, regions, boxes, relation, anchor_id, role
            )
            missed = true - set(answer.candidates)
            assert not missed, (anchor_id, relation, missed)
            false_definite = set(answer.definite) - true
            assert not false_definite, (anchor_id, relation, false_definite)
            assert answer.definite <= answer.candidates

    def test_wide_disjunction_abstains(self):
        regions = _workload(1, 5)
        index, boxes = _index(regions)
        wide = DisjunctiveCD(ALL_BASIC_RELATIONS[: MAX_DISJUNCTS + 1])
        box = next(iter(boxes.values()))
        assert index.direction_candidates(wide, box) is None
        narrow = DisjunctiveCD(ALL_BASIC_RELATIONS[:MAX_DISJUNCTS])
        assert index.direction_candidates(narrow, box) is not None

    def test_empty_disjunction_is_unsatisfiable(self):
        regions = _workload(2, 5)
        index, boxes = _index(regions)
        answer = index.direction_candidates(
            DisjunctiveCD(), next(iter(boxes.values()))
        )
        assert answer is not None
        assert answer.candidates == frozenset()
        assert answer.definite == frozenset()

    @pytest.mark.parametrize("role", ["primary", "reference"])
    def test_empty_disjunction_rejects_unindexed_ids(self, role):
        """Nothing satisfies the empty disjunction, not even an id the
        index cannot see."""
        boxes = {"a": BoundingBox(0, 0, 1, 1)}
        index = SpatialIndex(("a", "broken"), boxes)
        answer = index.direction_candidates(
            DisjunctiveCD(), BoundingBox(5, 5, 6, 6), role=role
        )
        assert answer == IndexAnswer(frozenset(), frozenset())

    def test_bad_role_rejected(self):
        regions = _workload(2, 3)
        index, boxes = _index(regions)
        box = next(iter(boxes.values()))
        with pytest.raises(ValueError):
            index.direction_candidates(
                DisjunctiveCD({CardinalDirection(Tile.N)}), box, role="left"
            )
        with pytest.raises(ValueError):
            index.tile_candidates(box, role="left")

    def test_fraction_boxes_stay_sound(self):
        """Wide exact coordinates are rounded outward, never inward."""
        third = Fraction(1, 3)
        regions = {
            "exact": BoundingBox(third, third, 2 * third, 2 * third),
            "north": BoundingBox(0.4, 1, 0.6, 2),
        }
        index = SpatialIndex(sorted(regions), regions)
        anchor = BoundingBox(
            Fraction(1, 3), Fraction(-10), Fraction(2, 3), Fraction(1, 3)
        )
        answer = index.direction_candidates(
            DisjunctiveCD({CardinalDirection(Tile.N)}), anchor
        )
        # "exact" touches the anchor's max_y grid line within float
        # rounding: it must stay a candidate and must not be definite.
        assert "exact" in answer.candidates
        assert "exact" not in answer.definite
        assert "north" in answer.definite


class TestMaintenance:
    def test_update_matches_rebuild(self):
        regions = _workload(7, 40)
        index, boxes = _index(regions)
        moved = "r11"
        boxes[moved] = BoundingBox(200, 200, 210, 210)
        assert index.update(moved, boxes[moved])
        rebuilt = SpatialIndex(sorted(regions), boxes)
        probe = BoundingBox(195, 195, 220, 220)
        for role in ("primary", "reference"):
            assert index.tile_candidates(probe, role=role) == (
                rebuilt.tile_candidates(probe, role=role)
            )
        relation = DisjunctiveCD({CardinalDirection(Tile.B)})
        assert index.direction_candidates(relation, probe) == (
            rebuilt.direction_candidates(relation, probe)
        )

    def test_update_unknown_id(self):
        index, _ = _index(_workload(7, 4))
        assert not index.update("ghost", BoundingBox(0, 0, 1, 1))

    def test_population_change_demands_rebuild(self):
        regions = _workload(7, 6)
        boxes = _boxes(regions)
        del boxes["r0"]  # r0 starts unindexed
        index = SpatialIndex(sorted(regions), boxes)
        assert "r0" in index.unindexed_ids
        # unindexed -> indexed and indexed -> unindexed both refuse...
        assert not index.update("r0", BoundingBox(0, 0, 1, 1))
        assert not index.update("r1", None)
        # ...while unindexed -> still-unindexed is absorbable.
        assert index.update("r0", None)

    def test_unindexed_always_candidate_never_definite(self):
        regions = _workload(9, 12)
        boxes = _boxes(regions)
        del boxes["r3"]
        index = SpatialIndex(sorted(regions), boxes)
        relation = DisjunctiveCD({CardinalDirection(Tile.SW)})
        anchor = boxes["r0"]
        answer = index.direction_candidates(relation, anchor)
        assert "r3" in answer.candidates
        assert "r3" not in answer.definite
        for members in index.tile_candidates(anchor).values():
            assert "r3" not in members


class TestPacking:
    def test_box_query(self):
        boxes = {
            "inside": BoundingBox(1, 1, 2, 2),
            "outside": BoundingBox(30, 30, 40, 40),
        }
        index = SpatialIndex(sorted(boxes), boxes)
        found = index.box_query(
            (0, 0, 0, 0), (10, 10, 10, 10)
        )
        assert found == ("inside",)
        everything = index.box_query(
            (-np.inf,) * 4, (np.inf,) * 4
        )
        assert set(everything) == set(boxes)

    def test_box_query_returns_unindexed_ids_in_row_order(self):
        boxes = {
            "a": BoundingBox(0, 0, 1, 1),
            "b": BoundingBox(30, 30, 40, 40),
        }
        index = SpatialIndex(("a", "broken", "b"), boxes)
        assert index.box_query((-np.inf,) * 4, (np.inf,) * 4) == (
            "a",
            "broken",
            "b",
        )
        assert index.box_query((0, 0, 0, 0), (10, 10, 10, 10)) == (
            "a",
            "broken",
        )

    def test_empty_and_validation(self):
        empty = SpatialIndex((), {})
        assert len(empty) == 0
        assert empty.box_query((0, 0, 0, 0), (1, 1, 1, 1)) == ()
        with pytest.raises(ValueError):
            SpatialIndex(("a", "a"), {})


# -- the column scan against a per-row reference ---------------------------

SINGLE_TILE_RELATIONS = [CardinalDirection(tile) for tile in Tile]


def _widened(value):
    """The float64 interval a stored coordinate occupies: ``value`` itself
    when float64 holds it, else the two floats around it."""
    low = high = float(value)
    if low > value:
        low = math.nextafter(low, -math.inf)
    if high < value:
        high = math.nextafter(high, math.inf)
    return low, high


# Thirds, sevenths and tenths that no float64 holds (stored widened).
_INEXACT = [
    Fraction(numerator, denominator)
    for numerator, denominator in ((-13, 3), (1, 3), (2, 3), (9, 7), (31, 10))
]
# Ints, floats, those fractions and the floats either side of each.  A
# small shared pool makes corners coincide with the anchor's grid lines
# and with each other's rounding, where the closed and strict tests and
# the outward widening part ways.
_COORDINATES = (
    list(range(-6, 7))
    + [-5.5, -0.1, 0.3, 2.25, 4.000000000000001]
    + _INEXACT
    + [side for value in _INEXACT for side in _widened(value)]
)
_coordinates = st.sampled_from(_COORDINATES)
_extents = st.lists(_coordinates, min_size=2, max_size=2, unique=True).map(
    sorted
)


@st.composite
def _bounding_boxes(draw):
    (min_x, max_x), (min_y, max_y) = draw(_extents), draw(_extents)
    return BoundingBox(min_x, min_y, max_x, max_y)


_relations = st.builds(
    DisjunctiveCD,
    st.lists(
        st.one_of(
            st.sampled_from(SINGLE_TILE_RELATIONS),
            st.sampled_from(ALL_BASIC_RELATIONS),
        ),
        max_size=8,
    ),
)


class _RowReference:
    """The index's answers, one row at a time in plain Python."""

    def __init__(self, ids, boxes):
        self.ids = list(ids)
        self.rows = {}
        for region_id, box in boxes.items():
            widened = [
                _widened(value)
                for value in (box.min_x, box.max_x, box.min_y, box.max_y)
            ]
            self.rows[region_id] = (
                [low for low, _ in widened],
                [high for _, high in widened],
            )

    def closed(self, region_id, lo, hi):
        if region_id not in self.rows:
            return False
        row_lo, row_hi = self.rows[region_id]
        return all(
            row_hi[dim] >= lo[dim] and row_lo[dim] <= hi[dim]
            for dim in range(4)
        )

    def strict(self, region_id, lo, hi):
        if region_id not in self.rows:
            return False
        row_lo, row_hi = self.rows[region_id]
        return all(
            row_lo[dim] > lo[dim] and row_hi[dim] < hi[dim]
            for dim in range(4)
        )

    def direction_candidates(self, relation, box, role):
        if relation.is_empty:
            return IndexAnswer(frozenset(), frozenset())
        closed = [_closed_bounds(disjunct, box, role) for disjunct in relation]
        strict = [
            _strict_bounds(tile, box, role)
            for disjunct in relation
            if disjunct.is_single_tile
            for tile in disjunct.tiles
            if tile is not Tile.B
        ]
        candidates = frozenset(
            region_id
            for region_id in self.ids
            if region_id not in self.rows
            or any(self.closed(region_id, lo, hi) for lo, hi in closed)
        )
        definite = frozenset(
            region_id
            for region_id in self.ids
            if any(self.strict(region_id, lo, hi) for lo, hi in strict)
        )
        return IndexAnswer(candidates, definite)

    def tile_candidates(self, box, role):
        answers = {}
        for tile in Tile:
            if tile is Tile.B:
                continue
            lo, hi = _strict_bounds(tile, box, role)
            answers[tile] = tuple(
                region_id
                for region_id in self.ids
                if self.strict(region_id, lo, hi)
            )
        return answers

    def box_query(self, lo, hi):
        return tuple(
            region_id
            for region_id in self.ids
            if region_id not in self.rows or self.closed(region_id, lo, hi)
        )


@st.composite
def _scenes(draw):
    """An index input, some ids box-less, plus one edit of an indexed id."""
    count = draw(st.integers(0, 40))
    ids = [f"r{number}" for number in range(count)]
    draw(st.randoms(use_true_random=False)).shuffle(ids)
    boxes = {
        region_id: draw(_bounding_boxes())
        for region_id in ids
        if draw(st.integers(0, 5))
    }
    edit = None
    if boxes:
        edit = (draw(st.sampled_from(sorted(boxes))), draw(_bounding_boxes()))
    return ids, boxes, edit


class TestColumnScanOracle:
    @settings(max_examples=100, deadline=None)
    @given(
        scene=_scenes(),
        anchor=_bounding_boxes(),
        relations=st.lists(_relations, min_size=1, max_size=3),
        query_box=st.lists(
            st.one_of(_coordinates, st.just(-math.inf), st.just(math.inf)),
            min_size=8,
            max_size=8,
        ),
    )
    def test_matches_row_reference_before_and_after_update(
        self, scene, anchor, relations, query_box
    ):
        ids, boxes, edit = scene
        lo = tuple(float(value) for value in query_box[:4])
        hi = tuple(float(value) for value in query_box[4:])
        index = SpatialIndex(ids, boxes)
        for stage in ("built", "updated"):
            if stage == "updated":
                if edit is None:
                    return
                region_id, box = edit
                assert index.update(region_id, box)
                boxes = {**boxes, region_id: box}
            reference = _RowReference(ids, boxes)
            for role in ("primary", "reference"):
                for relation in relations:
                    assert index.direction_candidates(
                        relation, anchor, role=role
                    ) == reference.direction_candidates(relation, anchor, role)
                assert index.tile_candidates(
                    anchor, role=role
                ) == reference.tile_candidates(anchor, role)
            assert index.box_query(lo, hi) == reference.box_query(lo, hi)
