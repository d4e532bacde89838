"""Tests for repro.core.relation — D* and its powerset."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import RelationError
from repro.core.relation import (
    ALL_BASIC_RELATIONS,
    RELATIONS_BY_MASK,
    CardinalDirection,
    DisjunctiveCD,
    tile_union,
)
from repro.core.tiles import Tile


class TestConstruction:
    def test_from_tiles(self):
        relation = CardinalDirection(Tile.S, Tile.SW)
        assert relation.tiles == {Tile.S, Tile.SW}

    def test_from_names(self):
        assert CardinalDirection("NE", "E") == CardinalDirection(Tile.NE, Tile.E)

    def test_from_iterable(self):
        assert CardinalDirection([Tile.N, Tile.B]) == CardinalDirection("B", "N")

    def test_empty_rejected(self):
        with pytest.raises(RelationError):
            CardinalDirection()

    def test_unknown_name_rejected(self):
        with pytest.raises(RelationError):
            CardinalDirection("NNE")

    def test_single_tile_flag(self):
        assert CardinalDirection("S").is_single_tile
        assert not CardinalDirection("S", "SW").is_single_tile


class TestParseAndFormat:
    def test_parse_single(self):
        assert CardinalDirection.parse("S") == CardinalDirection(Tile.S)

    def test_parse_multi(self):
        relation = CardinalDirection.parse("NE:E")
        assert relation.tiles == {Tile.NE, Tile.E}

    def test_str_uses_canonical_order(self):
        """The paper: always B:S:W, never W:B:S."""
        assert str(CardinalDirection("W", "B", "S")) == "B:S:W"
        assert str(CardinalDirection.parse("SE:B:NW")) == "B:NW:SE"

    def test_parse_rejects_duplicates(self):
        with pytest.raises(RelationError):
            CardinalDirection.parse("S:S")

    def test_parse_rejects_empty(self):
        with pytest.raises(RelationError):
            CardinalDirection.parse("")

    def test_parse_roundtrip_all_511(self):
        for relation in ALL_BASIC_RELATIONS:
            assert CardinalDirection.parse(str(relation)) == relation


class TestAlgebra:
    def test_tile_union_method(self):
        """Definition 2's example: S:SW + S:E:SE + W = S:SW:W:E:SE."""
        r1 = CardinalDirection.parse("S:SW")
        r2 = CardinalDirection.parse("S:E:SE")
        r3 = CardinalDirection.parse("W")
        assert str(r1.tile_union(r2)) == "S:SW:E:SE"
        assert str(r1.tile_union(r2, r3)) == "S:SW:W:E:SE"

    def test_tile_union_function(self):
        assert tile_union(
            [CardinalDirection.parse("N"), CardinalDirection.parse("B")]
        ) == CardinalDirection.parse("B:N")

    def test_tile_union_empty_rejected(self):
        with pytest.raises(RelationError):
            tile_union([])

    def test_spans(self):
        relation = CardinalDirection.parse("B:S:SW:W")
        assert relation.spans_columns == {-1, 0}
        assert relation.spans_rows == {-1, 0}

    def test_includes(self):
        relation = CardinalDirection.parse("NE:E")
        assert relation.includes("NE") and relation.includes(Tile.E)
        assert not relation.includes("B")

    def test_universe_size(self):
        """|D*| = 2^9 - 1 = 511 (Section 2)."""
        assert len(ALL_BASIC_RELATIONS) == 511
        assert len(set(ALL_BASIC_RELATIONS)) == 511

    def test_ordering_is_total(self):
        ordered = sorted(ALL_BASIC_RELATIONS)
        assert len(ordered) == 511
        assert ordered[0] < ordered[-1]


class TestDisjunctive:
    def test_parse_braces(self):
        disjunctive = DisjunctiveCD.parse("{N, W}")
        assert len(disjunctive) == 2
        assert disjunctive.contains(CardinalDirection.parse("N"))

    def test_parse_bare_relation(self):
        disjunctive = DisjunctiveCD.parse("B:S")
        assert disjunctive.is_basic

    def test_parse_empty_braces(self):
        assert DisjunctiveCD.parse("{}").is_empty

    def test_universal(self):
        assert len(DisjunctiveCD.universal()) == 511

    def test_union_intersection(self):
        a = DisjunctiveCD.parse("{N, W}")
        b = DisjunctiveCD.parse("{W, S}")
        assert len(a.union(b)) == 3
        assert a.intersection(b) == DisjunctiveCD.parse("{W}")

    def test_membership_operator(self):
        assert CardinalDirection.parse("N") in DisjunctiveCD.parse("{N, W}")

    def test_str_sorted(self):
        assert str(DisjunctiveCD.parse("{W, N}")) in ("{W, N}", "{N, W}")

    def test_rejects_non_relations(self):
        with pytest.raises(RelationError):
            DisjunctiveCD(["N"])  # strings are not relations

    def test_powerset_claim(self):
        """2^{D*} has 2^511 elements — spot-check the arithmetic only."""
        assert 2 ** len(ALL_BASIC_RELATIONS) == 2**511


@given(st.sets(st.sampled_from(list(Tile)), min_size=1))
def test_str_parse_roundtrip(tiles):
    relation = CardinalDirection(*tiles)
    assert CardinalDirection.parse(str(relation)) == relation


@given(
    st.sets(st.sampled_from(list(Tile)), min_size=1),
    st.sets(st.sampled_from(list(Tile)), min_size=1),
)
def test_tile_union_commutative(tiles_a, tiles_b):
    a, b = CardinalDirection(*tiles_a), CardinalDirection(*tiles_b)
    assert a.tile_union(b) == b.tile_union(a)


#: Member sets for the mask algebra: a few members, or all but a few, and
#: each member either the interned relation or a fresh equal copy.
member_sets = st.tuples(
    st.frozensets(
        st.sampled_from(ALL_BASIC_RELATIONS).flatmap(
            lambda r: st.sampled_from((r, CardinalDirection(r.tiles)))
        ),
        max_size=12,
    ),
    st.booleans(),
).map(lambda drawn: frozenset(ALL_BASIC_RELATIONS) - drawn[0] if drawn[1] else drawn[0])


@given(member_sets, member_sets)
def test_mask_algebra_matches_a_set_model(a, b):
    """A disjunction's mask behaves as the frozenset of its members."""
    da, db = DisjunctiveCD(a), DisjunctiveCD(b)
    assert da.union(db).relations == a | b
    assert da.intersection(db).relations == a & b
    assert len(da) == len(a)
    assert da.is_empty == (not a) and da.is_basic == (len(a) == 1)
    for relation in ALL_BASIC_RELATIONS[::23] + tuple(b):
        assert (relation in da) == (relation in a) == da.contains(relation)
    assert (da == db) == (a == b)
    if a == b:
        assert hash(da) == hash(db)
    assert list(da) == sorted(a)
    assert DisjunctiveCD.parse(str(da)) == da
    assert DisjunctiveCD.from_mask(da.mask) == da


class TestMask:
    def test_basic_mask_is_the_tile_bitmask(self):
        for mask, relation in enumerate(RELATIONS_BY_MASK):
            if relation is not None:
                assert relation.mask == mask
                assert CardinalDirection.parse(str(relation)).mask == mask

    def test_universal_is_one_shared_instance(self):
        universal = DisjunctiveCD.universal()
        assert universal is DisjunctiveCD.universal()
        assert universal == DisjunctiveCD(ALL_BASIC_RELATIONS)
        assert list(universal) == sorted(ALL_BASIC_RELATIONS)

    def test_from_mask_rejects_non_member_bits(self):
        for mask in (1, 1 << 512, -2):
            with pytest.raises(RelationError):
                DisjunctiveCD.from_mask(mask)

    def test_only_relations_are_members(self):
        assert "N" not in DisjunctiveCD.parse("{N, W}")
        assert 32 not in DisjunctiveCD.parse("{N, W}")
