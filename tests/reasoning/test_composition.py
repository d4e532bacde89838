"""Tests for composition (E-level: companion results [20, 22]) —
symbolic results cross-validated against Compute-CDR on geometry."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compute import compute_cdr
from repro.core.relation import ALL_BASIC_RELATIONS, CardinalDirection, DisjunctiveCD
from repro.reasoning.composition import compose, compose_disjunctive
from repro.workloads.generators import random_rectilinear_region


def cd(text: str) -> CardinalDirection:
    return CardinalDirection.parse(text)


class TestKnownCompositions:
    def test_s_s_is_s(self):
        """Chaining "south with span inside" is transitive."""
        assert compose(cd("S"), cd("S")) == DisjunctiveCD((cd("S"),))

    def test_b_b_is_b(self):
        assert compose(cd("B"), cd("B")) == DisjunctiveCD((cd("B"),))

    def test_b_then_single_tile_is_that_tile(self):
        for tile in ("SW", "NE", "NW", "SE"):
            assert compose(cd("B"), cd(tile)) == DisjunctiveCD((cd(tile),))

    def test_sw_ne_is_universal(self):
        """Opposite quadrants wash out all information."""
        assert len(compose(cd("SW"), cd("NE"))) == 511

    def test_n_s_is_middle_column(self):
        """a above b, b below c: a sits in c's middle column, any row."""
        result = compose(cd("N"), cd("S"))
        assert {str(r) for r in result} == {
            "B", "S", "N", "B:S", "B:N", "S:N", "B:S:N",
        }

    def test_s_n_mirrors_n_s(self):
        result = compose(cd("S"), cd("N"))
        assert {str(r) for r in result} == {
            "B", "S", "N", "B:S", "B:N", "S:N", "B:S:N",
        }

    def test_w_w_is_w(self):
        assert compose(cd("W"), cd("W")) == DisjunctiveCD((cd("W"),))

    def test_sw_sw_is_sw(self):
        assert compose(cd("SW"), cd("SW")) == DisjunctiveCD((cd("SW"),))

    def test_pinned_compositions(self):
        """sha256 over ``(r1.mask, r2.mask, compose(r1, r2).mask)`` for
        the 81 single-tile pairs and 400 pairs drawn from
        ``random.Random(5)``: a changed member of any of these 481
        compositions changes the digest."""
        singles = [r for r in ALL_BASIC_RELATIONS if r.is_single_tile]
        rng = random.Random(5)
        pairs = [(r1, r2) for r1 in singles for r2 in singles] + [
            (rng.choice(ALL_BASIC_RELATIONS), rng.choice(ALL_BASIC_RELATIONS))
            for _ in range(400)
        ]
        digest = hashlib.sha256()
        for r1, r2 in pairs:
            digest.update(f"{r1.mask},{r2.mask},{compose(r1, r2).mask};".encode())
        assert digest.hexdigest() == (
            "ad75d0983a04b76f49a005c9c3f610f85865c6bc2204f6e6c1d495c3824e2058"
        )

    def test_composition_never_empty(self):
        """Every pair of basic relations is jointly realisable (choose b
        freely), so compositions are never the empty disjunction."""
        sample = ALL_BASIC_RELATIONS[::97]
        for r1 in sample:
            for r2 in sample:
                assert len(compose(r1, r2)) >= 1


class TestDisjunctiveComposition:
    def test_lifts_pairwise(self):
        d1 = DisjunctiveCD((cd("S"), cd("N")))
        d2 = DisjunctiveCD((cd("S"),))
        result = compose_disjunctive(d1, d2)
        assert cd("S") in result           # from S ∘ S
        assert cd("B:S:N") in result       # from N ∘ S

    def test_universal_shortcut(self):
        d1 = DisjunctiveCD((cd("SW"),))
        d2 = DisjunctiveCD((cd("NE"), cd("B")))
        assert compose_disjunctive(d1, d2) == DisjunctiveCD.universal()

    @pytest.mark.parametrize(
        "d1, d2",
        [
            ((), ("N", "W")),
            (("N", "W"), ()),
            ("universal", ("B",)),
            (("B",), "universal"),
            (("S", "N:NE", "B:W"), ("S", "SW:W")),
            (("NE", "E"), ("S", "B:S", "N")),
        ],
    )
    def test_is_the_union_of_member_compositions(self, d1, d2):
        def disjunction(members):
            if members == "universal":
                return DisjunctiveCD.universal()
            return DisjunctiveCD(cd(text) for text in members)

        d1, d2 = disjunction(d1), disjunction(d2)
        expected = set()
        for r1 in d1:
            for r2 in d2:
                expected |= compose(r1, r2).relations
        assert compose_disjunctive(d1, d2).relations == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_simulation_soundness(seed):
    """For random triples of regions, the observed (R1, R2, R3) must
    satisfy R3 ∈ compose(R1, R2)."""
    rng = random.Random(seed)
    a = random_rectilinear_region(rng, rng.randint(1, 5))
    b = random_rectilinear_region(rng, rng.randint(1, 5))
    c = random_rectilinear_region(rng, rng.randint(1, 5))
    r1 = compute_cdr(a, b)
    r2 = compute_cdr(b, c)
    r3 = compute_cdr(a, c)
    assert r3 in compose(r1, r2), f"{r1} ∘ {r2} lacks observed {r3}"


@pytest.mark.parametrize(
    "r1_text,r2_text",
    [("S", "S"), ("N", "S"), ("B", "NE"), ("B:S", "W"), ("NW:NE", "B")],
)
def test_completeness_every_member_is_witnessed(r1_text, r2_text):
    """Every disjunct of compose(R1, R2) is realised by explicitly
    constructed regions, with all three relations verified by
    Compute-CDR."""
    from repro.reasoning.witness import witness_triple

    r1, r2 = cd(r1_text), cd(r2_text)
    members = list(compose(r1, r2))
    # Keep the runtime bounded for very wide compositions.
    for r3 in members[:40]:
        triple = witness_triple(r1, r2, r3)
        assert triple is not None, f"no witness for ({r1}, {r2}, {r3})"
        a, b, c = triple
        assert compute_cdr(a, b) == r1
        assert compute_cdr(b, c) == r2
        assert compute_cdr(a, c) == r3


@pytest.mark.parametrize(
    "r1_text,r2_text,r3_text",
    [("S", "S", "N"), ("B", "B", "S"), ("W", "W", "E")],
)
def test_witness_triple_refuses_non_members(r1_text, r2_text, r3_text):
    from repro.reasoning.witness import witness_triple

    r1, r2, r3 = cd(r1_text), cd(r2_text), cd(r3_text)
    assert r3 not in compose(r1, r2)
    assert witness_triple(r1, r2, r3) is None
