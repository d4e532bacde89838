"""Composition of cardinal direction relations ([20], [22]).

``compose(R1, R2)`` returns the *strongest implied disjunctive relation*
between ``a`` and ``c`` given ``a R1 b`` and ``b R2 c`` — i.e. exactly
the set of basic relations ``R3`` for which witness regions
``a, b, c ∈ REG*`` exist with ``a R1 b``, ``b R2 c`` and ``a R3 c``.

The enumeration fixes ``mbb(c)``'s grid at the concrete (0, 10) lines and
reads the rows of the placement table (:mod:`repro.reasoning.orderings`)
whose placement of ``mbb(b)`` admits ``R2``.  In such a placement,
region ``a`` must put material into every tile ``t ∈ R1`` of *b's* grid,
and each such tile overlaps a fixed set ``cmap(t)`` of tiles of *c's*
grid (the row's cell map); because ``REG*`` material is freely
divisible, the realisable relations ``a R3 c`` are exactly the subsets of
``∪ cmap(t)`` that intersect every ``cmap(t)``.  (Region ``a``'s own
bounding box constrains nothing else, and regions may overlap, so no
further interaction exists.)

Classic sanity points reproduced by the tests: ``compose(S, S) = {S}``,
``compose(B, B) = {B}``, and ``compose(SW, NE)`` is the universal
relation (all 511 basic relations).
"""

from __future__ import annotations

from functools import lru_cache

from repro.core.relation import CardinalDirection, DisjunctiveCD
from repro.reasoning.orderings import hitting_sets, placement_table


@lru_cache(maxsize=None)
def compose(r1: CardinalDirection, r2: CardinalDirection) -> DisjunctiveCD:
    """Strongest implied relation of ``a`` vs ``c`` from ``a R1 b ∧ b R2 c``.

    >>> from repro.core.relation import CardinalDirection as CD
    >>> str(compose(CD.parse("S"), CD.parse("S")))
    '{S}'
    """
    members = 0
    for row in placement_table():
        if not row.admits >> r2.mask & 1:
            continue
        required = [row.cell_map[t] for t in r1.tiles]
        allowed = 0
        for mask in required:
            allowed |= mask
        members |= hitting_sets(allowed, required)
    return DisjunctiveCD.from_mask(members)


def compose_disjunctive(d1: DisjunctiveCD, d2: DisjunctiveCD) -> DisjunctiveCD:
    """Composition lifted to disjunctive relations: the union of the
    member pairs' compositions, stopping once it is universal."""
    universal = DisjunctiveCD.universal()
    members = 0
    for r1 in d1:
        for r2 in d2:
            members |= compose(r1, r2).mask
            if members == universal.mask:
                return universal
    return DisjunctiveCD.from_mask(members)
