"""Inverse cardinal direction relations (Section 2; algorithm from [21]).

The inverse of a basic relation ``R`` is in general *disjunctive*:
``inv(R)`` is the set of basic relations ``S`` for which some pair of
``REG*`` regions satisfies both ``a R b`` and ``b S a``.  The paper's
example: when ``a S b``, region ``b`` may be ``N``, ``NW:N``, ``N:NE``,
``NW:N:NE`` — or, for a disconnected ``b``, ``NW:NE`` — of ``a``.

Computation reads the placement table of :mod:`repro.reasoning.orderings`:
``inv(R)`` is the union of the ``converse`` masks (the relations of
``b``, the reference square, against ``a``'s grid) of the placements of
``mbb(a)`` that admit ``R`` (regions are free to overlap, so the two
material choices are independent given the boxes).  The table is sound
and complete for ``REG*``, and the test suite cross-checks it against
Compute-CDR on random geometry.
"""

from __future__ import annotations

from functools import lru_cache

from repro.core.relation import CardinalDirection, DisjunctiveCD
from repro.reasoning.orderings import placement_table


@lru_cache(maxsize=None)
def inverse(relation: CardinalDirection) -> DisjunctiveCD:
    """The disjunctive inverse ``inv(R)`` of a basic relation.

    >>> from repro.core.relation import CardinalDirection
    >>> inv_s = inverse(CardinalDirection.parse("S"))
    >>> sorted(str(s) for s in inv_s)
    ['N', 'N:NE', 'NW:N', 'NW:N:NE', 'NW:NE']
    """
    members = 0
    for row in placement_table():
        if row.admits >> relation.mask & 1:
            members |= row.converse
    return DisjunctiveCD.from_mask(members)


@lru_cache(maxsize=None)
def pair_realizable(r1: CardinalDirection, r2: CardinalDirection) -> bool:
    """Can ``a R1 b`` and ``b R2 a`` hold simultaneously?

    This is the paper's characterisation of relative position: the pair
    ``(R1, R2)`` fully describes two regions' mutual placement exactly
    when each is a disjunct of the other's inverse.
    """
    return r2 in inverse(r1)
