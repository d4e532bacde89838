"""Precomputed relation tables.

The inverse operator is pure and its domain is just the 511 basic
relations, so the whole table can be materialised (tens of milliseconds,
the placement table's build included), serialised, and shipped/cached.  Composition has 511² ≈
261k entries and is therefore left lazy (its per-pair `lru_cache` serves
interactive use), but single rows can be materialised on demand.

Serialisation format: plain text, one line per entry —
``R -> S1 | S2 | ...`` — diff-friendly and independent of Python
pickling, so a stored table is also a reviewable artefact of the
reproduction (the full inverse table pins 511 documented facts).
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Union

from repro.errors import ReasoningError, RelationError
from repro.core.relation import (
    ALL_BASIC_RELATIONS,
    CardinalDirection,
    DisjunctiveCD,
)
from repro.reasoning.composition import compose
from repro.reasoning.inverse import inverse

InverseTable = Dict[CardinalDirection, DisjunctiveCD]


def full_inverse_table() -> InverseTable:
    """``inv(R)`` for every one of the 511 basic relations."""
    return {relation: inverse(relation) for relation in ALL_BASIC_RELATIONS}


def composition_row(relation: CardinalDirection) -> Dict[CardinalDirection, DisjunctiveCD]:
    """``compose(relation, S)`` for every basic ``S`` (511 entries)."""
    return {other: compose(relation, other) for other in ALL_BASIC_RELATIONS}


def save_inverse_table(table: InverseTable, path: Union[str, Path]) -> None:
    """Serialise an inverse table to the line-per-entry text format."""
    lines = []
    for relation in sorted(table, key=lambda r: r.ordered_tiles()):
        members = " | ".join(str(member) for member in table[relation])
        lines.append(f"{relation} -> {members}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_inverse_table(path: Union[str, Path]) -> InverseTable:
    """Parse a table saved by :func:`save_inverse_table`.

    Validates shape (arrow present, parseable relations, non-empty
    right-hand sides); content correctness is the saver's business —
    tests regenerate and compare.
    """
    table: InverseTable = {}
    for number, raw in enumerate(
        Path(path).read_text(encoding="utf-8").splitlines(), start=1
    ):
        line = raw.strip()
        if not line:
            continue
        if "->" not in line:
            raise ReasoningError(f"line {number}: missing '->' in {line!r}")
        left, right = line.split("->", 1)
        try:
            key = CardinalDirection.parse(left.strip())
            members = [
                CardinalDirection.parse(part.strip())
                for part in right.split("|")
                if part.strip()
            ]
        except RelationError as error:
            raise ReasoningError(f"line {number}: {error}") from error
        if not members:
            raise ReasoningError(f"line {number}: empty inverse for {key}")
        if key in table:
            raise ReasoningError(f"line {number}: duplicate entry for {key}")
        table[key] = DisjunctiveCD(members)
    if len(table) != len(ALL_BASIC_RELATIONS):
        raise ReasoningError(
            f"table has {len(table)} entries; expected "
            f"{len(ALL_BASIC_RELATIONS)}"
        )
    return table
