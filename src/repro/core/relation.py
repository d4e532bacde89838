"""Cardinal direction relations — the set ``D*`` and its powerset.

A *basic* cardinal direction relation (Definition 1) is an expression
``R1:...:Rk`` with ``1 <= k <= 9`` pairwise-distinct tiles.  There are
``2^9 − 1 = 511`` such relations; they are jointly exhaustive and pairwise
disjoint over pairs of ``REG*`` regions.  :class:`CardinalDirection`
represents one of them as a frozen set of :class:`~repro.core.tiles.Tile`
values with the paper's canonical spelling.

A basic relation is identified by its *tile mask*: bit ``int(tile)`` set
per tile, so masks run over ``1..511`` (``CardinalDirection.mask``;
:data:`RELATIONS_BY_MASK` maps back).  *Disjunctive* relations (elements
of ``2^{D*}``, used for indefinite information such as ``a {N, W} b`` and
for the results of inverse and composition) are represented by
:class:`DisjunctiveCD` — one int with bit ``m`` set for each member whose
tile mask is ``m``.  Union, intersection, emptiness, equality and size
are then int operations; the member relations are a view over the mask.
"""

from __future__ import annotations

from functools import lru_cache
from typing import FrozenSet, Iterable, Iterator, Optional, Tuple, Union

from repro.errors import RelationError
from repro.core.tiles import CANONICAL_ORDER, Tile

TileLike = Union[Tile, str]


def _coerce_tile(value: TileLike) -> Tile:
    if isinstance(value, Tile):
        return value
    try:
        return Tile[value.strip()]
    except (KeyError, AttributeError):
        raise RelationError(f"unknown tile name: {value!r}") from None


class CardinalDirection:
    """A basic cardinal direction relation — an element of ``D*``.

    Instances are immutable, hashable and compare by tile set; ``mask``
    is the tile set as a bitmask (bit ``int(tile)`` per tile).  The
    constructor accepts tiles, tile names, or a mix::

        CardinalDirection(Tile.S)
        CardinalDirection("NE", "E")
        CardinalDirection.parse("B:S:SW")
    """

    __slots__ = ("_tiles", "mask")

    def __init__(self, *tiles: TileLike) -> None:
        if len(tiles) == 1 and not isinstance(tiles[0], (Tile, str)):
            # Allow CardinalDirection(iterable_of_tiles).
            tiles = tuple(tiles[0])
        coerced = frozenset(_coerce_tile(t) for t in tiles)
        if not coerced:
            raise RelationError("a cardinal direction relation needs >= 1 tile")
        self._tiles: FrozenSet[Tile] = coerced
        self.mask: int = sum(1 << tile for tile in coerced)

    @classmethod
    def parse(cls, text: str) -> "CardinalDirection":
        """Parse the paper's colon syntax, e.g. ``"B:S:SW:W"``.

        Repeated tiles are rejected (Definition 1 requires distinct tiles).
        """
        parts = [part.strip() for part in text.split(":") if part.strip()]
        if not parts:
            raise RelationError(f"empty relation text: {text!r}")
        tiles = [_coerce_tile(part) for part in parts]
        if len(set(tiles)) != len(tiles):
            raise RelationError(f"repeated tile in relation: {text!r}")
        return cls(*tiles)

    @property
    def tiles(self) -> FrozenSet[Tile]:
        return self._tiles

    @property
    def is_single_tile(self) -> bool:
        """True for single-tile relations (``k = 1``, Definition 1)."""
        return len(self._tiles) == 1

    def ordered_tiles(self) -> Tuple[Tile, ...]:
        """The tiles in the paper's canonical order ``B,S,SW,W,NW,N,NE,E,SE``."""
        return tuple(t for t in CANONICAL_ORDER if t in self._tiles)

    def tile_union(self, *others: "CardinalDirection") -> "CardinalDirection":
        """The paper's ``tile-union`` (Definition 2)."""
        tiles = set(self._tiles)
        for other in others:
            tiles |= other._tiles
        return CardinalDirection(*tiles)

    def includes(self, tile: TileLike) -> bool:
        return _coerce_tile(tile) in self._tiles

    @property
    def spans_columns(self) -> FrozenSet[int]:
        """The horizontal bands (-1/0/1) covered by this relation's tiles."""
        return frozenset(t.column for t in self._tiles)

    @property
    def spans_rows(self) -> FrozenSet[int]:
        """The vertical bands (-1/0/1) covered by this relation's tiles."""
        return frozenset(t.row for t in self._tiles)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CardinalDirection):
            return NotImplemented
        return self.mask == other.mask

    def __hash__(self) -> int:
        return hash(self._tiles)

    def __lt__(self, other: "CardinalDirection") -> bool:
        """Deterministic total order (by canonical tile tuple) for sorting."""
        if not isinstance(other, CardinalDirection):
            return NotImplemented
        return self.ordered_tiles() < other.ordered_tiles()

    def __iter__(self) -> Iterator[Tile]:
        return iter(self.ordered_tiles())

    def __len__(self) -> int:
        return len(self._tiles)

    def __str__(self) -> str:
        return ":".join(t.name for t in self.ordered_tiles())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CardinalDirection({str(self)!r})"


def tile_union(
    relations: Iterable[CardinalDirection],
) -> CardinalDirection:
    """Definition 2: the relation formed by the union of the inputs' tiles."""
    tiles = set()
    for relation in relations:
        tiles |= relation.tiles
    if not tiles:
        raise RelationError("tile-union of an empty collection is undefined")
    return CardinalDirection(*tiles)


_BASIC = [CardinalDirection(*(t for t in Tile if mask >> t & 1)) for mask in range(1, 1 << 9)]

#: All 511 basic relations of ``D*``, sorted by tile count then canonically.
ALL_BASIC_RELATIONS: Tuple[CardinalDirection, ...] = tuple(
    sorted(_BASIC, key=lambda r: (len(r), r.ordered_tiles()))
)

#: The basic relation named by a tile bitmask (bit ``int(tile)`` set per
#: tile; entry 0 is ``None``).  Kernels that report tiles as bitmasks
#: look their answers up here, so every pair with the same tiles shares
#: one of the :data:`ALL_BASIC_RELATIONS` objects.
RELATIONS_BY_MASK: Tuple[Optional[CardinalDirection], ...] = (None, *_BASIC)

#: The basic relations in the order of ``CardinalDirection.__lt__``, which
#: is the order a :class:`DisjunctiveCD` iterates its members in.
_CANONICAL = tuple(sorted(ALL_BASIC_RELATIONS))


@lru_cache(maxsize=1024)
def _members(mask: int) -> Tuple[CardinalDirection, ...]:
    """The member relations of a disjunction's mask, in canonical order.
    Networks and queries iterate a few dozen distinct masks many times."""
    return tuple(relation for relation in _CANONICAL if mask >> relation.mask & 1)


class DisjunctiveCD:
    """A disjunctive cardinal direction relation — an element of ``2^{D*}``.

    ``a {N, W} b`` means *a N b or a W b*.  The empty disjunction is the
    unsatisfiable relation (allowed: it is what an inconsistent composition
    would produce) and :meth:`universal` is the 511-element "no
    information" relation.

    Its ``mask`` has bit ``m`` set when the relation of tile mask ``m``
    is a disjunct; iteration yields the members in canonical order.
    """

    __slots__ = ("mask",)

    def __init__(self, relations: Iterable[CardinalDirection] = ()) -> None:
        mask = 0
        for item in relations:
            if not isinstance(item, CardinalDirection):
                raise RelationError(
                    f"DisjunctiveCD members must be CardinalDirection, got {item!r}"
                )
            mask |= 1 << item.mask
        self.mask: int = mask

    @classmethod
    def from_mask(cls, mask: int) -> "DisjunctiveCD":
        """The disjunction whose member mask is ``mask`` (bits 1..511)."""
        if mask & ~_UNIVERSAL.mask:
            raise RelationError(f"not a disjunction mask: {mask:#x}")
        instance = cls.__new__(cls)
        instance.mask = mask
        return instance

    @classmethod
    def parse(cls, text: str) -> "DisjunctiveCD":
        """Parse ``"{N, W, B:S}"`` or a bare basic relation ``"N:NE"``."""
        text = text.strip()
        if text.startswith("{") and text.endswith("}"):
            inner = text[1:-1].strip()
            if not inner:
                return cls()
            return cls(CardinalDirection.parse(p) for p in inner.split(","))
        return cls((CardinalDirection.parse(text),))

    @classmethod
    def universal(cls) -> "DisjunctiveCD":
        """The complete relation ``D*`` (no information), one shared instance."""
        return _UNIVERSAL

    @property
    def relations(self) -> FrozenSet[CardinalDirection]:
        return frozenset(self)

    @property
    def is_empty(self) -> bool:
        return not self.mask

    @property
    def is_basic(self) -> bool:
        return self.mask != 0 and not self.mask & (self.mask - 1)

    def union(self, other: "DisjunctiveCD") -> "DisjunctiveCD":
        return DisjunctiveCD.from_mask(self.mask | other.mask)

    def intersection(self, other: "DisjunctiveCD") -> "DisjunctiveCD":
        return DisjunctiveCD.from_mask(self.mask & other.mask)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DisjunctiveCD):
            return NotImplemented
        return self.mask == other.mask

    def __hash__(self) -> int:
        return hash(self.mask)

    def __iter__(self) -> Iterator[CardinalDirection]:
        return iter(_members(self.mask))

    def __len__(self) -> int:
        return bin(self.mask).count("1")

    def __contains__(self, relation: object) -> bool:
        """True when ``relation`` is one of the disjuncts."""
        return isinstance(relation, CardinalDirection) and self.mask >> relation.mask & 1 == 1

    contains = __contains__

    def __str__(self) -> str:
        inner = ", ".join(str(r) for r in self)
        return "{" + inner + "}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DisjunctiveCD({str(self)})"


_UNIVERSAL = DisjunctiveCD(ALL_BASIC_RELATIONS)
