"""Spatial indexing of region mbbs: direction queries by box arithmetic.

The query evaluator historically scanned every candidate pair — ``a
{N, NW:N} b`` with ``b`` bound meant one engine call per region in the
configuration.  But a direction constraint over a *known* reference box
is a pure box-arithmetic question about the candidate's mbb, the same
observation behind the single-tile prune the exact and sweep engines
run (:func:`repro.core.tiles.single_tile_prune`), lifted here from the
per-pair test into a standing, queryable structure.

:class:`SpatialIndex` keeps every region's mbb — the four scalars
``(min_x, max_x, min_y, max_y)``, the box-row order the
:class:`~repro.core.plane.GeometryPlane` materialises — as whole
columns: one contiguous ``(4, n)`` float64 block of outward-rounded
lows and one of highs.  A 4-d box query is eight whole-column
comparisons ANDed together, and a clause stacks the boxes of all its
disjuncts so that the same eight comparisons answer every disjunct at
once.  A query therefore costs a fixed handful of numpy calls, whatever
the number of regions or disjuncts, and an edit rewrites one entry per
column.  Rows of ids without a box hold NaN, which fails every
comparison; those ids are added back by their own mask.

Two query families are served, both derived from Definition 1's tiling:

* :meth:`SpatialIndex.direction_candidates` — given a disjunctive
  relation ``D`` and the *other* side's mbb, the ids that can possibly
  satisfy the clause (a **superset** of the true satisfiers; callers
  verify survivors against the engine), plus the ids that *provably*
  satisfy it without any edge work (a **subset**).  Both roles are
  supported: the indexed variable as primary (``x R b``) and as
  reference (``b R x``).
* :meth:`SpatialIndex.tile_candidates` — per non-``B`` tile of a
  reference box, the ids whose mbb lies *strictly* inside that tile:
  exactly the pairs :func:`~repro.core.tiles.single_tile_prune`
  answers, with the same strict-boundary semantics (boundary contact
  never qualifies, ``B`` never qualifies).

**Soundness.**  For ``occupied(a, b) = d`` two facts are necessary and
decompose per coordinate: (1) ``a`` is contained in the union of the
closed tiles of ``d``, so ``mbb(a)`` fits the union's bounding ranges;
(2) every tile of ``d`` holds a positive-area part of ``a``, so every
tile of ``d`` meets ``mbb(a)``.  Both reduce to closed interval
constraints on the four mbb scalars — a 4-d box query — evaluated here
per disjunct and unioned.  The *definite* side is the prune theorem:
``mbb(a)`` strictly inside one non-``B`` tile forces the single-tile
relation exactly.

**Exactness over floats.**  The columns are float64.  Coordinates that
round-trip exactly (ints within 2^53, every float — all the geometry
the repo's workloads generate) are compared exactly, so the candidate
test is the exact closed-interval test and the strict test is exactly
the native prune.  Coordinates beyond float64 (wide ``Fraction``
values) are stored *widened outward* by one ulp on each side, and query
bounds are widened the same way — the candidate set can only grow
(stays a superset) and the definite set can only shrink (stays a
subset), so index-accelerated answers equal full-scan answers for every
coordinate type, not just the float-faithful ones.
"""

from __future__ import annotations

import math
from typing import (
    Dict,
    FrozenSet,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.core.relation import CardinalDirection, DisjunctiveCD
from repro.core.tiles import Tile
from repro.geometry.bbox import BoundingBox

__all__ = ["IndexAnswer", "SpatialIndex", "MAX_DISJUNCTS"]

#: Disjunction width beyond which a clause stops being selective enough
#: to bother the index with (the universal relation has 511 disjuncts;
#: a union of that many 4-d boxes approaches "everything" anyway).
MAX_DISJUNCTS = 64

#: The four box coordinates, in the plane's box-row order.
_MIN_X, _MAX_X, _MIN_Y, _MAX_Y = range(4)

#: The two clause roles an indexed variable can play.
_ROLES = ("primary", "reference")

#: One side of a 4-d query box: a bound per coordinate, in box-row order.
_Bounds = Tuple[float, ...]


def _float_down(value: object) -> float:
    """The largest float64 ``<= value`` (identity for exact values)."""
    result = float(value)  # type: ignore[arg-type]
    while result > value:  # type: ignore[operator]
        result = float(np.nextafter(result, -np.inf))
    return result


def _float_up(value: object) -> float:
    """The smallest float64 ``>= value`` (identity for exact values)."""
    result = float(value)  # type: ignore[arg-type]
    while result < value:  # type: ignore[operator]
        result = float(np.nextafter(result, np.inf))
    return result


class IndexAnswer(NamedTuple):
    """One clause's index verdict.

    ``candidates`` is a superset of the ids that satisfy the clause
    (everything outside it is provably a non-match); ``definite`` is a
    subset of ``candidates`` that provably satisfies it (single-tile
    prune), needing no engine verification at all.
    """

    candidates: FrozenSet[str]
    definite: FrozenSet[str]


def _axis_primary_bounds(
    bands: FrozenSet[int], low_line: object, high_line: object
) -> Tuple[object, object, object, object]:
    """Closed bounds on (min, max) of a *primary*'s mbb along one axis.

    ``bands`` are the -1/0/1 bands the relation spans on this axis;
    ``low_line`` / ``high_line`` the reference box's grid lines.
    Returns ``(min_lo, min_hi, max_lo, max_hi)`` — containment in the
    band union bounds the coordinates from outside, while "every band
    is met" bounds them from inside.
    """
    min_lo = (
        -math.inf if -1 in bands else (low_line if 0 in bands else high_line)
    )
    max_hi = (
        math.inf if 1 in bands else (high_line if 0 in bands else low_line)
    )
    min_hi = (
        low_line if -1 in bands else (high_line if 0 in bands else math.inf)
    )
    max_lo = (
        high_line if 1 in bands else (low_line if 0 in bands else -math.inf)
    )
    return min_lo, min_hi, max_lo, max_hi


def _axis_reference_bounds(
    bands: FrozenSet[int], primary_low: object, primary_high: object
) -> Tuple[object, object, object, object]:
    """Closed bounds on (min, max) of a *reference*'s mbb along one axis.

    The mirror of :func:`_axis_primary_bounds`: the primary's extent
    ``[primary_low, primary_high]`` is fixed and the reference's grid
    lines are the unknowns.  Containment in the band union constrains
    which side of the primary each grid line may fall; "every band is
    met" constrains the lines against the primary's extent.
    """
    min_lo: object = -math.inf
    min_hi: object = math.inf
    max_lo: object = -math.inf
    max_hi: object = math.inf
    if -1 in bands:  # the low outer band must meet the primary's extent
        min_lo = max(min_lo, primary_low)  # type: ignore[call-overload]
    else:  # no low band: the primary may not poke below the low line
        if 0 in bands:
            min_hi = min(min_hi, primary_low)  # type: ignore[call-overload]
        else:  # only the high band: the whole primary sits past max
            max_hi = min(max_hi, primary_low)  # type: ignore[call-overload]
    if 0 in bands:  # the central band must meet the primary's extent
        min_hi = min(min_hi, primary_high)  # type: ignore[call-overload]
        max_lo = max(max_lo, primary_low)  # type: ignore[call-overload]
    if 1 in bands:  # the high outer band must meet the primary's extent
        max_hi = min(max_hi, primary_high)  # type: ignore[call-overload]
    else:  # no high band: the primary may not poke above the high line
        if 0 in bands:
            max_lo = max(max_lo, primary_high)  # type: ignore[call-overload]
        else:  # only the low band: the whole primary sits before min
            min_lo = max(min_lo, primary_high)  # type: ignore[call-overload]
    return min_lo, min_hi, max_lo, max_hi


def _closed_bounds(
    relation: CardinalDirection, box: BoundingBox, role: str
) -> Tuple[_Bounds, _Bounds]:
    """The 4-d closed query box of one disjunct, conservatively widened.

    Returns ``(lo, hi)`` float bounds over ``(min_x, max_x, min_y,
    max_y)``: an indexed region can satisfy ``occupied = relation``
    (with ``box`` on the other side, in the given ``role``) only if its
    stored coordinates fall inside.
    """
    axis = (
        _axis_primary_bounds if role == "primary" else _axis_reference_bounds
    )
    x_min_lo, x_min_hi, x_max_lo, x_max_hi = axis(
        relation.spans_columns, box.min_x, box.max_x
    )
    y_min_lo, y_min_hi, y_max_lo, y_max_hi = axis(
        relation.spans_rows, box.min_y, box.max_y
    )
    lo = (
        _float_down(x_min_lo),
        _float_down(x_max_lo),
        _float_down(y_min_lo),
        _float_down(y_max_lo),
    )
    hi = (
        _float_up(x_min_hi),
        _float_up(x_max_hi),
        _float_up(y_min_hi),
        _float_up(y_max_hi),
    )
    return lo, hi


def _strict_bounds(
    tile: Tile, box: BoundingBox, role: str
) -> Tuple[_Bounds, _Bounds]:
    """The 4-d *open* box of "strictly inside one tile", conservatively.

    Returns ``(lo, hi)``: an indexed region whose stored coordinates
    fall strictly inside provably lands the single-tile prune, i.e. its
    relation against ``box`` (in the given ``role``) is exactly
    ``CardinalDirection(tile)``.  The widening direction is the
    opposite of :func:`_closed_bounds` — uncertain coordinates *fail*
    the strict test and fall back to engine verification.
    """
    lo = [-math.inf] * 4
    hi = [math.inf] * 4

    def clamp(dim: int, *, above: object = None, below: object = None) -> None:
        if above is not None:  # coordinate must be > above
            lo[dim] = max(lo[dim], _float_up(above))
        if below is not None:  # coordinate must be < below
            hi[dim] = min(hi[dim], _float_down(below))

    if role == "primary":
        # mbb(candidate) strictly inside `tile` of the fixed box.
        if tile.column == -1:
            clamp(_MAX_X, below=box.min_x)
        elif tile.column == 1:
            clamp(_MIN_X, above=box.max_x)
        else:
            clamp(_MIN_X, above=box.min_x)
            clamp(_MAX_X, below=box.max_x)
        if tile.row == -1:
            clamp(_MAX_Y, below=box.min_y)
        elif tile.row == 1:
            clamp(_MIN_Y, above=box.max_y)
        else:
            clamp(_MIN_Y, above=box.min_y)
            clamp(_MAX_Y, below=box.max_y)
    else:
        # The fixed primary box strictly inside `tile` of the candidate.
        if tile.column == -1:
            clamp(_MIN_X, above=box.max_x)
        elif tile.column == 1:
            clamp(_MAX_X, below=box.min_x)
        else:
            clamp(_MIN_X, below=box.min_x)
            clamp(_MAX_X, above=box.max_x)
        if tile.row == -1:
            clamp(_MIN_Y, above=box.max_y)
        elif tile.row == 1:
            clamp(_MAX_Y, below=box.min_y)
        else:
            clamp(_MIN_Y, below=box.min_y)
            clamp(_MAX_Y, above=box.max_y)
    return tuple(lo), tuple(hi)


class SpatialIndex:
    """Region mbbs as whole float64 columns, updatable in place.

    ``ids`` fixes the row order (matching, e.g., a configuration's or a
    :class:`~repro.core.plane.GeometryPlane`'s); ``boxes`` maps each id
    to its :class:`~repro.geometry.bbox.BoundingBox`.  Ids missing from
    ``boxes`` (broken geometry) stay *unindexed*: they are returned as
    candidates by every query (the index must never reject what it
    cannot see) and never as definite answers.
    """

    def __init__(
        self, ids: Sequence[str], boxes: Mapping[str, BoundingBox]
    ) -> None:
        self._ids: Tuple[str, ...] = tuple(ids)
        self._positions: Dict[str, int] = {
            region_id: position for position, region_id in enumerate(self._ids)
        }
        if len(self._positions) != len(self._ids):
            raise ValueError("duplicate region id in index")
        n = len(self._ids)
        # Answers are read off an object column, so turning a row mask
        # into ids is one numpy gather rather than a Python loop.
        self._id_column = np.empty(n, dtype=object)
        self._id_column[:] = self._ids
        self._lo = np.full((4, n), np.nan)
        self._hi = np.full((4, n), np.nan)
        for position, region_id in enumerate(self._ids):
            box = boxes.get(region_id)
            if box is not None:
                self._write_row(position, box)
        self._unindexed = np.isnan(self._lo[_MIN_X])
        self._unindexed_ids: FrozenSet[str] = frozenset(
            self._ids_of(self._unindexed)
        )

    def _write_row(self, position: int, box: BoundingBox) -> None:
        values = (box.min_x, box.max_x, box.min_y, box.max_y)
        self._lo[:, position] = [_float_down(value) for value in values]
        self._hi[:, position] = [_float_up(value) for value in values]

    def _ids_of(self, mask: np.ndarray) -> List[str]:
        """The ids of a row mask, in row order."""
        return self._id_column[mask].tolist()

    # -- introspection ------------------------------------------------

    @property
    def ids(self) -> Tuple[str, ...]:
        """Every id this index covers, in row order."""
        return self._ids

    @property
    def unindexed_ids(self) -> FrozenSet[str]:
        """Ids with no usable box: always candidates, never definite."""
        return self._unindexed_ids

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, region_id: object) -> bool:
        return region_id in self._positions

    # -- maintenance --------------------------------------------------

    def update(self, region_id: str, box: Optional[BoundingBox]) -> bool:
        """Re-point one id at a new box, in place.

        Rewrites the id's entry in each of the eight columns.  Returns
        ``False`` (leaving the index unchanged) when the edit cannot be
        absorbed in place: an unknown id, or an id that must move
        between the indexed and unindexed populations (``box=None`` for
        an indexed id, a real box for an unindexed one) — callers
        rebuild then.
        """
        position = self._positions.get(region_id)
        if position is None:
            return False
        unindexed = bool(self._unindexed[position])
        if box is None or unindexed:
            # Changing population membership changes the unindexed set
            # every query unions in: that is a rebuild, not an edit.
            return box is None and unindexed
        self._write_row(position, box)
        return True

    # -- queries ------------------------------------------------------

    def _query_mask(
        self, boxes: Sequence[Tuple[_Bounds, _Bounds]], *, strict: bool
    ) -> np.ndarray:
        """Row masks of ``k`` stacked 4-d box queries, as a ``(k, n)`` block.

        ``boxes`` holds one ``(lo, hi)`` bound pair per query.  Each of
        the eight comparisons covers every query and every row at once.
        ``strict=False``: the conservative closed test — a row passes
        when each widened coordinate interval meets the (pre-widened)
        query interval; never misses a true satisfier.  ``strict=True``:
        the definite open test — a row passes only when each widened
        interval sits strictly inside; never admits a false one.  NaN
        rows (unindexed ids) pass neither.
        """
        # (k, 2, 4) -> two (4, k, 1) blocks: bound column `dim` of every
        # query broadcasts against row column `dim`.
        stacked = np.array(boxes, dtype=np.float64)
        lows, highs = stacked.transpose(1, 2, 0)[..., np.newaxis]
        if strict:  # lo < row low, row high < hi
            tests = ((self._lo, np.greater, lows), (self._hi, np.less, highs))
        else:  # row high >= lo, row low <= hi
            tests = (
                (self._hi, np.greater_equal, lows),
                (self._lo, np.less_equal, highs),
            )
        mask = np.ones((len(boxes), len(self._ids)), dtype=bool)
        for rows, compare, bounds in tests:
            for dim in range(4):
                mask &= compare(rows[dim], bounds[dim])
        return mask

    def box_query(
        self, lo: Sequence[float], hi: Sequence[float]
    ) -> Tuple[str, ...]:
        """Ids whose ``(min_x, max_x, min_y, max_y)`` lie in a closed
        4-d box (unbounded dimensions as ±inf), in row order; unindexed
        ids included.
        """
        mask = self._query_mask([(tuple(lo), tuple(hi))], strict=False)[0]
        return tuple(self._ids_of(mask | self._unindexed))

    def direction_candidates(
        self,
        relation: DisjunctiveCD,
        box: BoundingBox,
        *,
        role: str = "primary",
        max_disjuncts: int = MAX_DISJUNCTS,
    ) -> Optional[IndexAnswer]:
        """The index verdict for one direction clause against ``box``.

        ``role="primary"`` answers ``x R box`` for indexed ``x``;
        ``role="reference"`` answers ``box R x``.  Returns ``None``
        when the disjunction is too wide to be selective
        (``max_disjuncts``) — the caller falls back to the scan path.
        The empty disjunction is unsatisfiable: empty candidate set.
        """
        if role not in _ROLES:
            raise ValueError(f"role must be one of {_ROLES}, got {role!r}")
        if len(relation) > max_disjuncts:
            return None
        if relation.is_empty:
            return IndexAnswer(frozenset(), frozenset())
        closed = [_closed_bounds(disjunct, box, role) for disjunct in relation]
        candidate_mask = self._query_mask(closed, strict=False).any(axis=0)
        candidate_mask |= self._unindexed
        tiles = [
            tile
            for disjunct in relation
            if disjunct.is_single_tile
            for tile in disjunct.tiles
            if tile is not Tile.B
        ]
        definite: FrozenSet[str] = frozenset()
        if tiles:
            strict = [_strict_bounds(tile, box, role) for tile in tiles]
            definite_mask = self._query_mask(strict, strict=True).any(axis=0)
            definite = frozenset(self._ids_of(definite_mask))
        return IndexAnswer(frozenset(self._ids_of(candidate_mask)), definite)

    def tile_candidates(
        self, box: BoundingBox, *, role: str = "primary"
    ) -> Dict[Tile, Tuple[str, ...]]:
        """Per non-``B`` tile, the ids *strictly* inside it — the
        pairs :func:`~repro.core.tiles.single_tile_prune` prunes, with
        identical strict-boundary semantics: boundary contact never
        qualifies, and ``B`` is absent by construction.  Every listed
        id's relation (in the given ``role``) is exactly the
        single-tile relation of its key.
        """
        if role not in _ROLES:
            raise ValueError(f"role must be one of {_ROLES}, got {role!r}")
        tiles = [tile for tile in Tile if tile is not Tile.B]
        masks = self._query_mask(
            [_strict_bounds(tile, box, role) for tile in tiles], strict=True
        )
        return {
            tile: tuple(self._ids_of(mask)) for tile, mask in zip(tiles, masks)
        }
