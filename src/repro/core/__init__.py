"""The paper's primary contribution: cardinal direction computation.

Public surface:

* :class:`~repro.core.tiles.Tile` — the nine direction tiles
  ``B, S, SW, W, NW, N, NE, E, SE`` induced by a reference region's mbb;
* :class:`~repro.core.relation.CardinalDirection` — a basic cardinal
  direction relation ``R1:...:Rk`` (one of the 511 elements of ``D*``) and
  :class:`~repro.core.relation.DisjunctiveCD` — an element of ``2^{D*}``;
* :func:`~repro.core.compute.compute_cdr` — **Algorithm Compute-CDR**
  (Fig. 5): the linear-time qualitative computation;
* :func:`~repro.core.percentages.compute_cdr_percentages` — **Algorithm
  Compute-CDR%** (Fig. 10): the linear-time quantitative computation;
* :mod:`~repro.core.baseline` — the polygon-clipping comparator;
* :mod:`~repro.core.engine` — the pluggable compute-engine layer: one
  string-keyed registry (``"exact"``, ``"fast"``, ``"guarded"``,
  ``"clipping"``, third-party backends) dispatching every consumer,
  with uniform :class:`~repro.core.engine.EngineStats` telemetry.
"""

from repro.core.baseline import (
    compute_cdr_clipping,
    compute_cdr_percentages_clipping,
    count_introduced_edges_clipping,
    count_introduced_edges_compute_cdr,
)
from repro.core.batch import BatchReport, PairOutcome, batch_relations
from repro.core.compute import compute_cdr
from repro.core.engine import (
    Engine,
    EngineStats,
    available_engines,
    create_engine,
    register_engine,
    resolve_engine,
    unregister_engine,
)
from repro.core.fast import compute_cdr_fast, compute_cdr_percentages_fast
from repro.core.guarded import (
    GuardDiagnostics,
    GuardedValue,
    guarded_cdr,
    guarded_percentages,
)
from repro.core.matrix import DirectionRelationMatrix, PercentageMatrix
from repro.core.percentages import compute_cdr_percentages
from repro.core.relation import (
    ALL_BASIC_RELATIONS,
    CardinalDirection,
    DisjunctiveCD,
)
from repro.core.tiles import Tile, tile_of_point, tiles_of_point

__all__ = [
    "Tile",
    "tile_of_point",
    "tiles_of_point",
    "CardinalDirection",
    "DisjunctiveCD",
    "ALL_BASIC_RELATIONS",
    "DirectionRelationMatrix",
    "PercentageMatrix",
    "compute_cdr",
    "compute_cdr_fast",
    "compute_cdr_percentages",
    "compute_cdr_percentages_fast",
    "compute_cdr_clipping",
    "compute_cdr_percentages_clipping",
    "count_introduced_edges_clipping",
    "count_introduced_edges_compute_cdr",
    "guarded_cdr",
    "guarded_percentages",
    "GuardDiagnostics",
    "GuardedValue",
    "batch_relations",
    "BatchReport",
    "PairOutcome",
    "Engine",
    "EngineStats",
    "available_engines",
    "create_engine",
    "register_engine",
    "resolve_engine",
    "unregister_engine",
]
