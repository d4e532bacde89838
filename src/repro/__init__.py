"""repro — Computing and Handling Cardinal Direction Information.

A production-quality reproduction of the EDBT 2004 paper by Skiadopoulos,
Giannoukos, Vassiliadis, Sellis and Koubarakis:

* the linear-time **Compute-CDR** algorithm for qualitative cardinal
  direction relations between composite polygonal regions;
* the linear-time **Compute-CDR%** algorithm for cardinal direction
  relations with percentages;
* the **CARDIRECT** system: annotated configurations, the paper's XML
  format, and its conjunctive query language;
* the companion reasoning layer (inverse, composition, consistency) the
  paper's framework builds on;
* a polygon-clipping baseline and benchmark harness reproducing the
  paper's comparisons.

Quickstart::

    from repro import Polygon, Region, compute_cdr, compute_cdr_percentages

    b = Region.from_coordinates([[(0, 0), (0, 1), (1, 1), (1, 0)]])
    a = Region.from_coordinates([[(0.2, -2), (0.2, -1), (0.8, -1), (0.8, -2)]])
    print(compute_cdr(a, b))              # S
    print(compute_cdr_percentages(a, b))  # 100% in the S cell
"""

from repro.errors import (
    ConfigurationError,
    GeometryError,
    QueryError,
    ReasoningError,
    RelationError,
    ReproError,
    XMLFormatError,
)
from repro.geometry import BoundingBox, Point, Polygon, Region, Segment
from repro.core import (
    ALL_BASIC_RELATIONS,
    CardinalDirection,
    DirectionRelationMatrix,
    DisjunctiveCD,
    Engine,
    EngineStats,
    PercentageMatrix,
    Tile,
    available_engines,
    compute_cdr,
    compute_cdr_clipping,
    compute_cdr_percentages,
    compute_cdr_percentages_clipping,
    create_engine,
    register_engine,
)
from repro.core.pairs import RelativePosition, relative_position

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "GeometryError",
    "RelationError",
    "ConfigurationError",
    "XMLFormatError",
    "QueryError",
    "ReasoningError",
    # geometry
    "Point",
    "Segment",
    "BoundingBox",
    "Polygon",
    "Region",
    # relations
    "Tile",
    "CardinalDirection",
    "DisjunctiveCD",
    "ALL_BASIC_RELATIONS",
    "DirectionRelationMatrix",
    "PercentageMatrix",
    # algorithms
    "compute_cdr",
    "compute_cdr_percentages",
    "compute_cdr_clipping",
    "compute_cdr_percentages_clipping",
    "relative_position",
    "RelativePosition",
    # compute engines
    "Engine",
    "EngineStats",
    "available_engines",
    "create_engine",
    "register_engine",
]
