"""Seeded input generators and writers for the benchmark.

Everything the program receives is produced here from a seed: star
polygon maps in CARDIRECT XML (the paper's DTD), conjunctive query
texts, region edits, and constraint networks in the ``cardirect
reason`` text format.  Nothing here imports the program's own workload
generators, so no change to the program can change the inputs.

Coordinates are integer pixels, as on an annotated image.  Rings are
clockwise in y-up coordinates.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Sequence, Tuple
from xml.sax.saxutils import quoteattr

Ring = List[Tuple[int, int]]

COLOURS = ("red", "green", "blue", "yellow", "cyan", "magenta", "orange", "grey")

# Each region sits at a uniformly drawn centre; the map side grows with
# sqrt(n), so density (and hence how many regions a direction clause
# selects) stays the same at every map size.
SPACING = 200
MIN_RADIUS = 30
MAX_RADIUS = 100
MAX_EDGES = 12
MULTI_SHARE = 0.2  # regions made of two star polygons

DTD = """<!DOCTYPE Image [
<!ELEMENT Image (Region+, Relation*)>
<!ATTLIST Image name CDATA #IMPLIED file CDATA #IMPLIED>
<!ELEMENT Region (Polygon*)>
<!ATTLIST Region id ID #REQUIRED name CDATA #IMPLIED color CDATA #IMPLIED>
<!ELEMENT Polygon (Edge, Edge, Edge, Edge*)>
<!ATTLIST Polygon id CDATA #REQUIRED>
<!ELEMENT Edge EMPTY>
<!ATTLIST Edge x CDATA #REQUIRED y CDATA #REQUIRED>
<!ELEMENT Relation EMPTY>
<!ATTLIST Relation type CDATA #REQUIRED primary IDREF #REQUIRED reference IDREF #REQUIRED>
]>"""


class MapRegion:
    """One annotated region as plain data: id, name, colour and rings."""

    __slots__ = ("id", "name", "colour", "rings", "kind")

    def __init__(
        self, id: str, name: str, colour: str, rings: List[Ring], kind: str
    ) -> None:
        self.id = id
        self.name = name
        self.colour = colour
        self.rings = rings
        self.kind = kind  # "healthy", "bowtie" or "broken"

    def centre(self) -> Tuple[float, float]:
        xs = [x for ring in self.rings for x, _ in ring]
        ys = [y for ring in self.rings for _, y in ring]
        return (min(xs) + max(xs)) / 2, (min(ys) + max(ys)) / 2


def star_ring(
    rng: random.Random, cx: int, cy: int, radius: int, edges: int
) -> Ring:
    """A simple clockwise star-shaped ring about ``(cx, cy)``.

    Angles decrease strictly with at least a fifth of a slice between
    neighbours, and every vertex lies at least ``radius / 2`` from the
    centre, so rounding to whole pixels keeps the angular order: the ring
    stays simple and the centre stays inside it.
    """
    slice_width = 2.0 * math.pi / edges
    ring: Ring = []
    for i in range(edges):
        theta = -(i + rng.uniform(0.1, 0.9)) * slice_width
        r = rng.uniform(radius / 2, radius)
        point = (round(cx + r * math.cos(theta)), round(cy + r * math.sin(theta)))
        if not ring or point != ring[-1]:
            ring.append(point)
    if ring[0] == ring[-1]:
        ring.pop()
    return ring


def bowtie_ring(cx: int, cy: int, scale: int) -> Ring:
    """A self-intersecting ring with clockwise signed area.

    It passes the polygon constructor, fails validation, and the repair
    pipeline splits it into its two triangles.
    """
    shape = ((-1, 2), (1, -2), (1, 0), (-1, -2))
    return [(cx + scale * x, cy + scale * y) for x, y in shape]


def overlapping_rings(cx: int, cy: int, scale: int) -> List[Ring]:
    """Two squares of one region whose interiors overlap.

    Validation rejects the region and no repair applies, so every pair
    that touches it must come back failed.
    """
    def square(x0: int) -> Ring:
        return [
            (cx + scale * x0, cy - scale),
            (cx + scale * x0, cy + scale),
            (cx + scale * (x0 + 2), cy + scale),
            (cx + scale * (x0 + 2), cy - scale),
        ]

    return [square(-2), square(-1)]


def star_region(
    rng: random.Random, cx: int, cy: int, *, multi_share: float
) -> List[Ring]:
    """One or two star polygons; a second one never touches the first."""
    r1 = rng.randint(MIN_RADIUS, MAX_RADIUS)
    rings = [star_ring(rng, cx, cy, r1, rng.randint(4, MAX_EDGES))]
    if rng.random() < multi_share:
        r2 = rng.randint(MIN_RADIUS, MAX_RADIUS) // 2
        angle = rng.uniform(0, 2 * math.pi)
        gap = r1 + r2 + 4
        rings.append(
            star_ring(
                rng,
                cx + round(gap * math.cos(angle)),
                cy + round(gap * math.sin(angle)),
                r2,
                rng.randint(4, 8),
            )
        )
    return rings


def star_map(
    rng: random.Random,
    count: int,
    *,
    bowtie_share: float = 0.0,
    broken: int = 0,
    colours: Sequence[str] = COLOURS,
) -> List[MapRegion]:
    """``count`` regions: star polygons, a share of bowties, ``broken``
    unrepairable regions.  Kinds are shuffled through the map."""
    side = int(math.sqrt(count) * SPACING)
    bowties = round(count * bowtie_share)
    kinds = (
        ["broken"] * broken
        + ["bowtie"] * bowties
        + ["healthy"] * (count - broken - bowties)
    )
    rng.shuffle(kinds)
    # Equal colour classes, so filter selectivity does not vary by seed.
    palette = [colours[i % len(colours)] for i in range(count)]
    rng.shuffle(palette)
    regions = []
    for index, kind in enumerate(kinds):
        cx, cy = rng.randint(0, side), rng.randint(0, side)
        if kind == "bowtie":
            rings = [bowtie_ring(cx, cy, rng.randint(10, 25))]
        elif kind == "broken":
            rings = overlapping_rings(cx, cy, rng.randint(10, 25))
        else:
            rings = star_region(rng, cx, cy, multi_share=MULTI_SHARE)
        regions.append(
            MapRegion(f"r{index}", f"site{index}", palette[index], rings, kind)
        )
    return regions


def map_to_xml(regions: Sequence[MapRegion], name: str) -> str:
    """A CARDIRECT document in the paper's DTD (no stored relations)."""
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        DTD,
        f"<Image name={quoteattr(name)}>",
    ]
    for region in regions:
        parts.append(
            f"  <Region id={quoteattr(region.id)} name={quoteattr(region.name)}"
            f" color={quoteattr(region.colour)}>"
        )
        for number, ring in enumerate(region.rings):
            parts.append(f'    <Polygon id="{region.id}-{number}">')
            parts.extend(f'      <Edge x="{x}" y="{y}"/>' for x, y in ring)
            parts.append("    </Polygon>")
        parts.append("  </Region>")
    parts.append("</Image>")
    return "\n".join(parts) + "\n"


def moved(region: MapRegion, rng: random.Random) -> MapRegion:
    """The region shifted by up to three spacings, or reshaped in place."""
    if rng.random() < 0.5:
        dx = rng.randint(-3 * SPACING, 3 * SPACING)
        dy = rng.randint(-3 * SPACING, 3 * SPACING)
        rings = [[(x + dx, y + dy) for x, y in ring] for ring in region.rings]
    else:
        cx, cy = region.centre()
        rings = star_region(rng, round(cx), round(cy), multi_share=0.0)
    return MapRegion(region.id, region.name, region.colour, rings, region.kind)


# -- queries ------------------------------------------------------------

# Disjunctions a user would type: a compass sector, with its multi-tile
# neighbours, so the index settles single-tile members and the engine
# must check the multi-tile ones.
SECTORS = {
    "N": "{N, NW:N, N:NE, NW:N:NE}",
    "S": "{S, SW:S, S:SE, SW:S:SE}",
    "E": "{E, NE:E, E:SE, NE:E:SE}",
    "W": "{W, NW:W, W:SW, NW:W:SW}",
    "NE": "{NE, N:NE, NE:E, N:NE:E}",
    "SW": "{SW, W:SW, SW:S, W:SW:S}",
}
BASIC = ("N", "S", "E", "W", "NE", "NW", "SE", "SW")


def session_query(rng: random.Random, ids: Sequence[str], shape: int) -> str:
    """A 2–3 variable conjunctive query with colour or identity filters
    and basic, disjunctive and ``pct()`` atoms; ``shape`` picks one of
    four forms."""
    if shape == 0:
        return (
            f"x = {rng.choice(ids)} and color(y) = {rng.choice(COLOURS)} "
            f"and y {SECTORS[rng.choice(list(SECTORS))]} x"
        )
    if shape == 1:
        return (
            f"color(x) = {rng.choice(COLOURS)} and "
            f"color(y) = {rng.choice(COLOURS)} and x {rng.choice(BASIC)} y"
        )
    if shape == 2:
        return (
            f"x = {rng.choice(ids)} and color(y) = {rng.choice(COLOURS)} "
            f"and pct(y, x, {rng.choice(BASIC)}) >= {rng.choice((25, 50, 75))}"
        )
    return (
        f"x = {rng.choice(ids)} and color(y) = {rng.choice(COLOURS)} "
        f"and color(z) = {rng.choice(COLOURS)} "
        f"and y {SECTORS[rng.choice(list(SECTORS))]} x "
        f"and z {rng.choice(BASIC)} y"
    )


# A column (above or below) or a row (left or right) of the anchor: two
# compass sectors, eight disjuncts, within the index's reach.
BANDS = {
    "column": (SECTORS["N"][1:-1] + ", " + SECTORS["S"][1:-1]),
    "row": (SECTORS["E"][1:-1] + ", " + SECTORS["W"][1:-1]),
}


def lookup_query(
    rng: random.Random, anchor: str, colours: Sequence[str], second_share: float
) -> str:
    """An identity anchor, a colour filter and one direction clause over
    multi-tile disjunctions (two for ``second_share`` of the queries), so
    the index narrows the candidates and the engine settles the rest."""
    band = rng.choice(list(BANDS))
    text = f"x = {anchor} and color(y) = {rng.choice(colours)} and y {{{BANDS[band]}}} x"
    if rng.random() < second_share:
        text += f" and x {{{BANDS[band]}}} y"
    return text


# -- constraint networks -------------------------------------------------

# Each region is a box filling one cell of a small lattice, so every
# relation is single-tile and the relation vocabulary (hence the
# composition table a run needs) is bounded the same way for every seed.
LATTICE = 5
CELL = 10
BOX = 8


def box_ring(x0: int, y0: int, w: int, h: int) -> Ring:
    return [(x0, y0), (x0, y0 + h), (x0 + w, y0 + h), (x0 + w, y0)]


def box_scene(rng: random.Random, count: int) -> Dict[str, List[Ring]]:
    """``count`` regions, each a box in its own lattice cell."""
    cells = rng.sample(range(LATTICE * LATTICE), count)
    return {
        f"v{index}": [box_ring(CELL * (cell % LATTICE), CELL * (cell // LATTICE), BOX, BOX)]
        for index, cell in enumerate(cells)
    }


# Tiles as (column, row) offsets from the reference box, in the paper's
# B:S:SW:W:NW:N:NE:E:SE order.
_TILE_NAMES = (
    ((0, 0), "B"), ((0, -1), "S"), ((-1, -1), "SW"), ((-1, 0), "W"),
    ((-1, 1), "NW"), ((0, 1), "N"), ((1, 1), "NE"), ((1, 0), "E"),
    ((1, -1), "SE"),
)


def _bands(lo: int, hi: int, ref_lo: int, ref_hi: int) -> List[int]:
    """The reference bands (-1, 0, 1) that ``[lo, hi]`` overlaps with
    positive length."""
    edges = ((-1, -math.inf, ref_lo), (0, ref_lo, ref_hi), (1, ref_hi, math.inf))
    return [band for band, a, b in edges if min(hi, b) > max(lo, a)]


def box_relation(primary: List[Ring], reference: List[Ring]) -> str:
    """The cardinal direction of a union of boxes against another's mbb.

    Computed independently of the program: for axis-aligned boxes the
    relation is exactly the set of reference tiles that some primary box
    overlaps with positive area.
    """
    rx = [x for ring in reference for x, _ in ring]
    ry = [y for ring in reference for _, y in ring]
    tiles = set()
    for ring in primary:
        xs = [x for x, _ in ring]
        ys = [y for _, y in ring]
        columns = _bands(min(xs), max(xs), min(rx), max(rx))
        rows = _bands(min(ys), max(ys), min(ry), max(ry))
        tiles.update((c, r) for c in columns for r in rows)
    return ":".join(name for tile, name in _TILE_NAMES if tile in tiles)


def _shifted(rings: List[Ring], dx: int, dy: int) -> List[Ring]:
    return [[(x + dx, y + dy) for x, y in ring] for ring in rings]


def network(
    rng: random.Random, variables: int, members: int, contradiction: bool
) -> List[Tuple[str, List[str], str]]:
    """A complete constraint network over a seeded box scene.

    Every constraint is a disjunction of ``members`` relations that
    contains the scene's true relation; the others are the relation of the
    primary moved to a neighbouring cell, near misses a user could have
    meant.  The scene is a witness, so the network is consistent — unless
    ``contradiction`` replaces the constraints of one triple by a cycle
    of northward relations (``a`` above ``b`` above ``c`` above ``a``),
    which no regions can satisfy.
    """
    scene = box_scene(rng, variables)
    names = sorted(scene, key=lambda name: int(name[1:]))
    constraints = []
    for a in range(len(names)):
        for b in range(a + 1, len(names)):
            primary, reference = scene[names[a]], scene[names[b]]
            relations = {box_relation(primary, reference)}
            for _ in range(40):
                if len(relations) >= members:
                    break
                dx, dy = rng.choice(((CELL, 0), (-CELL, 0), (0, CELL), (0, -CELL)))
                decoy = box_relation(_shifted(primary, dx, dy), reference)
                # A move onto the reference gives B, whose inverse has 487
                # members: it would swamp the composition table.
                if decoy != "B":
                    relations.add(decoy)
            constraints.append((names[a], sorted(relations), names[b]))
    if contradiction:
        a, b, c = rng.sample(names, 3)
        northward = [["N", "NW:N"], ["N", "N:NE"], ["NW:N:NE", "N"]]
        cycle = {(a, b): northward[0], (b, c): northward[1], (c, a): northward[2]}
        kept = []
        for primary, relations, reference in constraints:
            if (primary, reference) in cycle or (reference, primary) in cycle:
                continue
            kept.append((primary, relations, reference))
        constraints = kept + [(p, r, q) for (p, q), r in cycle.items()]
    return constraints


def network_text(constraints: Sequence[Tuple[str, Sequence[str], str]]) -> str:
    """The ``cardirect reason`` text form: one ``a {R1, R2} b`` per line."""
    lines = ["# generated constraint network"]
    for primary, members, reference in constraints:
        lines.append(f"{primary} {{{', '.join(members)}}} {reference}")
    return "\n".join(lines) + "\n"
