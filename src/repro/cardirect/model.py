"""The CARDIRECT annotation model.

A :class:`Configuration` mirrors the paper's ``Image`` element: an
(optional) underlying image plus a set of annotated regions, each a
``REG*`` region with an id, a display name and a colour (the thematic
attribute used throughout Section 4's examples and queries).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.geometry.region import Region

#: XML ID tokens (a NAME): letter/underscore first, then word chars/.-
_ID_PATTERN = re.compile(r"^[A-Za-z_][\w.\-]*$")

#: The thematic attributes f : REG* -> dom(C) the query language exposes.
THEMATIC_ATTRIBUTES = ("color", "name", "id")


@dataclass(frozen=True)
class AnnotatedRegion:
    """One user-annotated region of interest.

    ``id`` must be a valid XML ID (it becomes the ``Region id`` attribute
    and the target of ``Relation primary/reference`` IDREFs).
    """

    id: str
    region: Region
    name: str = ""
    color: str = ""

    def __post_init__(self) -> None:
        if not _ID_PATTERN.match(self.id):
            raise ConfigurationError(f"invalid region id: {self.id!r}")
        if not isinstance(self.region, Region):
            raise ConfigurationError(
                f"region {self.id!r}: expected a Region, got "
                f"{type(self.region).__name__}"
            )

    def attribute(self, attribute: str) -> str:
        """The value of a thematic attribute (``color``, ``name``, ``id``)."""
        if attribute == "color":
            return self.color
        if attribute == "name":
            return self.name
        if attribute == "id":
            return self.id
        raise ConfigurationError(f"unknown thematic attribute: {attribute!r}")

    def recolored(self, color: str) -> "AnnotatedRegion":
        return replace(self, color=color)


@dataclass
class Configuration:
    """An annotated image: the paper's persistent unit of work."""

    image_name: str = ""
    image_file: str = ""
    _regions: Dict[str, AnnotatedRegion] = field(default_factory=dict)
    # attribute -> value -> ids in configuration order; built per
    # attribute on first use and dropped by every edit.
    _by_attribute: Dict[str, Dict[str, Tuple[str, ...]]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @classmethod
    def from_regions(
        cls,
        regions: List[AnnotatedRegion],
        *,
        image_name: str = "",
        image_file: str = "",
    ) -> "Configuration":
        configuration = cls(image_name=image_name, image_file=image_file)
        for annotated in regions:
            configuration.add(annotated)
        return configuration

    def add(self, annotated: AnnotatedRegion) -> None:
        """Add a region; ids must be unique within the configuration."""
        if annotated.id in self._regions:
            raise ConfigurationError(f"duplicate region id: {annotated.id!r}")
        self._regions[annotated.id] = annotated
        self._by_attribute.clear()

    def remove(self, region_id: str) -> AnnotatedRegion:
        """Remove and return a region by id."""
        try:
            removed = self._regions.pop(region_id)
        except KeyError:
            raise ConfigurationError(f"no region with id {region_id!r}") from None
        self._by_attribute.clear()
        return removed

    def replace_region(self, annotated: AnnotatedRegion) -> None:
        """Replace an existing region (same id) with new geometry/attributes."""
        if annotated.id not in self._regions:
            raise ConfigurationError(f"no region with id {annotated.id!r}")
        self._regions[annotated.id] = annotated
        self._by_attribute.clear()

    def ids_with(self, attribute: str, value: str) -> Tuple[str, ...]:
        """The ids whose thematic ``attribute`` equals ``value``, in
        configuration order (what ``color(x) = blue`` selects)."""
        by_value = self._by_attribute.get(attribute)
        if by_value is None:
            grouped: Dict[str, List[str]] = {}
            for annotated in self._regions.values():
                grouped.setdefault(
                    annotated.attribute(attribute), []
                ).append(annotated.id)
            by_value = {key: tuple(ids) for key, ids in grouped.items()}
            self._by_attribute[attribute] = by_value
        return by_value.get(value, ())

    def get(self, region_id: str) -> AnnotatedRegion:
        try:
            return self._regions[region_id]
        except KeyError:
            raise ConfigurationError(f"no region with id {region_id!r}") from None

    def find_by_name(self, name: str) -> Optional[AnnotatedRegion]:
        """The first region whose display name matches, or ``None``."""
        for annotated in self._regions.values():
            if annotated.name == name:
                return annotated
        return None

    def resolve(self, reference: str) -> AnnotatedRegion:
        """Resolve a textual reference: by id first, then by display name.

        This is what query conditions like ``x1 = Attica`` use.
        """
        if reference in self._regions:
            return self._regions[reference]
        by_name = self.find_by_name(reference)
        if by_name is not None:
            return by_name
        raise ConfigurationError(
            f"no region with id or name {reference!r}"
        )

    @property
    def region_ids(self) -> List[str]:
        return list(self._regions)

    def regions(self) -> List[AnnotatedRegion]:
        return list(self._regions.values())

    def __len__(self) -> int:
        return len(self._regions)

    def __iter__(self) -> Iterator[AnnotatedRegion]:
        return iter(self._regions.values())

    def __contains__(self, region_id: object) -> bool:
        return region_id in self._regions
