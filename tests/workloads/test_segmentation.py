"""Tests for the synthetic segmentation front end."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.workloads.segmentation import (
    LabeledImage,
    configuration_from_image,
    extract_regions,
    random_labeled_image,
)


ART = [
    "111..22",
    "1.1..22",
    "111....",
    ".......",
    "..3333.",
]
CHAR_MAP = {"1": 1, "2": 2, "3": 3}


def image() -> LabeledImage:
    return LabeledImage.from_strings(ART, CHAR_MAP)


class TestLabeledImage:
    def test_dimensions(self):
        img = image()
        assert (img.width, img.height) == (7, 5)

    def test_labels(self):
        assert image().labels() == [1, 2, 3]

    def test_pixel_count(self):
        assert image().pixel_count(1) == 8
        assert image().pixel_count(3) == 4

    def test_unmapped_chars_are_background(self):
        img = LabeledImage.from_strings(["ab", "cd"], {"a": 1})
        assert img.labels() == [1]

    def test_empty_rejected(self):
        with pytest.raises(GeometryError):
            LabeledImage.from_rows([])

    def test_ragged_rejected(self):
        with pytest.raises(GeometryError):
            LabeledImage.from_rows([[1, 2], [1]])


class TestExtraction:
    def test_area_equals_pixel_count(self):
        img = image()
        regions = extract_regions(img)
        for label in img.labels():
            assert regions[label].area() == img.pixel_count(label)

    def test_ring_segment_has_hole(self):
        """Label 1 is a 3x3 ring: the centre pixel must be excluded."""
        from fractions import Fraction
        from repro.geometry.point import Point
        from repro.geometry.predicates import point_in_region

        region = extract_regions(image())[1]
        # Centre of the hole pixel (raster (1,1) -> y-up (1.5, 3.5)).
        assert not point_in_region(Point(Fraction(3, 2), Fraction(7, 2)), region)
        assert point_in_region(Point(Fraction(1, 2), Fraction(7, 2)), region)

    def test_vertical_merge_compresses_rectangles(self):
        """A solid 2x2 block becomes one rectangle, not two strips."""
        img = LabeledImage.from_strings(["11", "11"], {"1": 1})
        region = extract_regions(img)[1]
        assert len(region) == 1
        box = region.bounding_box()
        assert (box.width, box.height) == (2, 2)

    def test_non_contiguous_columns_stay_separate(self):
        img = LabeledImage.from_strings(["1.1"], {"1": 1})
        region = extract_regions(img)[1]
        assert len(region) == 2

    def test_staircase_shape(self):
        img = LabeledImage.from_strings(["1..", "11.", "111"], {"1": 1})
        region = extract_regions(img)[1]
        assert region.area() == 6

    def test_raster_orientation(self):
        """Row 0 is the top: label 2's band must sit north of label 3's."""
        regions = extract_regions(image())
        from repro.core.compute import compute_cdr

        relation = compute_cdr(regions[2], regions[3])
        assert relation.spans_rows == {1}

    def test_extracted_regions_are_rectilinear(self):
        from repro.extensions.topology import is_rectilinear

        for region in extract_regions(image()).values():
            assert is_rectilinear(region)

    def test_regions_are_topologically_disjoint_or_touching(self):
        """Different segments never share pixels, so never overlap."""
        from repro.extensions.topology import RCC8, rcc8

        regions = extract_regions(image())
        labels = sorted(regions)
        for i, first in enumerate(labels):
            for second in labels[i + 1:]:
                assert rcc8(regions[first], regions[second]) in (
                    RCC8.DC, RCC8.EC,
                )


class TestRandomImages:
    def test_reproducible(self):
        a = random_labeled_image(7, width=20, height=12, segments=3)
        b = random_labeled_image(7, width=20, height=12, segments=3)
        assert a.pixels == b.pixels

    def test_too_small_rejected(self):
        with pytest.raises(GeometryError):
            random_labeled_image(0, width=1, height=5)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6))
    def test_extraction_invariants_on_random_images(self, seed):
        img = random_labeled_image(
            seed, width=24, height=16, segments=4, growth_steps=40
        )
        regions = extract_regions(img)
        for label, region in regions.items():
            assert region.area() == img.pixel_count(label)
            box = region.bounding_box()
            assert 0 <= box.min_x and box.max_x <= img.width
            assert 0 <= box.min_y and box.max_y <= img.height


class TestConfigurationBridge:
    def test_ids_names_colors(self):
        configuration = configuration_from_image(
            image(),
            names={1: "Ring"},
            colors={1: "red", 2: "blue"},
            image_name="demo",
        )
        assert configuration.image_name == "demo"
        assert [r.id for r in configuration] == [
            "segment1", "segment2", "segment3",
        ]
        assert configuration.get("segment1").name == "Ring"
        assert configuration.get("segment2").color == "blue"
        assert configuration.get("segment3").name == "Segment 3"

    def test_pipeline_to_queries(self):
        """Segmentation -> configuration -> store -> query, end to end."""
        from repro.cardirect.parser import parse_query
        from repro.cardirect.store import RelationStore

        configuration = configuration_from_image(
            image(), colors={1: "red", 2: "blue", 3: "blue"}
        )
        store = RelationStore(configuration)
        query = parse_query("color(b) = blue and rcc8(b, r) = DC and r = segment1")
        results = {row[0] for row in query.evaluate(store)}
        assert results == {"segment2", "segment3"}
