"""Tests for configuration diffing."""

from repro.cardirect.diff import diff_configurations
from repro.cardirect.model import AnnotatedRegion, Configuration
from repro.geometry.region import Region


def rect_region(x0, y0, x1, y1) -> Region:
    return Region.from_coordinates([[(x0, y0), (x0, y1), (x1, y1), (x1, y0)]])


def base_configuration() -> Configuration:
    return Configuration.from_regions(
        [
            AnnotatedRegion("box", rect_region(0, 0, 10, 10), name="Box", color="red"),
            AnnotatedRegion("south", rect_region(0, -8, 10, -2), name="South", color="blue"),
        ]
    )


class TestStructuralDiff:
    def test_identical(self):
        diff = diff_configurations(base_configuration(), base_configuration())
        assert diff.is_empty
        assert diff.summary() == "configurations are identical"

    def test_added_and_removed(self):
        new = Configuration.from_regions(
            [
                AnnotatedRegion("box", rect_region(0, 0, 10, 10), name="Box", color="red"),
                AnnotatedRegion("east", rect_region(12, 0, 16, 10)),
            ]
        )
        diff = diff_configurations(base_configuration(), new)
        assert diff.added == ["east"]
        assert diff.removed == ["south"]
        assert "+ added region 'east'" in diff.summary()
        assert "- removed region 'south'" in diff.summary()

    def test_attribute_change(self):
        new = base_configuration()
        new.replace_region(
            AnnotatedRegion("south", rect_region(0, -8, 10, -2), name="South", color="green")
        )
        diff = diff_configurations(base_configuration(), new)
        assert diff.attributes_changed == ["south"]
        assert not diff.geometry_changed
        assert not diff.relation_changes


class TestSpatialDiff:
    def test_geometry_change_without_relation_change(self):
        new = base_configuration()
        # Shrink south vertically only: its x-span (which the inverse
        # relation depends on) stays identical.
        new.replace_region(
            AnnotatedRegion("south", rect_region(0, -7, 10, -3), name="South", color="blue")
        )
        diff = diff_configurations(base_configuration(), new)
        assert diff.geometry_changed == ["south"]
        assert not diff.relation_changes  # still plain S / N either way

    def test_relation_change_reported_both_directions(self):
        new = base_configuration()
        new.replace_region(
            AnnotatedRegion("south", rect_region(0, 12, 10, 18), name="South", color="blue")
        )
        diff = diff_configurations(base_configuration(), new)
        changes = diff.relation_changes
        assert str(changes[("south", "box")][0]) == "S"
        assert str(changes[("south", "box")][1]) == "N"
        assert ("box", "south") in changes
        assert "relation south vs box: S -> N" in diff.summary()

    def test_relations_of_added_regions_not_reported(self):
        new = base_configuration()
        new.add(AnnotatedRegion("extra", rect_region(20, 20, 24, 24)))
        diff = diff_configurations(base_configuration(), new)
        assert diff.added == ["extra"]
        assert not diff.relation_changes


class TestCli:
    def test_diff_command(self, tmp_path, capsys):
        from repro.cardirect.cli import main
        from repro.cardirect.xmlio import save_configuration

        old = base_configuration()
        new = base_configuration()
        new.replace_region(
            AnnotatedRegion("south", rect_region(0, 12, 10, 18), name="South", color="blue")
        )
        old_path, new_path = tmp_path / "old.xml", tmp_path / "new.xml"
        save_configuration(old, old_path)
        save_configuration(new, new_path)
        assert main(["diff", str(old_path), str(new_path)]) == 3
        out = capsys.readouterr().out
        assert "geometry changed: 'south'" in out
        assert "S -> N" in out

    def test_diff_identical_exit_zero(self, tmp_path, capsys):
        from repro.cardirect.cli import main
        from repro.cardirect.xmlio import save_configuration

        path = tmp_path / "same.xml"
        save_configuration(base_configuration(), path)
        assert main(["diff", str(path), str(path)]) == 0
        assert "identical" in capsys.readouterr().out
