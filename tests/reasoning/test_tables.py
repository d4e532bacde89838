"""Tests for precomputed relation tables."""

from pathlib import Path

import pytest

from repro.errors import ReasoningError
from repro.core.relation import ALL_BASIC_RELATIONS, CardinalDirection
from repro.reasoning.inverse import inverse
from repro.reasoning.tables import (
    composition_row,
    full_inverse_table,
    load_inverse_table,
    save_inverse_table,
)

GOLDEN = Path(__file__).parent / "data" / "inverse_table.txt"


@pytest.fixture(scope="module")
def table():
    return full_inverse_table()


class TestFullInverseTable:
    def test_covers_the_universe(self, table):
        assert len(table) == 511

    def test_matches_operator(self, table):
        for relation in ALL_BASIC_RELATIONS[::61]:
            assert table[relation] == inverse(relation)

    def test_matches_the_golden_file(self, table):
        """``data/inverse_table.txt`` is the saved table (511 lines,
        1,621 members); every inverse must equal its line exactly."""
        assert load_inverse_table(GOLDEN) == table

    def test_global_involution_property(self, table):
        """For every R and every S in inv(R): R in inv(S) — checked over
        the complete table, the strongest exhaustive statement the
        reproduction makes about the inverse operator."""
        violations = 0
        for relation, inverses in table.items():
            for member in inverses.relations:
                if relation not in table[member]:
                    violations += 1
        assert violations == 0

    def test_no_inverse_is_empty(self, table):
        assert all(len(entry) >= 1 for entry in table.values())

    def test_single_tile_quadrant_inverses_are_basic(self, table):
        for name, mirrored in (("SW", "NE"), ("NE", "SW"), ("NW", "SE"), ("SE", "NW")):
            entry = table[CardinalDirection.parse(name)]
            assert {str(r) for r in entry} == {mirrored}


class TestSerialisation:
    def test_roundtrip(self, table, tmp_path):
        path = tmp_path / "inverse.tbl"
        save_inverse_table(table, path)
        assert load_inverse_table(path) == table

    def test_format_is_line_per_entry(self, table, tmp_path):
        path = tmp_path / "inverse.tbl"
        save_inverse_table(table, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 511
        assert all("->" in line for line in lines)

    def test_missing_arrow_rejected(self, tmp_path):
        path = tmp_path / "bad.tbl"
        path.write_text("S N\n")
        with pytest.raises(ReasoningError, match="line 1"):
            load_inverse_table(path)

    def test_bad_relation_rejected(self, tmp_path):
        path = tmp_path / "bad.tbl"
        path.write_text("S -> NORTH\n")
        with pytest.raises(ReasoningError, match="line 1"):
            load_inverse_table(path)

    def test_incomplete_table_rejected(self, tmp_path):
        path = tmp_path / "partial.tbl"
        path.write_text("S -> N\n")
        with pytest.raises(ReasoningError, match="expected 511"):
            load_inverse_table(path)

    def test_duplicate_entry_rejected(self, tmp_path):
        path = tmp_path / "dup.tbl"
        path.write_text("S -> N\nS -> N\n")
        with pytest.raises(ReasoningError, match="duplicate"):
            load_inverse_table(path)


class TestCompositionRow:
    def test_row_shape(self):
        row = composition_row(CardinalDirection.parse("B"))
        assert len(row) == 511
        # compose(B, single-tile) = that tile.
        for name in ("S", "NE", "W"):
            assert {str(r) for r in row[CardinalDirection.parse(name)]} == {name}
