"""Tests for the benchmark table renderer."""

from repro.bench.tables import render_table


class TestRenderTable:
    def test_alignment_and_title(self):
        text = render_table(
            ["name", "value"],
            [("alpha", 1.23456), ("b", 7)],
            title="My Table",
        )
        lines = text.splitlines()
        assert lines[0] == "My Table"
        assert "name" in lines[1] and "value" in lines[1]
        assert "alpha" in lines[3]
        assert "1.2346" in lines[3]  # default float format
        assert "7" in lines[4]

    def test_no_title(self):
        text = render_table(["a"], [(1,)])
        assert text.splitlines()[0].startswith("a")

    def test_custom_float_format(self):
        text = render_table(["x"], [(0.123456,)], float_format="{:.1f}")
        assert "0.1" in text
        assert "0.12" not in text

    def test_empty_rows(self):
        text = render_table(["col"], [])
        assert "col" in text

    def test_column_widths_accommodate_long_cells(self):
        text = render_table(["h"], [("a-very-long-cell",)])
        header, divider, row = text.splitlines()
        assert len(divider) >= len("a-very-long-cell")

