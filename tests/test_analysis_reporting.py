"""Tests for the plain-text report rendering helpers."""

from __future__ import annotations

from repro.analysis.reporting import (Bars, Columns, If, Named, Pivot, Round, Rows, Section,
                                     Timeline, format_fraction_bar, format_series, format_table,
                                     render)


class TestFormatTable:
    def test_contains_headers_and_rows(self):
        text = format_table(["name", "count"], [["alpha", 10], ["beta", 2000]])
        assert "name" in text and "count" in text
        assert "alpha" in text and "beta" in text
        assert "2,000" in text  # thousands separator

    def test_title_and_rule(self):
        text = format_table(["a"], [[1]], title="My Table")
        lines = text.splitlines()
        assert lines[0] == "My Table"
        assert set(lines[1]) == {"="}

    def test_columns_are_aligned(self):
        text = format_table(["col"], [["short"], ["a-much-longer-value"]])
        data_lines = text.splitlines()[2:]
        assert len(set(len(line) for line in data_lines)) == 1

    def test_float_formatting(self):
        text = format_table(["v"], [[0.12345], [12.3456], [12345.6]])
        assert "0.1234" in text or "0.1235" in text
        assert "12.35" in text
        assert "12,346" in text

    def test_empty_rows(self):
        text = format_table(["a", "b"], [])
        assert "a" in text and "b" in text


class TestFormatSeries:
    def test_series_rendered_as_columns(self):
        text = format_series("x", [1, 2, 3], {"linear": [1, 2, 3], "square": [1, 4, 9]})
        assert "linear" in text and "square" in text
        assert "9" in text

    def test_short_series_padded(self):
        text = format_series("x", [1, 2], {"partial": [10]})
        assert "10" in text


class TestFractionBar:
    def test_bars_scale_with_fraction(self):
        text = format_fraction_bar({"a": 0.75, "b": 0.25}, width=20)
        lines = text.splitlines()
        assert lines[0].count("#") == 15
        assert lines[1].count("#") == 5
        assert "75.0%" in lines[0]

    def test_title_and_empty(self):
        assert "headline" in format_fraction_bar({"a": 1.0}, title="headline")
        assert "(empty)" in format_fraction_bar({})


class TestRender:
    """Each layout part, drawn from a plain metrics mapping."""

    METRICS = {
        "nodes": 4,
        "accuracy": 0.987654,
        "unserved": 0,
        "grey": 3,
        "counters": ["kills", "lookups"],
        "kills": 1,
        "lookups": 2500,
        "points": [
            {"nodes": 1, "batch": 128, "fps": 10.4},
            {"nodes": 2, "batch": 1, "fps": 2.6},
            {"nodes": 1, "batch": 1, "fps": 1.4},
            {"nodes": 2, "batch": 128, "fps": 20.5},
        ],
        "events": [[1.0, "crash", "n0"], [2.5, "recover", "n0"]],
    }

    def test_rows_format_cells_and_skip_zero_conditions(self):
        layout = Rows("T ({nodes} nodes)", (
            ("nodes", "nodes"),
            ("accuracy %", Round("accuracy", 2, scale=100)),
            ("nodes twice", "{nodes}/{nodes}"),
            If("unserved", ("unserved", "unserved")),
            If("grey", ("grey", "grey"), If("missing", ("never", "nodes"))),
            Named("counters"),
        ))
        assert render(layout, self.METRICS) == format_table(
            ["metric", "value"],
            [["nodes", 4], ["accuracy %", 98.77], ["nodes twice", "4/4"], ["grey", 3],
             ["kills", 1], ["lookups", 2500]],
            title="T (4 nodes)",
        )

    def test_columns_read_each_item(self):
        layout = Columns("", "points", (("n", "nodes"), ("fps", Round("fps"))))
        assert render(layout, self.METRICS) == format_table(
            ["n", "fps"], [[1, 10], [2, 3], [1, 1], [2, 20]]
        )

    def test_pivot_sorts_rows_and_columns(self):
        layout = Pivot("P", "points", row_header="servers", row="nodes", column="batch",
                       column_header="{batch} req", cell=Round("fps"))
        assert render(layout, self.METRICS) == format_series(
            "servers", [1, 2], {"1 req": [1, 3], "128 req": [10, 20]}, title="P"
        )

    def test_parts_bars_timeline_and_sections(self):
        metrics = {"shares": [{"name": "a", "share": 0.75}, {"name": "b", "share": 0.25}]}
        bars = Bars("B {total}", "shares", label="name", fraction="share")
        timeline = If("events", "", Timeline("events", "schedule: ", "t={0:g} {1} {2}"))
        layout = (bars, timeline, Section("inner", ("x={x}",)))
        text = render(layout, {**metrics, "total": 2, "events": self.METRICS["events"],
                               "inner": {"x": 7}})
        assert text == "\n".join([
            format_fraction_bar({"a": 0.75, "b": 0.25}, title="B 2"),
            "",
            "schedule: t=1 crash n0, t=2.5 recover n0",
            "x=7",
        ])
        assert render(layout, {**metrics, "total": 2, "events": [], "inner": {"x": 7}}) == (
            format_fraction_bar({"a": 0.75, "b": 0.25}, title="B 2") + "\nx=7"
        )
