"""Plain-text rendering of experiment results (tables and ASCII series).

Every preset states its table as a *layout* over its metric names (see
:mod:`repro.scenarios.presets`), and :func:`render` draws any layout from
a metrics mapping alone, so a run's JSON redraws its table.  A layout is
one of the parts below, or a plain tuple of parts drawn one per line; a
bare string part is a line template over the metrics.

A *cell* names what one table cell shows: a metric key (the value, in
:func:`format_table`'s number format), a ``str.format`` template over the
metrics (``"{redundancy:.1%}"``), or a :class:`Round`.
"""

from __future__ import annotations

from typing import (Any, Iterable, Iterator, List, Mapping, NamedTuple, Optional, Sequence,
                    Tuple, Union)

__all__ = ["format_table", "format_series", "format_fraction_bar", "render", "Round", "Rows",
           "Columns", "Pivot", "Bars", "Timeline", "Section", "Named", "If"]


def _format_cell(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:,.2f}"
        return f"{value:.4f}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def format_table(headers: Sequence[str], rows: Iterable[Sequence], title: str = "") -> str:
    """Render rows as a fixed-width text table."""
    rendered_rows: List[List[str]] = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [len(str(h)) for h in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            if index < len(widths):
                widths[index] = max(widths[index], len(cell))
            else:
                widths.append(len(cell))

    def _line(cells: Sequence[str]) -> str:
        return "  ".join(str(cell).rjust(widths[i]) for i, cell in enumerate(cells))

    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * max(len(title), sum(widths) + 2 * (len(widths) - 1)))
    lines.append(_line(list(headers)))
    lines.append(_line(["-" * width for width in widths]))
    lines.extend(_line(row) for row in rendered_rows)
    return "\n".join(lines)


def format_series(
    x_label: str,
    x_values: Sequence,
    series: dict,
    title: str = "",
) -> str:
    """Render multiple named series sharing an x axis as one table.

    ``series`` maps a series name to its list of y values (same length as
    ``x_values``).
    """
    headers = [x_label] + list(series.keys())
    rows = []
    for index, x in enumerate(x_values):
        row = [x]
        for values in series.values():
            row.append(values[index] if index < len(values) else "")
        rows.append(row)
    return format_table(headers, rows, title=title)


def format_fraction_bar(fractions: dict, width: int = 40, title: str = "") -> str:
    """Render a name->fraction mapping as labelled ASCII bars (Figure 6 style)."""
    lines: List[str] = []
    if title:
        lines.append(title)
    if not fractions:
        return "\n".join(lines + ["(empty)"])
    longest = max(len(str(name)) for name in fractions)
    for name, fraction in fractions.items():
        bar = "#" * max(0, round(fraction * width))
        lines.append(f"{str(name).ljust(longest)}  {fraction * 100:5.1f}%  {bar}")
    return "\n".join(lines)


# ------------------------------------------------------------------- layouts
class Round(NamedTuple):
    """The cell ``round(metrics[key] * scale, digits)``: an int when ``digits`` is None."""

    key: str
    digits: Optional[int] = None
    scale: float = 1


Cell = Union[str, Round]


def _cell(cell: Cell, values: Mapping[str, Any]) -> Any:
    if isinstance(cell, Round):
        return round(values[cell.key] * cell.scale, cell.digits)
    if "{" in cell:
        return cell.format_map(values)
    return values[cell]


class If:
    """Rows or parts drawn only where ``metrics[key]`` is present and non-zero."""

    def __init__(self, key: str, *items: Any) -> None:
        self.key = key
        self.items = items


def _expand(items: Iterable[Any], metrics: Mapping[str, Any]) -> Iterator[Any]:
    for item in items:
        if not isinstance(item, If):
            yield item
        elif metrics.get(item.key):
            yield from _expand(item.items, metrics)


class Named(NamedTuple):
    """A :class:`Rows` row per metric named in the list ``metrics[key]``, labelled by its name."""

    key: str


class Rows(NamedTuple):
    """A table of ``(label, cell, ...)`` rows, :class:`Named` rows and :class:`If` groups."""

    title: str
    rows: Sequence[Any]
    headers: Sequence[str] = ("metric", "value")

    def draw(self, metrics: Mapping[str, Any]) -> str:
        lines: List[List[Any]] = []
        for row in _expand(self.rows, metrics):
            if isinstance(row, Named):
                lines += [[name, metrics[name]] for name in metrics[row.key]]
            else:
                label, *cells = row
                lines.append([label] + [_cell(cell, metrics) for cell in cells])
        return format_table(self.headers, lines, title=self.title.format_map(metrics))


class Columns(NamedTuple):
    """A table line per item of the list ``metrics[over]``.

    Each ``(header, cell)`` column reads its cell off the item.
    """

    title: str
    over: str
    columns: Sequence[Tuple[str, Cell]]

    def draw(self, metrics: Mapping[str, Any]) -> str:
        return format_table(
            [header for header, _ in self.columns],
            [[_cell(cell, item) for _, cell in self.columns] for item in metrics[self.over]],
            title=self.title.format_map(metrics),
        )


class Pivot(NamedTuple):
    """The items of ``metrics[over]`` cross-tabulated by :func:`format_series`.

    A line per distinct ``row`` value (sorted), a column per distinct
    ``column`` value (sorted, headed ``column_header`` over that value), and
    ``cell`` of the item at each crossing: the items are a full grid.
    """

    title: str
    over: str
    row_header: str
    row: Cell
    column: str
    column_header: str
    cell: Cell

    def draw(self, metrics: Mapping[str, Any]) -> str:
        row_key = self.row.key if isinstance(self.row, Round) else self.row
        cells = {(item[row_key], item[self.column]): item for item in metrics[self.over]}
        rows = sorted({row for row, _ in cells})
        columns = sorted({column for _, column in cells})
        return format_series(
            self.row_header,
            [_cell(self.row, {row_key: row}) for row in rows],
            {
                self.column_header.format_map({self.column: column}): [
                    _cell(self.cell, cells[row, column]) for row in rows
                ]
                for column in columns
            },
            title=self.title.format_map(metrics),
        )


class Bars(NamedTuple):
    """:func:`format_fraction_bar` over the items of ``metrics[over]``."""

    title: str
    over: str
    label: str
    fraction: str

    def draw(self, metrics: Mapping[str, Any]) -> str:
        return format_fraction_bar(
            {item[self.label]: item[self.fraction] for item in metrics[self.over]},
            title=self.title.format_map(metrics),
        )


class Timeline(NamedTuple):
    """``prefix``, then the items of ``metrics[over]``, comma-joined.

    Each item is a sequence, drawn as ``template.format(*item)``.
    """

    over: str
    prefix: str
    template: str

    def draw(self, metrics: Mapping[str, Any]) -> str:
        return self.prefix + ", ".join(self.template.format(*item) for item in metrics[self.over])


class Section(NamedTuple):
    """``layout`` drawn from the nested metrics ``metrics[key]`` (a composite's part)."""

    key: str
    layout: Any

    def draw(self, metrics: Mapping[str, Any]) -> str:
        return render(self.layout, metrics[self.key])


def render(layout: Any, metrics: Mapping[str, Any]) -> str:
    """Draw ``layout`` -- one part, or a plain tuple of parts one per line -- from ``metrics``."""
    parts = layout if type(layout) is tuple else (layout,)
    return "\n".join(
        part.format_map(metrics) if isinstance(part, str) else part.draw(metrics)
        for part in _expand(parts, metrics)
    )
