"""Human-readable tables shaped like the paper's figures.

Each figure is a set of series (one per transport) over an x-axis
(message size or client count); :func:`format_latency_table` and
:func:`format_tps_table` print the rows the paper plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: The series every table compares the others against.
BASELINE = "UCR-IB"


def _fmt_size(nbytes: int) -> str:
    if nbytes >= 1024 and nbytes % 1024 == 0:
        return f"{nbytes // 1024}K"
    return str(nbytes)


@dataclass
class FigureSeries:
    """One line of a figure: a transport's values over the x-axis."""

    label: str
    x: list = field(default_factory=list)
    y: list = field(default_factory=list)

    def add(self, x, y) -> None:
        self.x.append(x)
        self.y.append(y)

    def value_at(self, x):
        try:
            return self.y[self.x.index(x)]
        except ValueError:
            raise KeyError(f"{self.label}: no point at x={x}") from None


def format_latency_table(title: str, sizes: list[int], series: list[FigureSeries]) -> str:
    """Rows: message size; columns: per-transport latency (+ratio)."""
    lines = [title, "=" * len(title)]
    header = f"{'size':>8} " + "".join(f"{s.label:>14}" for s in series)
    base = next((s for s in series if s.label == BASELINE), None)
    if base is not None and len(series) > 1:
        header += "   worst/UCR"
    lines.append(header)
    for size in sizes:
        row = f"{_fmt_size(size):>8} "
        values = []
        for s in series:
            v = s.value_at(size)
            values.append((s.label, v))
            row += f"{v:>13.1f} "
        if base is not None and len(series) > 1:
            others = [v for label, v in values if label != BASELINE]
            row += f"{max(others) / base.value_at(size):>10.1f}x"
        lines.append(row)
    lines.append("(latency in µs, lower is better)")
    return "\n".join(lines)


def format_tps_table(title: str, client_counts: list[int], series: list[FigureSeries]) -> str:
    """Rows: client count; columns: per-transport thousands of TPS."""
    lines = [title, "=" * len(title)]
    lines.append(f"{'clients':>8} " + "".join(f"{s.label:>14}" for s in series))
    base = next((s for s in series if s.label == BASELINE), None)
    for n in client_counts:
        row = f"{n:>8} "
        for s in series:
            row += f"{s.value_at(n) / 1000.0:>12.0f}K "
        if base is not None and len(series) > 1:
            others = [s.value_at(n) for s in series if s.label != BASELINE]
            row += f"  UCR/best-other: {base.value_at(n) / max(others):>5.1f}x"
        lines.append(row)
    lines.append("(thousands of aggregate transactions per second, higher is better)")
    return "\n".join(lines)
