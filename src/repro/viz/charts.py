"""ASCII charts for terminal reports.

The benchmark suite prints tables; these helpers add quick visual shape
checks — an error-decay curve or a speedup curve reads much faster as a
plot.  Pure text, fixed-width, no dependencies.
"""

from __future__ import annotations

import math
import string

__all__ = ["line_chart", "bar_chart", "sparkline"]

_SPARK_LEVELS = "▁▂▃▄▅▆▇█"


def sparkline(values: list[float]) -> str:
    """A one-line sparkline of ``values`` (empty input gives '')."""
    finite = [v for v in values if math.isfinite(v)]
    if not finite:
        return ""
    lo, hi = min(finite), max(finite)
    span = hi - lo
    chars = []
    for v in values:
        if not math.isfinite(v):
            chars.append("?")
            continue
        f = 0.0 if span == 0 else (v - lo) / span
        chars.append(_SPARK_LEVELS[min(len(_SPARK_LEVELS) - 1, int(f * len(_SPARK_LEVELS)))])
    return "".join(chars)


def bar_chart(
    labels: list[str],
    values: list[float],
    width: int = 40,
    title: str | None = None,
    unit: str = "",
) -> str:
    """Horizontal bar chart: one row per (label, value).

    Raises:
        ValueError: if labels and values differ in length.
    """
    if len(labels) != len(values):
        raise ValueError("labels and values must align")
    lines = [title] if title else []
    if not values:
        return "\n".join(lines)
    peak = max((v for v in values if math.isfinite(v)), default=0.0)
    label_width = max((len(l) for l in labels), default=0)
    for label, value in zip(labels, values):
        if not math.isfinite(value):
            bar, shown = "?", "inf"
        else:
            length = 0 if peak <= 0 else int(round(width * value / peak))
            bar = "#" * max(length, 1 if value > 0 else 0)
            shown = f"{value:.4g}{unit}"
        lines.append(f"{label.rjust(label_width)} | {bar} {shown}")
    return "\n".join(lines)


def line_chart(
    xs: list[float],
    series: dict[str, list[float]],
    height: int = 12,
    width: int = 60,
    title: str | None = None,
    log_y: bool = False,
) -> str:
    """Multi-series scatter/line chart on a character grid.

    Each series is plotted with its own marker: the first character of
    its name that no earlier series took (a letter or digit outside the
    name when every character of it is taken).
    ``log_y`` plots log10(y), useful for the exponential error decays the
    paper's figures show.

    Raises:
        ValueError: on empty input or misaligned series.
    """
    if not xs or not series:
        raise ValueError("line_chart needs xs and at least one series")
    for name, ys in series.items():
        if len(ys) != len(xs):
            raise ValueError(f"series {name!r} length mismatch")

    def transform(v: float) -> float:
        if log_y:
            return math.log10(max(v, 1e-12))
        return v

    points = {
        name: [transform(v) for v in ys] for name, ys in series.items()
    }
    all_y = [v for ys in points.values() for v in ys if math.isfinite(v)]
    y_lo, y_hi = min(all_y), max(all_y)
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    x_lo, x_hi = min(xs), max(xs)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0

    markers: dict[str, str] = {}
    for name in series:
        taken = set(markers.values())
        markers[name] = next(
            c
            for c in name + string.ascii_letters + string.digits
            if not c.isspace() and c not in taken
        )

    grid = [[" "] * width for _ in range(height)]
    for name, ys in points.items():
        marker = markers[name]
        for x, y in zip(xs, ys):
            if not math.isfinite(y):
                continue
            col = int((x - x_lo) / (x_hi - x_lo) * (width - 1))
            row = int((y_hi - y) / (y_hi - y_lo) * (height - 1))
            grid[row][col] = marker

    lines = [title] if title else []
    top = f"{(10 ** y_hi if log_y else y_hi):.3g}"
    bottom = f"{(10 ** y_lo if log_y else y_lo):.3g}"
    gutter = max(len(top), len(bottom))
    for i, row in enumerate(grid):
        label = top if i == 0 else bottom if i == height - 1 else ""
        lines.append(f"{label.rjust(gutter)} |{''.join(row)}")
    axis = f"{'':>{gutter}} +{'-' * width}"
    lines.append(axis)
    lines.append(f"{'':>{gutter}}  {x_lo:<10.4g}{'':^{max(0, width - 22)}}{x_hi:>10.4g}")
    legend = "   ".join(f"{markers[name]}={name}" for name in series)
    lines.append(f"{'':>{gutter}}  {legend}")
    return "\n".join(lines)
