"""The fixed figure style, its annotation toggles, and deterministic numeric/color formatting."""

from __future__ import annotations

from collections.abc import Iterable
from decimal import Decimal
from typing import NamedTuple

Color = tuple[int, int, int]

BLACK: Color = (0, 0, 0)
GRAY: Color = (128, 128, 128)
LIGHT_GRAY: Color = (200, 200, 200)
WHITE: Color = (255, 255, 255)
PURPLE: Color = (128, 0, 128)   # correlated-equilibrium polytope
BLUE: Color = (0, 70, 220)      # Nash markers


# Every figure is drawn in one size, stroke width and pair of player colors
# (black for the row player, gray for the column player).
SIZE_PT = 120.0
STROKE_WIDTH_PT = 0.8
PLAYER_COLORS: tuple[Color, Color] = (BLACK, GRAY)


class StyleOptions(NamedTuple):
    """The three annotation toggles of a figure, set by the CLI's
    `--no-axes-labels`, `--no-tick-labels` and `--no-best-response-names`."""

    show_axes_labels: bool = True
    show_tick_labels: bool = True
    show_best_response_names: bool = True


def fmt(value: float) -> str:
    """Format with 6 significant digits, decimal notation, no trailing zeros."""
    if -1e-9 < value < 1e-9:
        return "0"
    text = f"{value:.6g}"
    if "e" in text:  # the "g" presentation writes its exponent in lower case
        text = format(Decimal(text), "f")
    return text


def lerp_colors(low: Color, high: Color, ts: Iterable[float]) -> list[Color]:
    """The color at each t of `ts` on the line from `low` (t <= 0) to `high` (t >= 1)."""
    r0, g0, b0 = low
    dr, dg, db = high[0] - r0, high[1] - g0, high[2] - b0
    return [
        (round(r0 + c * dr), round(g0 + c * dg), round(b0 + c * db))
        for t in ts
        for c in [0.0 if t < 0.0 else 1.0 if t > 1.0 else t]  # NaN passes, as through min/max
    ]


def hex_color(color: Color) -> str:
    return "%02x%02x%02x" % color
