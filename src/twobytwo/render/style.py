"""The fixed figure style, its annotation toggles, and deterministic numeric/color formatting."""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal

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


@dataclass(frozen=True)
class StyleOptions:
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


def shade(color: Color, probability: float) -> Color:
    """Linear shade: probability 0 is white, 1 is the full color."""
    t = min(max(probability, 0.0), 1.0)
    return tuple(round(255 - t * (255 - channel)) for channel in color)


def lerp_color(low: Color, high: Color, t: float) -> Color:
    t = 0.0 if t < 0.0 else 1.0 if t > 1.0 else t  # NaN passes, as through min/max
    r0, g0, b0 = low
    r1, g1, b1 = high
    return (round(r0 + t * (r1 - r0)), round(g0 + t * (g1 - g0)), round(b0 + t * (b1 - b0)))


def hex_color(color: Color) -> str:
    return "%02x%02x%02x" % color
