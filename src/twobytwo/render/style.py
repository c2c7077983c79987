"""Style options and deterministic numeric/color formatting for figure output."""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal

Color = tuple[int, int, int]

BLACK: Color = (0, 0, 0)
GRAY: Color = (128, 128, 128)
LIGHT_GRAY: Color = (200, 200, 200)
WHITE: Color = (255, 255, 255)
PURPLE: Color = (128, 0, 128)   # correlated-equilibrium polytope
BLUE: Color = (0, 70, 220)      # Nash markers


@dataclass(frozen=True)
class StyleOptions:
    """Figure styling; defaults mirror the package-wide conventions.

    Player colors default to black (row) and gray (column).  The boolean
    toggles correspond to the `no axes labels` / `no tick labels` /
    `no best-response names` style switches.
    """

    size_pt: float = 120.0
    stroke_width_pt: float = 0.8
    player_colors: tuple[Color, Color] = (BLACK, GRAY)
    show_axes_labels: bool = True
    show_tick_labels: bool = True
    show_best_response_names: bool = True
    camera_azimuth_deg: float = -65.0
    camera_elevation_deg: float = 18.0

    def __post_init__(self) -> None:
        # Sizes and angles reach the output as numbers: a nan, inf or
        # nonpositive size would be written as is, so such values are refused.
        if not (math.isfinite(self.size_pt) and self.size_pt > 0):
            raise ValueError(f"size_pt must be finite and > 0, got {self.size_pt!r}")
        if not (math.isfinite(self.stroke_width_pt) and self.stroke_width_pt >= 0):
            raise ValueError(f"stroke_width_pt must be finite and >= 0, got {self.stroke_width_pt!r}")
        for name in ("camera_azimuth_deg", "camera_elevation_deg"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        # The backends key colors by value and format them as tuples, so
        # colors given as lists are stored as (r, g, b) tuples.
        object.__setattr__(self, "player_colors", tuple(tuple(color) for color in self.player_colors))


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
