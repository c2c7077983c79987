"""A tiny retained scene of drawing primitives with TikZ and SVG backends.

Scenes use y-up coordinates in points on the `SIZE_PT` square; backends
translate.  Output is fully deterministic: primitives are emitted in insertion
order, colors are named by their hex value, and all numbers go through the
fixed 6-significant-digit formatter.

Two primitives stand for many drawn elements.  A `Heatmap` is a grid of
filled cells and a `Circle` holds any number of centres with one radius and
fill.  Each backend expands them into one element per cell or centre, in
order, formatting each grid column, grid row, size and paint only once.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Union

from .style import SIZE_PT, Color, fmt, hex_color


class Line(NamedTuple):
    x1: float
    y1: float
    x2: float
    y2: float
    color: Color
    width: float
    dashed: bool = False
    tag: str = ""


class ArrowLine(NamedTuple):
    x1: float
    y1: float
    x2: float
    y2: float
    color: Color
    width: float
    tag: str = ""


class Rect(NamedTuple):
    """Axis-aligned rectangle with lower-left corner (x, y)."""

    x: float
    y: float
    w: float
    h: float
    fill: Color | None
    stroke: Color | None = None
    width: float = 0.0
    tag: str = ""


class Heatmap(NamedTuple):
    """A grid of unstroked cells, `cols` to a row, filled in row-major order.

    The first row is on top: cell (r, c) has its lower-left corner at
    (x + c * cell_w, top - (r + 1) * cell_h).
    """

    x: float
    top: float
    cell_w: float
    cell_h: float
    cols: int
    fills: tuple[Color, ...]
    tag: str = ""


class Circle(NamedTuple):
    """Filled circles of one radius, one per centre."""

    centers: tuple[tuple[float, float], ...]
    r: float
    fill: Color | None
    tag: str = ""


class Text(NamedTuple):
    x: float
    y: float
    content: str
    size: float
    color: Color
    anchor: str = "center"  # center, west, east, north, south
    tag: str = ""


Primitive = Union[Line, ArrowLine, Rect, Heatmap, Circle, Text]


class Scene:
    """The primitives of one figure, in drawing order."""

    def __init__(self, prims: list[Primitive] | None = None) -> None:
        self.prims = [] if prims is None else prims

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.prims == other.prims

    def __repr__(self) -> str:
        return f"Scene(prims={self.prims!r})"

    def add(self, *prims: Primitive) -> None:
        self.prims.extend(prims)


def _arrow_head(x1: float, y1: float, x2: float, y2: float, width: float):
    """Triangle head at (x2, y2) plus the shortened shaft end point."""
    dx, dy = x2 - x1, y2 - y1
    length = math.hypot(dx, dy) or 1.0
    ux, uy = dx / length, dy / length
    head = 3.0 + 2.5 * width
    half = 0.42 * head
    bx, by = x2 - head * ux, y2 - head * uy
    left = (bx - half * uy, by + half * ux)
    right = (bx + half * uy, by - half * ux)
    return (bx, by), ((x2, y2), left, right)


# --- SVG ----------------------------------------------------------------------

_SVG_ANCHOR = {
    "center": ('middle', "0.35em"),
    "west": ("start", "0.35em"),
    "east": ("end", "0.35em"),
    "north": ("middle", "0.95em"),
    "south": ("middle", "-0.25em"),
}


def _svg_escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def to_svg(scene: Scene) -> str:
    h = SIZE_PT

    def y(v: float) -> float:
        return h - v

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{fmt(h)}pt" '
        f'height="{fmt(h)}pt" viewBox="0 0 {fmt(h)} {fmt(h)}">',
    ]

    def attr_class(tag: str) -> str:
        return f' class="{tag}"' if tag else ""

    def paint(fill: Color | None, stroke: Color | None, width: float) -> str:
        parts = [f'fill="{"#" + hex_color(fill) if fill else "none"}"']
        if stroke is not None:
            parts.append(f'stroke="#{hex_color(stroke)}" stroke-width="{fmt(width)}"')
        return " ".join(parts)

    for prim in scene.prims:
        if isinstance(prim, Line):
            dash = ' stroke-dasharray="3 2"' if prim.dashed else ""
            out.append(
                f'<line x1="{fmt(prim.x1)}" y1="{fmt(y(prim.y1))}" x2="{fmt(prim.x2)}" '
                f'y2="{fmt(y(prim.y2))}" stroke="#{hex_color(prim.color)}" '
                f'stroke-width="{fmt(prim.width)}"{dash}{attr_class(prim.tag)}/>'
            )
        elif isinstance(prim, ArrowLine):
            (bx, by), head = _arrow_head(prim.x1, prim.y1, prim.x2, prim.y2, prim.width)
            out.append(
                f'<line x1="{fmt(prim.x1)}" y1="{fmt(y(prim.y1))}" x2="{fmt(bx)}" '
                f'y2="{fmt(y(by))}" stroke="#{hex_color(prim.color)}" '
                f'stroke-width="{fmt(prim.width)}"{attr_class(prim.tag)}/>'
            )
            pts = " ".join(f"{fmt(px)},{fmt(y(py))}" for px, py in head)
            out.append(f'<polygon points="{pts}" fill="#{hex_color(prim.color)}"/>')
        elif isinstance(prim, Rect):
            out.append(
                f'<rect x="{fmt(prim.x)}" y="{fmt(y(prim.y + prim.h))}" '
                f'width="{fmt(prim.w)}" height="{fmt(prim.h)}" '
                f"{paint(prim.fill, prim.stroke, prim.width)}{attr_class(prim.tag)}/>"
            )
        elif isinstance(prim, Heatmap):
            cw, ch, cols = prim.cell_w, prim.cell_h, prim.cols
            xs = [fmt(prim.x + c * cw) for c in range(cols)]
            size = f'width="{fmt(cw)}" height="{fmt(ch)}" '
            cls = attr_class(prim.tag)
            tail = {fill: f'fill="#{hex_color(fill)}"{cls}/>' for fill in set(prim.fills)}
            for r in range(len(prim.fills) // cols):
                row_y = prim.top - (r + 1) * ch
                middle = f'" y="{fmt(y(row_y + ch))}" {size}'
                row = prim.fills[r * cols:(r + 1) * cols]
                out.extend([f'<rect x="{x}{middle}{tail[fill]}' for x, fill in zip(xs, row)])
        elif isinstance(prim, Circle):
            tail = f'" r="{fmt(prim.r)}" {paint(prim.fill, None, 0.0)}{attr_class(prim.tag)}/>'
            out.extend(
                [f'<circle cx="{fmt(cx)}" cy="{fmt(h - cy)}{tail}' for cx, cy in prim.centers]
            )
        elif isinstance(prim, Text):
            anchor, dy = _SVG_ANCHOR[prim.anchor]
            out.append(
                f'<text x="{fmt(prim.x)}" y="{fmt(y(prim.y))}" dy="{dy}" '
                f'font-size="{fmt(prim.size)}" text-anchor="{anchor}" '
                f'fill="#{hex_color(prim.color)}"{attr_class(prim.tag)}>'
                f"{_svg_escape(prim.content)}</text>"
            )
        else:  # new primitive types must be wired up here
            raise TypeError(f"unknown primitive {prim!r}")
    out.append("</svg>")
    return "\n".join(out) + "\n"


# --- TikZ ---------------------------------------------------------------------

_TIKZ_ESCAPES = {"%": r"\%", "&": r"\&", "#": r"\#", "_": r"\_"}


def _tikz_escape(text: str) -> str:
    return "".join(_TIKZ_ESCAPES.get(ch, ch) for ch in text)


def to_tikz(scene: Scene) -> str:
    out = []
    names: dict[Color, str] = {}  # every color drawn with, named on first use

    def cname(color: Color) -> str:
        name = names.get(color)
        if name is None:
            name = names[color] = f"c{hex_color(color)}"
        return name

    def path_options(fill: Color | None, stroke: Color | None, width: float) -> str:
        opts = []
        if fill is not None:
            opts.append(f"fill={cname(fill)}")
        if stroke is not None:
            opts.append(f"draw={cname(stroke)}")
            opts.append(f"line width={fmt(width)}pt")
        return ",".join(opts)

    for prim in scene.prims:
        if isinstance(prim, Line):
            dash = ",dashed" if prim.dashed else ""
            out.append(
                rf"\draw[color={cname(prim.color)},line width={fmt(prim.width)}pt{dash}] "
                rf"({fmt(prim.x1)},{fmt(prim.y1)}) -- ({fmt(prim.x2)},{fmt(prim.y2)});"
            )
        elif isinstance(prim, ArrowLine):
            out.append(
                rf"\draw[->,color={cname(prim.color)},line width={fmt(prim.width)}pt] "
                rf"({fmt(prim.x1)},{fmt(prim.y1)}) -- ({fmt(prim.x2)},{fmt(prim.y2)});"
            )
        elif isinstance(prim, Rect):
            out.append(
                rf"\path[{path_options(prim.fill, prim.stroke, prim.width)}] "
                rf"({fmt(prim.x)},{fmt(prim.y)}) rectangle "
                rf"({fmt(prim.x + prim.w)},{fmt(prim.y + prim.h)});"
            )
        elif isinstance(prim, Heatmap):
            cw, ch, cols = prim.cell_w, prim.cell_h, prim.cols
            spans = [(fmt(x), fmt(x + cw)) for x in (prim.x + c * cw for c in range(cols))]
            head = {fill: rf"\path[fill={cname(fill)}] (" for fill in dict.fromkeys(prim.fills)}
            for r in range(len(prim.fills) // cols):
                row_y = prim.top - (r + 1) * ch
                low, high = fmt(row_y), fmt(row_y + ch)
                row = prim.fills[r * cols:(r + 1) * cols]
                out.extend([
                    f"{head[fill]}{x0},{low}) rectangle ({x1},{high});"
                    for (x0, x1), fill in zip(spans, row)
                ])
        elif isinstance(prim, Circle):
            head = rf"\path[{path_options(prim.fill, None, 0.0)}] ("
            tail = f") circle[radius={fmt(prim.r)}];"
            out.extend([f"{head}{fmt(cx)},{fmt(cy)}{tail}" for cx, cy in prim.centers])
        elif isinstance(prim, Text):
            size = fmt(prim.size)
            baseline = fmt(prim.size * 1.2)
            out.append(
                rf"\node[anchor={prim.anchor},text={cname(prim.color)},inner sep=1pt,"
                rf"font=\fontsize{{{size}}}{{{baseline}}}\selectfont] "
                rf"at ({fmt(prim.x)},{fmt(prim.y)}) {{{_tikz_escape(prim.content)}}};"
            )
        else:
            raise TypeError(f"unknown primitive {prim!r}")
    head = [r"\begin{tikzpicture}[x=1pt,y=1pt,line cap=round,line join=round]"]
    head += [rf"\definecolor{{{name}}}{{RGB}}{{{r},{g},{b}}}" for (r, g, b), name in names.items()]
    return "\n".join(head + out + [r"\end{tikzpicture}"]) + "\n"
