"""Builders for every figure family, plus the format dispatch.

`_BUILDERS` is the one table from a `FigureKind` to its builder and payload
type: a `Game`, a `JointDistribution` or an `EmbeddingFigureData`.  The CLI
reads the payload type from it too.  Each builder draws its payload straight
into a `Scene` of primitives; `render_figure` serializes the scene through the
TikZ or SVG backend.  Primitives carry tags so tests (and SVG consumers) can
count semantic elements: "cce-edge", "ne-point", and so on.

`EmbeddingFigureData` checks its points and heatmap when it is built, so every
embedding payload that reaches a builder is finite and rectangular.
"""

from __future__ import annotations

import enum
import functools
import math
from fractions import Fraction
from itertools import chain
from typing import NamedTuple

from ..core import (
    Game,
    JointDistribution,
    MarginalPair,
    Player,
    _checked_make,
    conditional,
    marginals_from_joint,
    product_joint,
    format_rational,
)
from ..embedding import EmbeddingPoint
from ..equilibria import cce_polytope, nash_set
from ..graphs import BRGraph, br_graph, class_from_br_graph, ordinal_graph
from .canvas import ArrowLine, Circle, Heatmap, Line, Rect, Scene, Text, to_svg, to_tikz
from .geometry import HIDDEN_TETRA_EDGES, TETRA_EDGES, TETRAHEDRON, project, simplex_position
from .style import (
    BLACK,
    BLUE,
    GRAY,
    LIGHT_GRAY,
    PLAYER_COLORS,
    PURPLE,
    SIZE_PT,
    STROKE_WIDTH_PT,
    WHITE,
    StyleOptions,
    lerp_colors,
)


class UnsupportedFigureError(ValueError):
    """Raised for an unknown figure kind or an unsupported output format."""


class FigureKind(enum.Enum):
    ORD_GRAPH = "ordgraph"
    BR_GRAPH = "brgraph"
    PAYOFF_TABLE = "payoffs"
    JOINT = "joint"
    ROW_COND = "rowcond"
    COL_COND = "colcond"
    MARGINAL = "marginal"
    JOINT_MARGINAL = "jointmarginal"
    POLYTOPE = "polytope"
    EMBEDDING = "embedding"


class _EmbeddingFigureData(NamedTuple):
    points: tuple[tuple[float, float], ...] = ()
    heatmap: tuple[tuple[float, ...], ...] | None = None


class EmbeddingFigureData(_EmbeddingFigureData):
    """Raw plotting data: angle pairs in degrees plus an optional heatmap.

    Construction checks that every point is a finite pair and that the
    heatmap, if given, is a nonempty rectangular matrix of finite values.
    """

    __slots__ = ()

    def __new__(
        cls,
        points: tuple[tuple[float, float], ...] = (),
        heatmap: tuple[tuple[float, ...], ...] | None = None,
    ) -> EmbeddingFigureData:
        # Checked in bulk; the items are walked only to name the first bad one.
        isfinite = math.isfinite
        if heatmap is not None:
            if not heatmap or not heatmap[0] or len(set(map(len, heatmap))) != 1:
                raise ValueError("heatmap matrix must be rectangular and nonempty")
            if not all(map(isfinite, chain.from_iterable(heatmap))):
                value = next(v for v in chain.from_iterable(heatmap) if not isfinite(v))
                raise ValueError(f"non-finite heatmap value {value!r}")
        if not (set(map(len, points)) <= {2} and all(map(isfinite, chain.from_iterable(points)))):
            for point in points:
                if len(point) != 2:
                    raise ValueError(f"point {point!r} is not a (row angle, column angle) pair")
                if not (isfinite(point[0]) and isfinite(point[1])):
                    value = point[0] if not isfinite(point[0]) else point[1]
                    raise ValueError(f"non-finite point coordinate {value!r}")
        return tuple.__new__(cls, (points, heatmap))

    _make = classmethod(_checked_make)


class FigureSpec(NamedTuple):
    kind: FigureKind
    payload: object
    style: StyleOptions = StyleOptions()


# --- distribution glyphs --------------------------------------------------------


def _joint_cells(scene: Scene, dist: JointDistribution, cell, y0) -> None:
    """The four joint cells, shaded by probability, with the bottom row at `y0`."""
    for idx, fill in enumerate(lerp_colors(WHITE, BLACK, map(float, dist.prob))):
        r, c = divmod(idx, 2)
        scene.add(
            Rect(x=c * cell, y=y0 + (1 - r) * cell, w=cell, h=cell,
                 fill=fill, stroke=BLACK,
                 width=STROKE_WIDTH_PT, tag="joint-cell")
        )


def _build_joint(dist: JointDistribution, style: StyleOptions) -> Scene:
    s = SIZE_PT
    scene = Scene()
    _joint_cells(scene, dist, s / 2.0, 0.0)
    return scene


def _build_conditional(dist: JointDistribution, style: StyleOptions, player: Player) -> Scene:
    s = SIZE_PT
    cell = s / 2.0
    scene = Scene()
    color = PLAYER_COLORS[player.value]
    for which, row in enumerate(conditional(dist, player).rows):
        for other in range(2):
            r, c = (which, other) if player is Player.ROW else (other, which)
            if row is None:  # zero conditioning probability: nothing to shade
                fill, stroke, tag = WHITE, LIGHT_GRAY, "absent-cell"
            else:
                fill, stroke, tag = lerp_colors(WHITE, color, [float(row[other])])[0], BLACK, "cond-cell"
            scene.add(
                Rect(x=c * cell, y=(1 - r) * cell, w=cell, h=cell, fill=fill,
                     stroke=stroke, width=STROKE_WIDTH_PT, tag=tag)
            )
    return scene


def _build_marginal(dist: JointDistribution, style: StyleOptions, with_joint: bool = False) -> Scene:
    """Marginal bars right of and below the joint square, which is drawn only `with_joint`."""
    s = SIZE_PT
    bar = 0.22 * s
    joint_side = s - bar - 0.06 * s
    cell = joint_side / 2.0
    gap = 0.06 * joint_side
    scene = Scene()
    if with_joint:
        _joint_cells(scene, dist, cell, bar + gap)
    m = marginals_from_joint(dist)
    row_color, col_color = PLAYER_COLORS
    for r, fill in enumerate(lerp_colors(WHITE, row_color, map(float, (m.row_prob_a, 1 - m.row_prob_a)))):
        scene.add(
            Rect(x=joint_side + gap, y=bar + gap + (1 - r) * cell, w=bar, h=cell,
                 fill=fill, stroke=BLACK,
                 width=STROKE_WIDTH_PT, tag="marginal-row-cell")
        )
    for c, fill in enumerate(lerp_colors(WHITE, col_color, map(float, (m.col_prob_a, 1 - m.col_prob_a)))):
        scene.add(
            Rect(x=c * cell, y=0.0, w=cell, h=bar,
                 fill=fill, stroke=BLACK,
                 width=STROKE_WIDTH_PT, tag="marginal-col-cell")
        )
    return scene


# --- payoff table ----------------------------------------------------------------


def _build_payoff_table(game: Game, style: StyleOptions) -> Scene:
    s = SIZE_PT
    header = 0.18 * s
    side = s - header
    cell = side / 2.0
    scene = Scene()
    row_color, col_color = PLAYER_COLORS
    font = 0.11 * s

    for r in range(2):
        for c in range(2):
            x0, y0 = header + c * cell, (1 - r) * cell
            scene.add(
                Rect(x=x0, y=y0, w=cell, h=cell, fill=None, stroke=BLACK,
                     width=STROKE_WIDTH_PT, tag="payoff-cell")
            )
            cx, cy = x0 + cell / 2.0, y0 + cell / 2.0
            scene.add(
                Text(
                    x=cx - 0.05 * cell,
                    y=cy,
                    content=format_rational(game.row[2 * r + c]),
                    size=font,
                    color=row_color,
                    anchor="east",
                    tag="payoff-row",
                ),
                Text(
                    x=cx + 0.05 * cell,
                    y=cy,
                    content=format_rational(game.col[2 * r + c]),
                    size=font,
                    color=col_color,
                    anchor="west",
                    tag="payoff-col",
                ),
            )
    for idx, label in enumerate("AB"):
        scene.add(
            Text(
                x=header + idx * cell + cell / 2.0,
                y=side + header / 2.0,
                content=label,
                size=font,
                color=BLACK,
                anchor="center",
                tag="header",
            ),
            Text(
                x=header / 2.0,
                y=(1 - idx) * cell + cell / 2.0,
                content=label,
                size=font,
                color=BLACK,
                anchor="center",
                tag="header",
            ),
        )
    return scene


# --- preference graphs -------------------------------------------------------------


def _node_positions() -> tuple[tuple[float, float], ...]:
    pad = 0.16 * SIZE_PT
    hi, lo = SIZE_PT - pad, pad
    return ((lo, hi), (hi, hi), (lo, lo), (hi, lo))  # AA, AB, BA, BB


def _shorten(p1, p2, trim):
    dx, dy = p2[0] - p1[0], p2[1] - p1[1]
    norm = math.hypot(dx, dy) or 1.0
    ux, uy = dx / norm, dy / norm
    return (p1[0] + trim * ux, p1[1] + trim * uy), (p2[0] - trim * ux, p2[1] - trim * uy)


def _offset(p1, p2, amount):
    dx, dy = p2[0] - p1[0], p2[1] - p1[1]
    norm = math.hypot(dx, dy) or 1.0
    nx, ny = -dy / norm, dx / norm
    return (
        (p1[0] + amount * nx, p1[1] + amount * ny),
        (p2[0] + amount * nx, p2[1] + amount * ny),
    )


def _add_nodes(scene: Scene, positions) -> None:
    scene.add(Circle(centers=tuple(positions), r=0.035 * SIZE_PT, fill=LIGHT_GRAY, tag="node"))


def _build_ord_graph(game: Game, style: StyleOptions) -> Scene:
    s = SIZE_PT
    positions = _node_positions()
    scene = Scene()
    _add_nodes(scene, positions)
    trim = 0.055 * s
    for player in (Player.ROW, Player.COL):
        graph = ordinal_graph(game, player)
        sign = 1.0 if player is Player.ROW else -1.0
        color = PLAYER_COLORS[player.value]
        for lo, hi in graph.edges:
            a, b = _offset(positions[lo], positions[hi], sign * 0.02 * s)
            a, b = _shorten(a, b, trim)
            scene.add(
                ArrowLine(
                    x1=a[0], y1=a[1], x2=b[0], y2=b[1],
                    color=color,
                    width=STROKE_WIDTH_PT,
                    tag=f"ord-edge-{'row' if player is Player.ROW else 'col'}",
                )
            )
    return scene


def _build_br_graph(game: Game, style: StyleOptions) -> Scene:
    s = SIZE_PT
    positions = _node_positions()
    scene = Scene()
    _add_nodes(scene, positions)
    trim = 0.055 * s
    graph = br_graph(game)
    # (preference, cell where the chooser plays A, cell where they play B);
    # the arrow points to the preferred cell and is omitted on indifference.
    edges = (
        (graph.row_given_col_a, 0, 2),  # vertical, left column: AA <-> BA
        (graph.row_given_col_b, 1, 3),  # vertical, right column: AB <-> BB
        (graph.col_given_row_a, 0, 1),  # horizontal, top row: AA <-> AB
        (graph.col_given_row_b, 2, 3),  # horizontal, bottom row: BA <-> BB
    )
    for pref, cell_of_a, cell_of_b in edges:
        if pref == 0:
            continue
        src, dst = (cell_of_b, cell_of_a) if pref == 1 else (cell_of_a, cell_of_b)
        a, b = _shorten(positions[src], positions[dst], trim)
        scene.add(
            ArrowLine(
                x1=a[0], y1=a[1], x2=b[0], y2=b[1],
                color=BLACK,
                width=STROKE_WIDTH_PT * 1.4,
                tag="br-edge",
            )
        )
    return scene


# --- polytope ------------------------------------------------------------------------


def _fit_to_canvas(points_2d, size: float, margin: float):
    xs = [p[0] for p in points_2d]
    ys = [p[1] for p in points_2d]
    span = max(max(xs) - min(xs), max(ys) - min(ys)) or 1.0
    scale = (size - 2 * margin) / span
    x0, y0 = min(xs), min(ys)
    offx = (size - (max(xs) - x0) * scale) / 2.0
    offy = (size - (max(ys) - y0) * scale) / 2.0

    def place(point):
        return ((point[0] - x0) * scale + offx, (point[1] - y0) * scale + offy)

    return place


# The canvas map of the projected simplex, and the canvas positions of its corners.
_PLACE = _fit_to_canvas([project(v) for v in TETRAHEDRON], SIZE_PT, 0.12 * SIZE_PT)
_CORNERS = tuple(_PLACE(project(v)) for v in TETRAHEDRON)

# Where a full 2D Nash component draws its iso-probability rules, both ways.
_ISO_FRACTIONS = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))


def _build_polytope(game: Game, style: StyleOptions) -> Scene:
    s = SIZE_PT
    width = STROKE_WIDTH_PT
    scene = Scene()

    def at(prob) -> tuple[float, float]:
        return _PLACE(project(simplex_position(tuple(float(x) for x in prob))))

    def at_marginals(p: Fraction, q: Fraction) -> tuple[float, float]:
        return at(product_joint(MarginalPair(p, q)).prob)

    def line(a, b, color, line_width, tag, dashed=False) -> None:
        scene.add(Line(x1=a[0], y1=a[1], x2=b[0], y2=b[1], color=color,
                       width=line_width, dashed=dashed, tag=tag))

    for i, j in TETRA_EDGES:
        if (i, j) in HIDDEN_TETRA_EDGES:
            line(_CORNERS[i], _CORNERS[j], LIGHT_GRAY, width * 0.8, "tetra-edge-hidden", dashed=True)

    polytope = cce_polytope(game)
    vertex_xy = [at(v.prob) for v in polytope.vertices]
    for i, j in polytope.edges:
        line(vertex_xy[i], vertex_xy[j], PURPLE, width * 1.4, "cce-edge")
    scene.add(Circle(centers=tuple(vertex_xy), r=0.016 * s, fill=PURPLE, tag="cce-vertex"))

    for box in nash_set(game).components:
        if box.is_point:
            scene.add(Circle(centers=(at_marginals(box.p_low, box.q_low),), r=0.019 * s,
                             fill=BLUE, tag="ne-point"))
        elif box.is_segment:
            line(at_marginals(box.p_low, box.q_low), at_marginals(box.p_high, box.q_high),
                 BLUE, width * 1.2, "ne-segment", dashed=True)
        else:
            for t in _ISO_FRACTIONS:
                p = box.p_low + t * (box.p_high - box.p_low)
                line(at_marginals(p, box.q_low), at_marginals(p, box.q_high),
                     BLUE, width * 0.9, "ne-surface", dashed=True)
                q = box.q_low + t * (box.q_high - box.q_low)
                line(at_marginals(box.p_low, q), at_marginals(box.p_high, q),
                     BLUE, width * 0.9, "ne-surface", dashed=True)

    for i, j in TETRA_EDGES:
        if (i, j) not in HIDDEN_TETRA_EDGES:
            line(_CORNERS[i], _CORNERS[j], BLACK, width, "tetra-edge")

    if style.show_axes_labels:
        center_x = sum(c[0] for c in _CORNERS) / 4.0
        center_y = sum(c[1] for c in _CORNERS) / 4.0
        for label, (x, y) in zip(("AA", "AB", "BA", "BB"), _CORNERS):
            dx, dy = x - center_x, y - center_y
            norm = math.hypot(dx, dy) or 1.0
            scene.add(
                Text(
                    x=x + 0.07 * s * dx / norm,
                    y=y + 0.07 * s * dy / norm,
                    content=label,
                    size=0.07 * s,
                    color=BLACK,
                    anchor="center",
                    tag="corner-label",
                )
            )
    return scene


# --- embedding -----------------------------------------------------------------------


#: One player's two best-response edges in each quadrant of the angle plane:
#: the signs of the direction's components there.
_QUADRANT_PREFS = ((1, 1), (-1, 1), (-1, -1), (1, -1))


def _cell_class_name(xq: int, yq: int) -> str:
    return class_from_br_graph(BRGraph(*_QUADRANT_PREFS[xq], *_QUADRANT_PREFS[yq])).name


def _build_embedding(data: EmbeddingFigureData, style: StyleOptions) -> Scene:
    s = SIZE_PT
    margin = 0.14 * s
    plot = s - margin - 0.06 * s
    scene = Scene()

    def at(ax: float, ay: float) -> tuple[float, float]:
        return (margin + ax / 360.0 * plot, margin + ay / 360.0 * plot)

    if data.heatmap is not None:
        rows = data.heatmap
        values = [v for row in rows for v in row]
        low, high = min(values), max(values)
        if not math.isfinite(high - low):
            # high - low overflows a float: halving every value is exact and keeps each t.
            values = [v / 2 for v in values]
            low, high = low / 2, high / 2
        span = high - low
        ts = [0.5] * len(values) if high == low else ((value - low) / span for value in values)
        fills = tuple(lerp_colors(WHITE, PURPLE, ts))
        n_rows, n_cols = len(rows), len(rows[0])
        scene.add(
            Heatmap(
                x=margin,
                top=margin + plot,  # first matrix row on top
                cell_w=plot / n_cols,
                cell_h=plot / n_rows,
                cols=n_cols,
                fills=fills,
                tag="heatmap-cell",
            )
        )

    for angle in (90.0, 180.0, 270.0):
        x0, y0 = at(angle, 0.0)
        x1, y1 = at(angle, 360.0)
        scene.add(
            Line(x1=x0, y1=y0, x2=x1, y2=y1, color=LIGHT_GRAY,
                 width=STROKE_WIDTH_PT * 0.6, tag="grid"),
            Line(x1=at(0.0, angle)[0], y1=at(0.0, angle)[1],
                 x2=at(360.0, angle)[0], y2=at(360.0, angle)[1],
                 color=LIGHT_GRAY, width=STROKE_WIDTH_PT * 0.6, tag="grid"),
        )
    scene.add(
        Rect(x=margin, y=margin, w=plot, h=plot, fill=None, stroke=BLACK,
             width=STROKE_WIDTH_PT, tag="frame")
    )

    tick_len = 0.015 * s
    for angle in (0.0, 90.0, 180.0, 270.0, 360.0):
        x, _ = at(angle, 0.0)
        scene.add(Line(x1=x, y1=margin, x2=x, y2=margin - tick_len,
                       color=BLACK, width=STROKE_WIDTH_PT * 0.8, tag="tick"))
        _, y = at(0.0, angle)
        scene.add(Line(x1=margin, y1=y, x2=margin - tick_len, y2=y,
                       color=BLACK, width=STROKE_WIDTH_PT * 0.8, tag="tick"))
        if style.show_tick_labels:
            label = str(int(angle))
            scene.add(
                Text(x=x, y=margin - tick_len - 0.01 * s, content=label,
                     size=0.05 * s, color=BLACK, anchor="north", tag="tick-label"),
                Text(x=margin - tick_len - 0.01 * s, y=y, content=label,
                     size=0.05 * s, color=BLACK, anchor="east", tag="tick-label"),
            )

    if style.show_axes_labels:
        scene.add(
            Text(x=margin + plot / 2.0, y=margin - 0.08 * s, content="row angle (deg)",
                 size=0.055 * s, color=BLACK, anchor="north", tag="axis-label"),
            Text(x=margin + plot / 2.0, y=margin + plot + 0.015 * s,
                 content="column angle (deg)", size=0.055 * s, color=BLACK,
                 anchor="south", tag="axis-label"),
        )

    if style.show_best_response_names:
        for xq in range(4):
            for yq in range(4):
                x, y = at(45.0 + 90.0 * xq, 45.0 + 90.0 * yq)
                scene.add(
                    Text(x=x, y=y, content=_cell_class_name(xq, yq),
                         size=0.038 * s, color=GRAY, anchor="center", tag="class-name")
                )

    if data.points:
        centers = tuple([(margin + ax % 360.0 / 360.0 * plot, margin + ay % 360.0 / 360.0 * plot)
                         for ax, ay in data.points])  # at(ax % 360.0, ay % 360.0), inlined
        scene.add(Circle(centers=centers, r=0.016 * s, fill=BLUE, tag="embed-point"))
    return scene


# --- dispatch ------------------------------------------------------------------------

_BUILDERS = {
    FigureKind.ORD_GRAPH: (_build_ord_graph, Game),
    FigureKind.BR_GRAPH: (_build_br_graph, Game),
    FigureKind.PAYOFF_TABLE: (_build_payoff_table, Game),
    FigureKind.JOINT: (_build_joint, JointDistribution),
    FigureKind.ROW_COND: (functools.partial(_build_conditional, player=Player.ROW), JointDistribution),
    FigureKind.COL_COND: (functools.partial(_build_conditional, player=Player.COL), JointDistribution),
    FigureKind.MARGINAL: (_build_marginal, JointDistribution),
    FigureKind.JOINT_MARGINAL: (functools.partial(_build_marginal, with_joint=True), JointDistribution),
    FigureKind.POLYTOPE: (_build_polytope, Game),
    FigureKind.EMBEDDING: (_build_embedding, EmbeddingFigureData),
}

FORMATS = ("tikz", "svg")


def build_scene(spec: FigureSpec) -> Scene:
    try:
        builder, payload_type = _BUILDERS[spec.kind]
    except KeyError:
        raise UnsupportedFigureError(f"unknown figure kind {spec.kind!r}") from None
    if not isinstance(spec.payload, payload_type):
        raise TypeError(
            f"figure kind {spec.kind.value!r} needs a {payload_type.__name__} payload, "
            f"got {type(spec.payload).__name__}"
        )
    return builder(spec.payload, spec.style)


def render_figure(spec: FigureSpec, format: str) -> str:
    """Serialize one figure; deterministic, byte-identical for identical inputs."""
    if format not in FORMATS:
        raise UnsupportedFigureError(
            f"unsupported format {format!r} for kind {spec.kind.value!r}"
        )
    scene = build_scene(spec)
    return to_tikz(scene) if format == "tikz" else to_svg(scene)


def angle_pairs(points) -> tuple[tuple[float, float], ...]:
    """(row angle, column angle) pairs in degrees, one per point that has both angles.

    An `EmbeddingPoint` with a trivial player has no angle and is skipped; any
    other item is taken as a raw pair of numbers.
    """
    pairs = []
    for point in points:
        if isinstance(point, EmbeddingPoint):
            point = (point.row_angle_degrees, point.col_angle_degrees)
            if None in point:
                continue
        pairs.append(tuple(map(float, point)))
    return tuple(pairs)


def render_embedding(
    points,
    heatmap=None,
    style: StyleOptions = StyleOptions(),
    format: str = "svg",
) -> str:
    """Render embedding points (trivial players are skipped) over an optional heatmap.

    `points` may mix EmbeddingPoint objects and raw (row angle, column angle)
    pairs in degrees.
    """
    if heatmap is not None:
        heatmap = tuple(tuple(float(v) for v in row) for row in heatmap)
    data = EmbeddingFigureData(points=angle_pairs(points), heatmap=heatmap)
    return render_figure(FigureSpec(FigureKind.EMBEDDING, data, style), format)
