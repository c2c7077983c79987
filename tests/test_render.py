import itertools
import math
import os
import random
import re
import xml.etree.ElementTree as ET
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path

import pytest

from twobytwo import verify
from twobytwo.core import MarginalPair, game_from_flat, joint, product_joint
from twobytwo.embedding import embed
from twobytwo.equilibria import cce_polytope, nash_set
from twobytwo.render import (
    EmbeddingFigureData,
    FigureKind,
    FigureSpec,
    StyleOptions,
    UnsupportedFigureError,
    build_scene,
    canvas,
    figures,
    load_matrix,
    load_points,
    render_embedding,
    render_figure,
)
from twobytwo.render.canvas import ArrowLine, Circle, Heatmap, Line, Rect, Text
from twobytwo.render.figures import _ISO_FRACTIONS, _fit_to_canvas
from twobytwo.render.geometry import HIDDEN_TETRA_EDGES, TETRAHEDRON, project, simplex_position
from twobytwo.render.style import (
    BLACK,
    BLUE,
    PURPLE,
    SIZE_PT,
    WHITE,
    fmt,
    hex_color,
    lerp_colors,
)

from conftest import (
    ALL_ZERO,
    COORDINATION,
    MATCHING_PENNIES,
    SAFETY,
    HORSEPLAY,
    TABLE_JOINT,
    count_drawn,
    golden_specs,
    tagged,
)

GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.mark.parametrize("format,suffix", [("svg", "svg"), ("tikz", "tex")])
@pytest.mark.parametrize("kind", list(FigureKind))
def test_golden_byte_equality(kind, format, suffix):
    payload = golden_specs()[kind]
    text = render_figure(FigureSpec(kind, payload), format)
    path = GOLDEN_DIR / f"{kind.value}.{suffix}"
    if os.environ.get("TWOBYTWO_REGEN_GOLDEN"):
        path.write_text(text, encoding="utf-8")
    assert path.read_text(encoding="utf-8") == text


@pytest.mark.parametrize("format,suffix", [("svg", "svg"), ("tikz", "tex")])
@pytest.mark.parametrize("kind", [FigureKind.ROW_COND, FigureKind.COL_COND])
def test_absent_cell_golden_byte_equality(kind, format, suffix):
    """A joint with a zero-probability row and column: each conditional
    figure draws the two cells of its absent distribution unshaded."""
    spec = FigureSpec(kind, joint((1, 0, 0, 0)))
    assert count_drawn(build_scene(spec), "absent-cell") == 2
    text = render_figure(spec, format)
    path = GOLDEN_DIR / f"{kind.value}-absent.{suffix}"
    if os.environ.get("TWOBYTWO_REGEN_GOLDEN"):
        path.write_text(text, encoding="utf-8")
    assert path.read_text(encoding="utf-8") == text


def test_rendering_is_deterministic_across_threads():
    spec = FigureSpec(FigureKind.POLYTOPE, game_from_flat(COORDINATION))
    reference = render_figure(spec, "svg")
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: render_figure(spec, "svg"), range(16)))
    assert all(r == reference for r in results)
    assert render_figure(spec, "svg") == reference


def test_all_svg_goldens_well_formed():
    for path in sorted(GOLDEN_DIR.glob("*.svg")):
        ET.fromstring(path.read_text(encoding="utf-8"))


def test_random_polytope_svgs_well_formed():
    import random

    rng = random.Random(31)
    for _ in range(12):
        ET.fromstring(render_figure(FigureSpec(FigureKind.POLYTOPE, verify.random_game(rng)), "svg"))


def _balanced(text: str) -> bool:
    if text.count("{") != text.count("}"):
        return False
    begins = text.count(r"\begin{")
    ends = text.count(r"\end{")
    return begins == ends == 1 and text.lstrip().startswith(r"\begin{tikzpicture}")


def test_tikz_goldens_balanced():
    for path in sorted(GOLDEN_DIR.glob("*.tex")):
        assert _balanced(path.read_text(encoding="utf-8"))


# --- geometry faithfulness -------------------------------------------------------


def test_joint_glyph_shades_match_probabilities():
    dist = joint(TABLE_JOINT)
    scene = build_scene(FigureSpec(FigureKind.JOINT, dist))
    cells = tagged(scene, "joint-cell")
    assert [c.fill for c in cells] == [reference_lerp_color(WHITE, BLACK, float(p)) for p in dist.prob]


def test_polytope_vertices_projected_exactly():
    game = game_from_flat(COORDINATION)
    style = StyleOptions()
    scene = build_scene(FigureSpec(FigureKind.POLYTOPE, game, style))
    place = _fit_to_canvas([project(v) for v in TETRAHEDRON], SIZE_PT, 0.12 * SIZE_PT)
    expected = [
        place(project(simplex_position(tuple(float(x) for x in v.prob))))
        for v in cce_polytope(game).vertices
    ]
    (dots,) = tagged(scene, "cce-vertex")
    assert isinstance(dots, Circle)
    assert dots.centers == tuple(expected)
    # and the serialized coordinates are those values at output precision
    svg = render_figure(FigureSpec(FigureKind.POLYTOPE, game, style), "svg")
    for x, _ in dots.centers:
        assert f'cx="{fmt(x)}"' in svg


def test_tetrahedron_equidistant_and_hull_contains_vertices():
    corners = TETRAHEDRON
    dists = {
        round(math.dist(corners[i], corners[j]), 12)
        for i in range(4)
        for j in range(i + 1, 4)
    }
    assert dists == {1.0}

    import random

    rng = random.Random(37)
    games = [game_from_flat(COORDINATION)] + [verify.random_game(rng) for _ in range(10)]
    hull = _convex_hull([project(v) for v in TETRAHEDRON])
    for game in games:
        for vertex in cce_polytope(game).vertices:
            point = project(simplex_position(tuple(float(x) for x in vertex.prob)))
            assert _inside_hull(hull, point)


def _ref_sub(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _ref_dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _ref_cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _ref_normalize(a):
    n = math.sqrt(_ref_dot(a, a))
    return (a[0] / n, a[1] / n, a[2] / n)


@dataclass(frozen=True)
class ReferenceProjection:
    """A general perspective camera at distance 4 and focal length 2.4, looking
    at the origin from (azimuth, elevation); camera and basis are computed on
    every call."""

    azimuth_deg: float
    elevation_deg: float

    @property
    def camera(self):
        az = math.radians(self.azimuth_deg)
        el = math.radians(self.elevation_deg)
        return (
            4.0 * math.cos(el) * math.cos(az),
            4.0 * math.cos(el) * math.sin(az),
            4.0 * math.sin(el),
        )

    def _basis(self):
        cam = self.camera
        forward = _ref_normalize((-cam[0], -cam[1], -cam[2]))
        world_up = (0.0, 0.0, 1.0)
        side = _ref_cross(forward, world_up)
        if _ref_dot(side, side) < 1e-12:  # looking straight up/down
            world_up = (0.0, 1.0, 0.0)
            side = _ref_cross(forward, world_up)
        right = _ref_normalize(side)
        up = _ref_cross(right, forward)
        return right, up, forward

    def project(self, point):
        cam = self.camera
        right, up, forward = self._basis()
        v = _ref_sub(point, cam)
        depth = _ref_dot(v, forward)
        return (2.4 * _ref_dot(v, right) / depth, 2.4 * _ref_dot(v, up) / depth)


def reference_hidden_tetra_edges(projection):
    """Edges whose adjacent faces both face away from the camera."""
    faces = tuple(itertools.combinations(range(4), 3))
    cam = projection.camera
    visible_faces = []
    for face in faces:
        a, b, c = (TETRAHEDRON[i] for i in face)
        normal = _ref_cross(_ref_sub(b, a), _ref_sub(c, a))
        centroid = tuple((a[i] + b[i] + c[i]) / 3.0 for i in range(3))
        if _ref_dot(normal, centroid) < 0:
            normal = (-normal[0], -normal[1], -normal[2])
        visible_faces.append(_ref_dot(normal, _ref_sub(cam, centroid)) > 0)
    return frozenset(
        edge
        for edge in itertools.combinations(range(4), 2)
        if not any(visible for face, visible in zip(faces, visible_faces) if set(edge) <= set(face))
    )


def test_fixed_camera_matches_general_projection_exactly():
    """The fixed camera projects every point that a polytope figure of a
    quadruple game in {-3..3}^4 places (its CCE vertices and the product
    joints of its Nash components) to the same floats as a general camera at
    (-65, 18) degrees, and hides the same tetrahedron edges."""
    reference = ReferenceProjection(-65.0, 18.0)
    assert HIDDEN_TETRA_EDGES == reference_hidden_tetra_edges(reference)
    probs = set()
    for a, b, c, d in itertools.product(range(-3, 4), repeat=4):
        game = game_from_flat((a, b, 0, 0, c, 0, d, 0))
        probs.update(vertex.prob for vertex in cce_polytope(game).vertices)
        for box in nash_set(game).components:
            ps = {box.p_low + t * (box.p_high - box.p_low) for t in _ISO_FRACTIONS}
            qs = {box.q_low + t * (box.q_high - box.q_low) for t in _ISO_FRACTIONS}
            probs.update(product_joint(MarginalPair(p, q)).prob for p in ps for q in qs)
    points = list(TETRAHEDRON) + [simplex_position(tuple(float(x) for x in prob)) for prob in probs]
    assert len(points) > 4
    for point in points:
        assert project(point) == reference.project(point), point


def _convex_hull(points):
    points = sorted(set(points))
    if len(points) <= 2:
        return points

    def half(iterable):
        chain = []
        for p in iterable:
            while len(chain) >= 2 and _cross(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        return chain[:-1]

    return half(points) + half(reversed(points))


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _inside_hull(hull, point, eps=1e-9):
    for i in range(len(hull)):
        a, b = hull[i], hull[(i + 1) % len(hull)]
        if _cross(a, b, point) < -eps:
            return False
    return True


# --- total coverage of equilibrium shapes ---------------------------------------------


@pytest.mark.parametrize(
    "flat,dimension,tags",
    [
        (MATCHING_PENNIES, 0, {"cce-vertex": 1, "cce-edge": 0, "ne-point": 1}),
        ((1, -1, -1, 1, -1, 1, 0, 0), 1, {"cce-vertex": 2, "cce-edge": 1, "ne-segment": 1}),
        (SAFETY, 2, {"cce-vertex": 3, "cce-edge": 3, "ne-segment": 1, "ne-point": 1}),
        (ALL_ZERO, 3, {"cce-vertex": 4, "cce-edge": 6, "ne-surface": 10}),
        (HORSEPLAY, 3, {"cce-vertex": 4, "cce-edge": 6, "ne-segment": 3}),
    ],
)
def test_polytope_scene_covers_all_shapes(flat, dimension, tags):
    game = game_from_flat(flat)
    poly = cce_polytope(game)
    assert poly.dimension == dimension
    scene = build_scene(FigureSpec(FigureKind.POLYTOPE, game))
    for tag, count in tags.items():
        assert count_drawn(scene, tag) == count, (tag, count)
    assert count_drawn(scene, "cce-vertex") == len(poly.vertices)
    assert count_drawn(scene, "cce-edge") == len(poly.edges)


def test_br_graph_arrows_point_to_preferred_cells():
    # coordination: both players prefer matching; arrows converge on AA and BB
    scene = build_scene(FigureSpec(FigureKind.BR_GRAPH, game_from_flat(COORDINATION)))
    arrows = tagged(scene, "br-edge")
    assert len(arrows) == 4
    vertical = sorted((a for a in arrows if a.x1 == a.x2), key=lambda a: a.x1)
    horizontal = sorted((a for a in arrows if a.y1 == a.y2), key=lambda a: a.y1)
    assert vertical[0].y2 > vertical[0].y1  # left column: up toward AA
    assert vertical[1].y2 < vertical[1].y1  # right column: down toward BB
    assert horizontal[0].x2 > horizontal[0].x1  # bottom row: right toward BB
    assert horizontal[1].x2 < horizontal[1].x1  # top row: left toward AA


def test_br_graph_omits_indifferent_edges(all_zero):
    scene = build_scene(FigureSpec(FigureKind.BR_GRAPH, all_zero))
    assert count_drawn(scene, "br-edge") == 0
    assert count_drawn(scene, "node") == 4


def test_ord_graph_arrows_follow_increasing_payoffs():
    # strict row payoffs 1,2,3,4: three black arrows AA->AB->BA->BB
    scene = build_scene(FigureSpec(FigureKind.ORD_GRAPH, game_from_flat((1, 2, 3, 4, 0, 0, 0, 0))))
    assert count_drawn(scene, "ord-edge-row") == 3
    assert count_drawn(scene, "ord-edge-col") == 0
    assert count_drawn(scene, "node") == 4
    assert all(a.color == BLACK for a in tagged(scene, "ord-edge-row"))


# --- embedding figures ------------------------------------------------------------------


def test_embedding_axes_only():
    scene = build_scene(FigureSpec(FigureKind.EMBEDDING, EmbeddingFigureData()))
    assert count_drawn(scene, "embed-point") == 0
    assert count_drawn(scene, "frame") == 1


def test_embedding_point_at_atan2_angles():
    coordination = game_from_flat(COORDINATION)
    point = embed(coordination)
    angle = math.degrees(math.atan2(-1, 2)) % 360
    assert point.row_angle_degrees == pytest.approx(angle)
    style = StyleOptions()
    scene = build_scene(
        FigureSpec(
            FigureKind.EMBEDDING,
            EmbeddingFigureData(points=((point.row_angle_degrees, point.col_angle_degrees),)),
            style,
        )
    )
    (dots,) = tagged(scene, "embed-point")
    assert len(dots.centers) == 1
    s = SIZE_PT
    margin, plot = 0.14 * s, s - 0.14 * s - 0.06 * s
    assert dots.centers[0][0] == pytest.approx(margin + angle / 360.0 * plot)


def test_embedding_constant_heatmap_uniform():
    data = EmbeddingFigureData(heatmap=((2.0, 2.0), (2.0, 2.0)))
    scene = build_scene(FigureSpec(FigureKind.EMBEDDING, data))
    (cells,) = tagged(scene, "heatmap-cell")
    assert isinstance(cells, Heatmap)
    assert len(cells.fills) == 4
    assert len(set(cells.fills)) == 1


def test_embedding_rejects_ragged_heatmap():
    with pytest.raises(ValueError, match="rectangular"):
        render_embedding([], heatmap=[[1.0, 2.0], [3.0]])


def test_render_embedding_skips_trivial_players(all_zero):
    svg = render_embedding([embed(all_zero)])
    assert 'class="embed-point"' not in svg


def test_style_toggles_remove_annotations():
    game = game_from_flat(COORDINATION)
    bare = StyleOptions(
        show_axes_labels=False, show_tick_labels=False, show_best_response_names=False
    )
    scene = build_scene(FigureSpec(FigureKind.POLYTOPE, game, bare))
    assert count_drawn(scene, "corner-label") == 0
    data = EmbeddingFigureData(points=((10.0, 20.0),))
    scene = build_scene(FigureSpec(FigureKind.EMBEDDING, data, bare))
    assert count_drawn(scene, "tick-label") == 0
    assert count_drawn(scene, "axis-label") == 0
    assert count_drawn(scene, "class-name") == 0
    full = build_scene(FigureSpec(FigureKind.EMBEDDING, data, StyleOptions()))
    assert count_drawn(full, "class-name") == 16
    assert count_drawn(full, "tick-label") == 10


# --- errors and files ----------------------------------------------------------------------


def test_unsupported_format_rejected():
    with pytest.raises(UnsupportedFigureError, match="png"):
        render_figure(FigureSpec(FigureKind.JOINT, joint(TABLE_JOINT)), "png")


def test_wrong_payload_type_rejected(mp):
    with pytest.raises(TypeError, match="JointDistribution"):
        render_figure(FigureSpec(FigureKind.JOINT, mp), "svg")


def test_unknown_kind_rejected(mp):
    with pytest.raises(UnsupportedFigureError, match=r"^unknown figure kind 'polytope'$"):
        build_scene(FigureSpec("polytope", mp))


@pytest.mark.parametrize("backend", [canvas.to_svg, canvas.to_tikz])
def test_foreign_primitive_rejected(backend):
    """A plain tuple with a `Line`'s items is not a `Line`."""
    items = (0.0, 0.0, 1.0, 1.0, BLACK, 0.8, False, "")
    backend(canvas.Scene([Line(*items)]))
    with pytest.raises(TypeError, match=r"^unknown primitive \(0\.0, 0\.0, 1\.0, 1\.0, \(0, 0, 0\)"):
        backend(canvas.Scene([items]))


def test_point_file_round_trip(tmp_path):
    path = tmp_path / "points.dat"
    pairs = ((0.0, 359.5), (123.456, 7.0), (1e-3, 300.0))
    path.write_text("".join(f"{x!r} {y!r}\n" for x, y in pairs), encoding="utf-8", newline="\n")
    assert load_points(path) == pairs


def test_matrix_file_round_trip(tmp_path):
    path = tmp_path / "heat.dat"
    rows = ((1.0, 2.5, -3.0), (0.25, 0.0, 9.75))
    path.write_text("".join(" ".join(map(repr, row)) + "\n" for row in rows), encoding="utf-8", newline="\n")
    assert load_matrix(path) == rows


def test_matrix_file_rejects_ragged(tmp_path):
    path = tmp_path / "bad.dat"
    path.write_text("1 2 3\n4 5\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unequal"):
        load_matrix(path)


def test_point_file_rejects_wrong_arity(tmp_path):
    path = tmp_path / "bad.dat"
    path.write_text("1 2 3\n", encoding="utf-8")
    with pytest.raises(ValueError, match="2 columns"):
        load_points(path)


def test_data_files_take_only_ascii_literals(tmp_path):
    """Both loaders reject the non-ASCII digits that `float` would take, with
    `path:line`, as payoff literals do; ASCII forms such as `1_0` still load."""
    path = tmp_path / "data.dat"
    for loader in (load_points, load_matrix):
        for bad in ("\u0661\u0662 \u0663", "1 \uff12", "\u0661 2"):
            path.write_text(f"1 2\n{bad}\n", encoding="utf-8")
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: non-numeric value$"):
                loader(path)
        path.write_text("1_0 2\n", encoding="utf-8")
        assert loader(path) == ((10.0, 2.0),)


@pytest.mark.parametrize("data,lineno", [
    (b"1 2\n3 \xff4\n", 2),
    (b"\xff\n1 2\n", 1),
    (b"1 2\n\n5 6 \xff\n", 3),  # the undecodable line is named even with three fields
    (b"1 2\r3 4\r\xfe 5\r", 3),
    (b"1 2\r\n3 4\r\n5 \xe2\x82", 3),  # a sequence cut short by the end of the file
    (b"1 2\n\xd9\xa1 2\n\xff\n", 2),  # an earlier non-ASCII digit is named first
    (b"nan 1\n\xff\n", 1),
])
def test_data_files_name_the_first_line_that_is_not_utf8(tmp_path, data, lineno):
    path = tmp_path / "data.dat"
    path.write_bytes(data)
    message = f"{path}:{lineno}: non-{'finite' if data.startswith(b'nan') else 'numeric'} value"
    for loader in (load_points, load_matrix):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            loader(path)
    path.write_bytes(b"1 2 3\n\xff\n")  # the wrong arity comes first
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}:1: expected 2 columns, got 3") + "$"):
        load_points(path)


# The loaders as they read a file one line at a time before they read it whole:
# the fast loaders must give the same values, or fail with the same message.


def reference_finite(path, lineno, fields):
    if not "".join(fields).isascii():
        raise ValueError(f"{path}:{lineno}: non-numeric value")
    try:
        values = tuple(map(float, fields))
    except ValueError as exc:
        raise ValueError(f"{path}:{lineno}: non-numeric value") from exc
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{path}:{lineno}: non-finite value")
    return values


def reference_load_points(path):
    points = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            fields = line.split()
            if not fields:
                continue
            if len(fields) != 2:
                raise ValueError(f"{path}:{lineno}: expected 2 columns, got {len(fields)}")
            points.append(reference_finite(path, lineno, fields))
    return tuple(points)


def reference_load_matrix(path):
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            fields = line.split()
            if not fields:
                continue
            rows.append(reference_finite(path, lineno, fields))
    if not rows:
        raise ValueError(f"{path}: empty matrix")
    if any(len(row) != len(rows[0]) for row in rows):
        raise ValueError(f"{path}: rows have unequal lengths")
    return tuple(rows)


DATA_FILES = {
    "lf": "1 2\n3 4\n",
    "crlf": "1 2\r\n3 4\r\n",
    "cr": "1 2\r3 4\r",
    "mixed-ends": "1 2\r\n3 4\r5 6\n7 8",
    "no-final-newline": "1 2\n3 4",
    "empty": "",
    "blank-lines": "\n1 2\n   \n\t\n3 4\n\n",
    "only-whitespace": " \n\t\r\n",
    "ff-inside-line": "1\x0c2\n3 4\n",
    "ff-between-pairs": "1 2\x0c3 4\n",
    "fs-inside-line": "1\x1c2\n3\x1c4\n",
    "unicode-spaces": "1\u20032\n3\x854\n",
    "unicode-line-separator": "1 2\u20283 4\n",
    "literal-forms": "1_0 +1e2\n-0 -0.0\n",
    "nan-line-3": "1 2\n3 4\nnan 5\n",
    "inf-line-2": "1 2\n-inf 3\n4 5\n",
    "overflow-line-2": "1 2\n1e400 3\n",
    "infinity-line-2": "1 2\ninfinity 3\n",
    "underflow": "1e-400 2\n",
    "hex": "0x10 2\n",
    "non-numeric": "1 2\nabc 3\n",
    "fraction": "1/2 3\n",
    "arity-before-non-ascii": "1 2 3\n\u0661 2\n",
    "arity-after-non-ascii": "1 2\n\u0661 2\n1 2 3\n",
    "one-column": "1\n2\n",
    "ragged-then-nan": "1 2\n3\n4 nan\n",
    "bom": "\ufeff1 2\n",
}


def _outcome(loader, path):
    try:
        return loader(path)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("name", list(DATA_FILES))
def test_loaders_match_line_by_line_reference(tmp_path, name):
    path = tmp_path / f"{name}.dat"
    path.write_bytes(DATA_FILES[name].encode("utf-8"))
    for loader, reference in ((load_points, reference_load_points), (load_matrix, reference_load_matrix)):
        assert _outcome(loader, path) == _outcome(reference, path)


# --- emission helpers against their reference versions -------------------------------
# The straightforward versions of the per-value helpers and of TikZ color
# collection; the library's faster versions must give the same results.


def reference_fmt(value):
    if value == 0 or abs(value) < 1e-9:
        return "0"
    text = f"{value:.6g}"
    if "e" in text or "E" in text:
        text = format(Decimal(text), "f")
    return text


def reference_lerp_color(low, high, t):
    t = min(max(t, 0.0), 1.0)
    return tuple(round(a + t * (b - a)) for a, b in zip(low, high))


def reference_hex_color(color):
    return "".join(f"{channel:02x}" for channel in color)


def reference_collect_colors(scene):
    seen = []
    for prim in expand_prims(scene):
        candidates = []
        if isinstance(prim, (Line, ArrowLine)):
            candidates = [prim.color]
        elif isinstance(prim, (Rect, OneCircle)):
            candidates = [prim.fill, prim.stroke]
        elif isinstance(prim, Text):
            candidates = [prim.color]
        for color in candidates:
            if color is not None and color not in seen:
                seen.append(color)
    return seen


def reference_color_definitions(scene):
    """The `\\definecolor` line of each color the scene draws with, in the order of first use."""
    return [
        rf"\definecolor{{c{reference_hex_color(c)}}}{{RGB}}{{{c[0]},{c[1]},{c[2]}}}"
        for c in reference_collect_colors(scene)
    ]


def color_definitions(tikz):
    return [line for line in tikz.splitlines() if line.startswith(r"\definecolor")]


def large_heatmap_spec():
    rng = random.Random(36)
    # One decimal place: about a hundred distinct colors over 1,440 cells, so
    # colors repeat and their first-seen order matters.
    heatmap = tuple(tuple(round(rng.uniform(-5, 5), 1) for _ in range(40)) for _ in range(36))
    points = tuple((rng.uniform(0, 360), rng.uniform(0, 360)) for _ in range(50))
    return FigureSpec(FigureKind.EMBEDDING, EmbeddingFigureData(points=points, heatmap=heatmap))


@pytest.mark.parametrize("format", ["svg", "tikz"])
def test_large_heatmap_emission_matches_reference_helpers(format, monkeypatch):
    spec = large_heatmap_spec()
    scene = build_scene(spec)
    colors = reference_collect_colors(scene)
    (cells,) = tagged(scene, "heatmap-cell")
    assert (cells.cols, len(cells.fills)) == (40, 36 * 40)
    assert 50 < len(colors) < count_drawn(scene, "heatmap-cell") == len(cells.fills)
    text = render_figure(spec, format)
    calls = Counter()

    def counted(name, helper):
        def call(*args):
            calls[name] += 1
            return helper(*args)
        return call

    def reference_ramp(low, high, ts):
        return [reference_lerp_color(low, high, t) for t in ts]

    with monkeypatch.context() as patch:
        patch.setattr(canvas, "fmt", counted("fmt", reference_fmt))
        patch.setattr(canvas, "hex_color", counted("hex_color", reference_hex_color))
        patch.setattr(figures, "lerp_colors", counted("ramp", reference_ramp))
        reference = render_figure(spec, format)
    assert text == reference
    assert calls["ramp"] == 1 and calls["fmt"] > 0 and calls["hex_color"] > 0, calls
    if format == "tikz":
        assert color_definitions(text) == reference_color_definitions(scene)


def test_collect_colors_matches_reference_on_golden_scenes():
    for kind, payload in golden_specs().items():
        scene = build_scene(FigureSpec(kind, payload))
        assert color_definitions(canvas.to_tikz(scene)) == reference_color_definitions(scene), kind


def test_fmt_matches_reference():
    values = [0, 0.0, -0.0, 5, -7, 2 ** 70, math.inf, -math.inf, math.nan]
    for edge in (1e-9, -1e-9):
        values += [edge, math.nextafter(edge, 0.0), math.nextafter(edge, math.inf),
                   math.nextafter(edge, -math.inf)]
    for exponent in range(-12, 13):
        for mantissa in (1.0, 1.5, 2.345678, 3.14159265, 9.999994, 9.999995, 9.9999951):
            values += [mantissa * 10.0 ** exponent, -mantissa * 10.0 ** exponent]
    assert [fmt(v) for v in values] == [reference_fmt(v) for v in values]
    assert (fmt(1.5e-7), fmt(-2.5e11), fmt(-0.0)) == ("0.00000015", "-250000000000", "0")


def test_lerp_and_hex_color_match_reference():
    ts = [i / 512 for i in range(-32, 545)] + [-math.inf, math.inf, -0.0]
    # (0,0,0) -> (255,128,2) at t = k/512 puts many channels exactly on .5
    for low, high in ((WHITE, PURPLE), (BLACK, (255, 128, 2)), ((255, 128, 3), BLACK)):
        colors = lerp_colors(low, high, ts)
        assert colors == [reference_lerp_color(low, high, t) for t in ts]
        assert lerp_colors(low, high, iter(ts)) == colors
        assert [hex_color(c) for c in colors] == [reference_hex_color(c) for c in colors]
    # .5 rounds to even: 0.5 -> 0, 1.5 -> 2
    assert lerp_colors(BLACK, (255, 128, 2), [0.25, 0.75]) == [(64, 32, 0), (191, 96, 2)]


# --- grid and multi-centre primitives against a per-element reference ---------------
# `expand_prims` turns a `Heatmap` back into one `Rect` per cell and a `Circle`
# into one single-centre circle per centre; `reference_to_svg` and
# `reference_to_tikz` emit the result one element at a time, as the backends
# did before those primitives drew many elements each.


@dataclass(frozen=True)
class OneCircle:
    cx: float
    cy: float
    r: float
    fill: tuple | None
    stroke: tuple | None = None
    width: float = 0.0
    tag: str = ""


def expand_prims(scene):
    prims = []
    for prim in scene.prims:
        if isinstance(prim, Heatmap):
            for index, fill in enumerate(prim.fills):
                r, c = divmod(index, prim.cols)
                prims.append(Rect(x=prim.x + c * prim.cell_w, y=prim.top - (r + 1) * prim.cell_h,
                                  w=prim.cell_w, h=prim.cell_h, fill=fill, tag=prim.tag))
        elif isinstance(prim, Circle):
            prims.extend(OneCircle(cx, cy, prim.r, prim.fill, tag=prim.tag) for cx, cy in prim.centers)
        else:
            prims.append(prim)
    return prims


def reference_to_svg(scene):
    h = SIZE_PT

    def y(v):
        return h - v

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{fmt(h)}pt" '
        f'height="{fmt(h)}pt" viewBox="0 0 {fmt(h)} {fmt(h)}">',
    ]

    def attr_class(tag):
        return f' class="{tag}"' if tag else ""

    def paint(fill, stroke, width):
        parts = [f'fill="{"#" + hex_color(fill) if fill else "none"}"']
        if stroke is not None:
            parts.append(f'stroke="#{hex_color(stroke)}" stroke-width="{fmt(width)}"')
        return " ".join(parts)

    for prim in expand_prims(scene):
        if isinstance(prim, Line):
            dash = ' stroke-dasharray="3 2"' if prim.dashed else ""
            out.append(
                f'<line x1="{fmt(prim.x1)}" y1="{fmt(y(prim.y1))}" x2="{fmt(prim.x2)}" '
                f'y2="{fmt(y(prim.y2))}" stroke="#{hex_color(prim.color)}" '
                f'stroke-width="{fmt(prim.width)}"{dash}{attr_class(prim.tag)}/>'
            )
        elif isinstance(prim, ArrowLine):
            (bx, by), head = canvas._arrow_head(prim.x1, prim.y1, prim.x2, prim.y2, prim.width)
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
        elif isinstance(prim, OneCircle):
            out.append(
                f'<circle cx="{fmt(prim.cx)}" cy="{fmt(y(prim.cy))}" r="{fmt(prim.r)}" '
                f"{paint(prim.fill, prim.stroke, prim.width)}{attr_class(prim.tag)}/>"
            )
        elif isinstance(prim, Text):
            anchor, dy = canvas._SVG_ANCHOR[prim.anchor]
            out.append(
                f'<text x="{fmt(prim.x)}" y="{fmt(y(prim.y))}" dy="{dy}" '
                f'font-size="{fmt(prim.size)}" text-anchor="{anchor}" '
                f'fill="#{hex_color(prim.color)}"{attr_class(prim.tag)}>'
                f"{canvas._svg_escape(prim.content)}</text>"
            )
        else:
            raise TypeError(f"unknown primitive {prim!r}")
    out.append("</svg>")
    return "\n".join(out) + "\n"


def reference_to_tikz(scene):
    out = [r"\begin{tikzpicture}[x=1pt,y=1pt,line cap=round,line join=round]"]
    names = {color: f"c{hex_color(color)}" for color in reference_collect_colors(scene)}
    for (r, g, b), name in names.items():
        out.append(rf"\definecolor{{{name}}}{{RGB}}{{{r},{g},{b}}}")
    cname = names.__getitem__

    def path_options(fill, stroke, width):
        opts = []
        if fill is not None:
            opts.append(f"fill={cname(fill)}")
        if stroke is not None:
            opts.append(f"draw={cname(stroke)}")
            opts.append(f"line width={fmt(width)}pt")
        return ",".join(opts)

    for prim in expand_prims(scene):
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
        elif isinstance(prim, OneCircle):
            out.append(
                rf"\path[{path_options(prim.fill, prim.stroke, prim.width)}] "
                rf"({fmt(prim.cx)},{fmt(prim.cy)}) circle[radius={fmt(prim.r)}];"
            )
        elif isinstance(prim, Text):
            size = fmt(prim.size)
            baseline = fmt(prim.size * 1.2)
            out.append(
                rf"\node[anchor={prim.anchor},text={cname(prim.color)},inner sep=1pt,"
                rf"font=\fontsize{{{size}}}{{{baseline}}}\selectfont] "
                rf"at ({fmt(prim.x)},{fmt(prim.y)}) {{{canvas._tikz_escape(prim.content)}}};"
            )
        else:
            raise TypeError(f"unknown primitive {prim!r}")
    out.append(r"\end{tikzpicture}")
    return "\n".join(out) + "\n"


REFERENCE_BACKENDS = {"svg": (canvas.to_svg, reference_to_svg), "tikz": (canvas.to_tikz, reference_to_tikz)}

STYLE_VARIANTS = (
    StyleOptions(),
    StyleOptions(show_axes_labels=False),
    StyleOptions(show_tick_labels=False),
    StyleOptions(show_best_response_names=False),
    StyleOptions(show_axes_labels=False, show_tick_labels=False, show_best_response_names=False),
)


def _seeded_matrix(seed, rows, cols, low=-5.0, high=5.0):
    rng = random.Random(seed)
    return tuple(tuple(rng.uniform(low, high) for _ in range(cols)) for _ in range(rows))


def _seeded_points(seed, count):
    rng = random.Random(seed)
    return tuple((rng.uniform(-30, 400), rng.uniform(-30, 400)) for _ in range(count))


EMBEDDING_SHAPES = {
    "1x1-one-point": (((3.0,),), 1),
    "1xn-no-points": (_seeded_matrix(1, 1, 9), 0),
    "nx1-600-points": (_seeded_matrix(2, 9, 1), 600),
    "constant": (((2.5,) * 4,) * 3, 1),
    "all-negative": (_seeded_matrix(3, 6, 5, -9.0, -1.0), 600),
    "36x40-one-point": (_seeded_matrix(4, 36, 40), 1),
    "span-overflows": (((1e308, -1e308), (0.0, 1.0)), 0),
    "no-heatmap-no-points": (None, 0),
    "no-heatmap-600-points": (None, 600),
}


def _first_difference(text, reference):
    lines, expected = text.splitlines(), reference.splitlines()
    for number, (line, want) in enumerate(zip(lines, expected), start=1):
        if line != want:
            return f"line {number}: {line!r} != {want!r}"
    return f"{len(lines)} lines != {len(expected)} lines"


def _assert_matches_reference(scene, format):
    emit, reference = REFERENCE_BACKENDS[format]
    text, expected = emit(scene), reference(scene)
    same = text == expected  # a bare flag: pytest's diff of two whole figures takes minutes
    assert same, _first_difference(text, expected)
    assert color_definitions(canvas.to_tikz(scene)) == reference_color_definitions(scene)
    drawn = Counter(prim.tag for prim in expand_prims(scene))
    assert {tag: count_drawn(scene, tag) for tag in drawn} == drawn


@pytest.mark.parametrize("format", ["svg", "tikz"])
@pytest.mark.parametrize("shape", list(EMBEDDING_SHAPES))
def test_embedding_emission_matches_per_element_reference(shape, format):
    heatmap, count = EMBEDDING_SHAPES[shape]
    data = EmbeddingFigureData(points=_seeded_points(len(shape), count), heatmap=heatmap)
    cells = 0 if heatmap is None else len(heatmap) * len(heatmap[0])
    for style in STYLE_VARIANTS:
        scene = build_scene(FigureSpec(FigureKind.EMBEDDING, data, style))
        assert count_drawn(scene, "embed-point") == count
        assert count_drawn(scene, "heatmap-cell") == cells
        _assert_matches_reference(scene, format)


@pytest.mark.parametrize("format", ["svg", "tikz"])
def test_every_kind_matches_per_element_reference(format):
    rng = random.Random(41)
    cases = list(golden_specs().items())
    for _ in range(20):
        game = verify.random_game(rng)
        cases += [(kind, game) for kind in (FigureKind.POLYTOPE, FigureKind.ORD_GRAPH, FigureKind.BR_GRAPH)]
    cases += [(FigureKind.POLYTOPE, game_from_flat(flat))
              for flat in (MATCHING_PENNIES, SAFETY, ALL_ZERO, HORSEPLAY)]
    for kind, payload in cases:
        for style in STYLE_VARIANTS[::4]:
            _assert_matches_reference(build_scene(FigureSpec(kind, payload, style)), format)


def test_heatmap_fills_follow_matrix_order():
    rows = ((0.0, 1.0, 2.0), (3.0, 4.0, 5.0))
    scene = build_scene(FigureSpec(FigureKind.EMBEDDING, EmbeddingFigureData(heatmap=rows)))
    (cells,) = tagged(scene, "heatmap-cell")
    assert cells.cols == 3
    assert cells.fills == tuple(reference_lerp_color(WHITE, PURPLE, v / 5.0) for row in rows for v in row)


def test_embedding_points_are_one_circle():
    data = EmbeddingFigureData(points=_seeded_points(5, 600))
    (dots,) = tagged(build_scene(FigureSpec(FigureKind.EMBEDDING, data)), "embed-point")
    assert (len(dots.centers), dots.fill) == (600, BLUE)


@pytest.mark.parametrize("point", [(math.nan, 10.0), (10.0, math.inf), (-math.inf, 0.0)])
def test_render_embedding_rejects_non_finite_point(point):
    with pytest.raises(ValueError, match="non-finite point coordinate (nan|inf|-inf)"):
        render_embedding([point])


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_render_embedding_rejects_non_finite_heatmap_value(value):
    with pytest.raises(ValueError, match=f"non-finite heatmap value {value!r}"):
        render_embedding([], heatmap=[[value, 0.0]])


@pytest.mark.parametrize(
    "fields,message",
    [
        ({"points": ((math.nan, 1.0),)}, "non-finite point coordinate nan"),
        ({"points": ((1.0,),)}, r"point \(1\.0,\) is not a \(row angle, column angle\) pair"),
        ({"heatmap": ((),)}, "heatmap matrix must be rectangular and nonempty"),
        ({"heatmap": ((math.inf, 0.0),)}, "non-finite heatmap value inf"),
        ({"heatmap": ((1.0,), (1.0, 2.0))}, "heatmap matrix must be rectangular and nonempty"),
    ],
)
def test_embedding_data_checked_when_built(fields, message):
    with pytest.raises(ValueError, match=message):
        EmbeddingFigureData(**fields)
    with pytest.raises(ValueError, match=message):
        build_scene(FigureSpec(FigureKind.EMBEDDING, EmbeddingFigureData(**fields)))
