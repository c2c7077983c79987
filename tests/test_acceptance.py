"""Acceptance criteria, one test per criterion.

Every equilibrium assertion is exact (no tolerances); the only numeric bounds
are the stated runtime budgets.  Run with `pytest tests/test_acceptance.py -v -s`
to see one pass line per criterion.
"""

import itertools
import random
import time
import xml.etree.ElementTree as ET
from fractions import Fraction as F
from pathlib import Path

import pytest

from twobytwo import verify
from twobytwo.core import game_from_flat
from twobytwo.embedding import class_of_embedding, embed
from twobytwo.equilibria import cce_polytope, nash_set
from twobytwo.graphs import br_class, census
from twobytwo.render import (
    EmbeddingFigureData,
    FigureKind,
    FigureSpec,
    build_scene,
    load_matrix,
    load_points,
    render_figure,
)

from conftest import (
    ALL_ZERO,
    ANTICOORDINATION,
    COORDINATION,
    HORSEPLAY,
    MATCHING_PENNIES,
    PRISONERS_DILEMMA,
    SAFETY,
    count_drawn,
)

GOLDEN_DIR = Path(__file__).parent / "golden"

ORACLE_SEED = 20240
ORACLE_TRIALS = 1000
INVARIANCE_SEED = 515
INVARIANCE_PAIRS = 500


def _report(name: str, started: float) -> None:
    print(f"ACCEPTANCE {name}: PASS ({time.perf_counter() - started:.1f}s)")


@pytest.fixture(scope="module")
def oracle_games():
    rng = random.Random(ORACLE_SEED)
    return [verify.random_game(rng) for _ in range(ORACLE_TRIALS)]


def test_census_exactness(capsys):
    started = time.perf_counter()
    report = census()
    elapsed = time.perf_counter() - started
    assert (
        report["strict_ordinal_total"],
        report["strict_ordinal_up_to_strategy"],
        report["strict_ordinal_up_to_strategy_and_player"],
        report["partial_ordinal_classes"],
        report["br_graphs"],
        report["br_classes"],
    ) == (576, 144, 78, 726, 81, 15)
    assert elapsed < 10.0, f"census took {elapsed:.1f}s, budget is 10s"

    from twobytwo.cli import main

    assert main(["census"]) == 0
    out = capsys.readouterr().out
    for line in (
        "strict_ordinal_total 576",
        "strict_ordinal_up_to_strategy 144",
        "strict_ordinal_up_to_strategy_and_player 78",
        "partial_ordinal_classes 726",
        "br_graphs 81",
        "br_classes 15",
    ):
        assert line in out
    _report("census-exactness", started)


def test_prisoners_dilemma_exact():
    started = time.perf_counter()
    game = game_from_flat(PRISONERS_DILEMMA)
    ns = nash_set(game)
    assert [(b.p_low, b.p_high, b.q_low, b.q_high) for b in ns.components] == [(0, 0, 0, 0)]
    poly = cce_polytope(game)
    assert [v.prob for v in poly.vertices] == [(0, 0, 0, 1)]
    assert poly.dimension == 0 and poly.edges == ()
    _report("prisoners-dilemma", started)


def test_matching_pennies_exact():
    started = time.perf_counter()
    game = game_from_flat(MATCHING_PENNIES)
    ns = nash_set(game)
    half = F(1, 2)
    assert [(b.p_low, b.p_high, b.q_low, b.q_high) for b in ns.components] == [
        (half, half, half, half)
    ]
    poly = cce_polytope(game)
    assert [v.prob for v in poly.vertices] == [(F(1, 4),) * 4]
    assert poly.dimension == 0
    _report("matching-pennies", started)


def test_coordination_exact():
    started = time.perf_counter()
    game = game_from_flat(COORDINATION)
    third = F(1, 3)
    components = {
        (b.p_low, b.p_high, b.q_low, b.q_high) for b in nash_set(game).components
    }
    assert components == {(0, 0, 0, 0), (third, third, third, third), (1, 1, 1, 1)}
    vertices = {v.prob for v in cce_polytope(game).vertices}
    assert (1, 0, 0, 0) in vertices and (0, 0, 0, 1) in vertices
    _report("coordination", started)


def test_all_zero_exact():
    started = time.perf_counter()
    game = game_from_flat(ALL_ZERO)
    poly = cce_polytope(game)
    assert poly.dimension == 3
    assert {v.prob for v in poly.vertices} == {
        (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
    }
    ns = nash_set(game)
    assert [(b.p_low, b.p_high, b.q_low, b.q_high) for b in ns.components] == [(0, 1, 0, 1)]
    _report("all-zero", started)


def test_ne_oracle_suite(oracle_games):
    """1000 seeded games, every 101x101 grid point classified identically by
    the membership routes and confirmed against the solution boxes."""
    started = time.perf_counter()
    rng = random.Random(ORACLE_SEED + 1)
    failures = []
    for game in oracle_games:
        failures += verify.check_ne_grid(game)
        failures += verify.check_ne_samples(game, rng)
    assert not failures, failures[:5]
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0, f"NE oracle suite took {elapsed:.1f}s, budget is 300s"
    _report("ne-oracle-suite", started)


def test_cce_oracle_suite(oracle_games):
    """Vertex feasibility and tightness, 100 convex combinations per game,
    and NE-product-joint containment; all exact."""
    started = time.perf_counter()
    rng = random.Random(ORACLE_SEED + 2)
    failures = []
    for game in oracle_games:
        failures += verify.check_cce(game, rng)
    assert not failures, failures[:5]
    _report("cce-oracle-suite", started)


def test_invariance_suite():
    started = time.perf_counter()
    rng = random.Random(INVARIANCE_SEED)
    failures = []
    for _ in range(INVARIANCE_PAIRS):
        game = verify.random_game(rng)
        failures += verify.check_affine_invariance(game, rng)
        failures += verify.check_permute_equivariance(game)
    assert not failures, failures[:5]
    _report("invariance-suite", started)


def test_embedding_consistency():
    started = time.perf_counter()
    values = {0: F(0), 1: F(5, 3), -1: F(-3, 4)}
    for signs in itertools.product((1, -1, 0), repeat=4):
        a, b, c, d = (values[s] for s in signs)
        game = game_from_flat((a, b, 0, 0, c, 0, d, 0))
        assert class_of_embedding(embed(game)) == br_class(game)
    rng = random.Random(77)
    for _ in range(200):
        game = verify.random_game(rng)
        assert class_of_embedding(embed(game)) == br_class(game)
    _report("embedding-consistency", started)


def test_renderer_determinism_and_validity():
    started = time.perf_counter()
    from test_render import golden_specs

    specs = golden_specs()
    assert len(specs) == 10
    for kind, payload in specs.items():
        for fmt, suffix in (("svg", "svg"), ("tikz", "tex")):
            text = render_figure(FigureSpec(kind, payload), fmt)
            golden = (GOLDEN_DIR / f"{kind.value}.{suffix}").read_text(encoding="utf-8")
            assert text == golden, f"golden drift for {kind.value}.{suffix}"
            if fmt == "svg":
                ET.fromstring(text)

    # First example figure set: payoff table, equilibrium polytope, and the
    # nontrivial embedding of the coordination game.
    coordination = game_from_flat(COORDINATION)
    table = build_scene(FigureSpec(FigureKind.PAYOFF_TABLE, coordination))
    assert count_drawn(table, "payoff-cell") == 4
    assert count_drawn(table, "payoff-row") == 4 and count_drawn(table, "payoff-col") == 4

    poly = cce_polytope(coordination)
    ns = nash_set(coordination)
    scene = build_scene(FigureSpec(FigureKind.POLYTOPE, coordination))
    assert count_drawn(scene, "cce-vertex") == len(poly.vertices) == 5
    assert count_drawn(scene, "cce-edge") == len(poly.edges) == 9
    assert count_drawn(scene, "ne-point") == len(ns.components) == 3

    point = embed(coordination)
    emb_scene = build_scene(
        FigureSpec(
            FigureKind.EMBEDDING,
            EmbeddingFigureData(points=((point.row_angle_degrees, point.col_angle_degrees),)),
        )
    )
    assert count_drawn(emb_scene, "embed-point") == 1

    # Second example set: the four polytope panels.
    panels = {
        ANTICOORDINATION: {"cce-vertex": 5, "cce-edge": 9, "ne-point": 3},
        SAFETY: {"cce-vertex": 3, "cce-edge": 3, "ne-point": 1, "ne-segment": 1},
        HORSEPLAY: {"cce-vertex": 4, "cce-edge": 6, "ne-segment": 3},
        ALL_ZERO: {"cce-vertex": 4, "cce-edge": 6, "ne-surface": 10},
    }
    for flat, expected in panels.items():
        game = game_from_flat(flat)
        scene = build_scene(FigureSpec(FigureKind.POLYTOPE, game))
        for tag, count in expected.items():
            assert count_drawn(scene, tag) == count, (flat, tag)
        assert count_drawn(scene, "cce-vertex") == len(cce_polytope(game).vertices)
        assert count_drawn(scene, "cce-edge") == len(cce_polytope(game).edges)
        ET.fromstring(render_figure(FigureSpec(FigureKind.POLYTOPE, game), "svg"))
    _report("renderer-determinism-validity", started)


def test_data_file_format_round_trip(tmp_path):
    """The external heatmap dataset is not reproduced; its file format is."""
    started = time.perf_counter()
    points = ((12.5, 300.0), (0.0, 359.999), (45.0, 45.0))
    points_path = tmp_path / "points.dat"
    points_path.write_text("".join(f"{x!r} {y!r}\n" for x, y in points), encoding="utf-8", newline="\n")
    assert load_points(points_path) == points

    matrix = tuple(tuple(float(r * 7 + c) / 3.0 for c in range(5)) for r in range(4))
    matrix_path = tmp_path / "heat.dat"
    matrix_path.write_text(
        "".join(" ".join(map(repr, row)) + "\n" for row in matrix), encoding="utf-8", newline="\n"
    )
    assert load_matrix(matrix_path) == matrix

    svg = render_figure(
        FigureSpec(
            FigureKind.EMBEDDING,
            EmbeddingFigureData(points=load_points(points_path), heatmap=load_matrix(matrix_path)),
        ),
        "svg",
    )
    ET.fromstring(svg)
    assert svg.count('class="heatmap-cell"') == 20
    assert svg.count('class="embed-point"') == 3
    _report("data-file-round-trip", started)
