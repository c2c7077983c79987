import itertools
import random
from collections import Counter
from fractions import Fraction as F

from twobytwo.core import Player, SYMMETRY_FLAGS, game_from_flat, permute, transform_affine
from twobytwo.graphs import (
    BRGraph,
    all_br_graphs,
    br_class,
    br_graph,
    census,
    census_burnside_partial_ordinal,
    class_from_br_graph,
    dense_ranks,
    format_ordinal_levels,
    ordinal_graph,
    permute_br_graph,
)

from conftest import ANTICOORDINATION, HORSEPLAY, SAFETY


def random_rational(rng, bound=9):
    return F(rng.randint(-bound, bound), rng.randint(1, 6))


def random_game(rng):
    return game_from_flat([random_rational(rng) for _ in range(8)])


# --- ordinal graphs -----------------------------------------------------------


def test_ordinal_strict_path():
    g = game_from_flat((1, 2, 3, 4, 0, 0, 0, 0))
    graph = ordinal_graph(g, Player.ROW)
    assert graph.levels == ((0,), (1,), (2,), (3,))
    assert graph.edges == ((0, 1), (1, 2), (2, 3))
    assert format_ordinal_levels(graph) == "AA<AB<BA<BB"


def test_ordinal_partial_bipartite():
    g = game_from_flat((1, 1, 2, 2, 0, 0, 0, 0))
    graph = ordinal_graph(g, Player.ROW)
    assert graph.levels == ((0, 1), (2, 3))
    assert set(graph.edges) == {(0, 2), (0, 3), (1, 2), (1, 3)}


def test_ordinal_constant_no_edges(all_zero):
    graph = ordinal_graph(all_zero, Player.ROW)
    assert graph.levels == ((0, 1, 2, 3),)
    assert graph.edges == ()


def test_ordinal_depends_only_on_dense_ranks():
    rng = random.Random(3)
    for _ in range(60):
        g = random_game(rng)
        ranks = dense_ranks(g.row)
        # a fresh strictly increasing value per rank preserves the order pattern
        values = sorted(random_rational(rng) + F(k, 1) * 20 for k in range(max(ranks)))
        remapped = game_from_flat(tuple(values[r - 1] for r in ranks) + g.col)
        assert ordinal_graph(remapped, Player.ROW) == ordinal_graph(g, Player.ROW)


def test_ordinal_hamiltonian_path_for_strict_games():
    rng = random.Random(5)
    perms = list(itertools.permutations((1, 2, 3, 4)))
    for _ in range(40):
        flat = rng.choice(perms) + rng.choice(perms)
        g = game_from_flat(flat)
        for p in Player:
            graph = ordinal_graph(g, p)
            assert all(len(level) == 1 for level in graph.levels)
            assert len(graph.edges) == 3


# --- best-response graphs -------------------------------------------------------


def test_br_graph_coordination(coordination):
    assert br_graph(coordination) == BRGraph(0, 1, 0, 1)


def test_br_graph_all_zero(all_zero):
    assert br_graph(all_zero) == BRGraph(None, None, None, None)


def test_br_graph_matching_pennies(mp):
    assert br_graph(mp) == BRGraph(0, 1, 1, 0)


def test_br_graph_affine_invariant():
    rng = random.Random(7)
    for _ in range(120):
        g = random_game(rng)
        p = rng.choice((Player.ROW, Player.COL))
        scale = F(rng.randint(1, 9), rng.randint(1, 4))
        g2 = transform_affine(g, p, scale, random_rational(rng), random_rational(rng))
        assert br_graph(g2) == br_graph(g)


def test_br_graph_equivariance_all_flags():
    rng = random.Random(9)
    for _ in range(60):
        g = random_game(rng)
        base = br_graph(g)
        for flags in SYMMETRY_FLAGS:
            assert br_graph(permute(g, *flags)) == permute_br_graph(base, *flags)


# --- classes ---------------------------------------------------------------------


def test_all_zero_class_is_singleton(all_zero):
    cls = br_class(all_zero)
    assert cls.canonical == BRGraph(None, None, None, None)
    orbit = {permute_br_graph(cls.canonical, *flags) for flags in SYMMETRY_FLAGS}
    assert orbit == {cls.canonical}
    assert cls.name == "zero"


def test_matching_pennies_class_constant_on_orbit(mp):
    swapped = permute(mp, swap_players=True)
    assert br_class(mp).index == br_class(swapped).index
    assert br_class(mp).name == "cyclic"


def test_coordination_and_anticoordination_share_a_class(coordination):
    anti = permute(coordination, swap_row_actions=True)
    assert br_class(coordination).index == br_class(anti).index
    assert br_class(coordination).name == "coordination"
    assert br_class(game_from_flat(ANTICOORDINATION)).name == "coordination"


def test_evidenced_class_names():
    assert br_class(game_from_flat(SAFETY)).name == "safety"
    assert br_class(game_from_flat(HORSEPLAY)).name == "horseplay"


def test_class_constant_on_random_orbits():
    rng = random.Random(11)
    for _ in range(60):
        g = random_game(rng)
        idx = br_class(g).index
        for flags in SYMMETRY_FLAGS:
            assert br_class(permute(g, *flags)).index == idx


def test_br_graphs_partition_into_15_orbits():
    classes = Counter(class_from_br_graph(g).index for g in all_br_graphs())
    assert len(classes) == 15
    assert sum(classes.values()) == 81
    assert set(classes) == set(range(1, 16))


def test_class_indices_stable_and_canonical_minimal():
    for graph in all_br_graphs():
        cls = class_from_br_graph(graph)
        orbit = {permute_br_graph(graph, *flags) for flags in SYMMETRY_FLAGS}
        assert cls.canonical in orbit
        assert cls.canonical.encode() == min(g.encode() for g in orbit)


# --- class names ---------------------------------------------------------------------


def test_class_names_pinned():
    names = {}
    for graph in all_br_graphs():
        cls = class_from_br_graph(graph)
        names[cls.index] = cls.name
    assert sorted(names.items()) == [
        (1, "class-1"), (2, "class-2"), (3, "class-3"), (4, "class-4"), (5, "class-5"),
        (6, "coordination"), (7, "safety"), (8, "cyclic"), (9, "class-9"), (10, "horseplay"),
        (11, "class-11"), (12, "class-12"), (13, "class-13"), (14, "class-14"), (15, "zero"),
    ]


# --- census --------------------------------------------------------------------------


def test_census_counts_exact():
    report = census()
    assert report.strict_ordinal_total == 576
    assert report.strict_ordinal_up_to_strategy == 144
    assert report.strict_ordinal_up_to_strategy_and_player == 78
    assert report.partial_ordinal_classes == 726
    assert report.br_graph_total == 81
    assert report.br_class_total == 15


def test_census_burnside_cross_check():
    assert census_burnside_partial_ordinal() == 726
