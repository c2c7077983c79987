import itertools
import random
from collections import Counter
from fractions import Fraction as F

from twobytwo.cli import _analysis_report
from twobytwo.core import (
    ADVANTAGE_ACTION,
    Player,
    SYMMETRY_FLAGS,
    advantages,
    game_from_flat,
    permute,
    permute_advantages,
    permute_cells,
    signs,
    transform_affine,
)
from twobytwo.graphs import (
    BRGraph,
    OrdinalGraph,
    all_br_graphs,
    br_class,
    br_graph,
    census,
    class_from_br_graph,
    dense_ranks,
    format_ordinal_levels,
    ordinal_graph,
    _dense_rank_tuples,
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


def ranks_test_games(count=2000):
    """Seeded games with frequent ties: small values, an all-zero player in one
    game of ten, and in another one of ten a player scaled beyond 2**62."""
    rng = random.Random(27)
    for k in range(count):
        values = [random_rational(rng, bound=3) for _ in range(8)]
        start = rng.choice((0, 4))
        if k % 10 == 0:
            values[start:start + 4] = [F(0)] * 4
        elif k % 10 == 1:
            scale = F(2**62 + rng.randrange(1, 1 << 20, 2), rng.choice((1, 3)))
            values[start:start + 4] = [v * scale for v in values[start:start + 4]]
        yield game_from_flat(values)


def test_ordinal_graph_matches_ranks_of_the_payoffs():
    """Ranks on the integerized payoffs give the graph that ranks on the
    `Fraction` payoffs themselves give."""
    seen = Counter()
    for game in ranks_test_games():
        for player in Player:
            ranks = dense_ranks(game.payoffs(player))
            levels = tuple(tuple(c for c in range(4) if ranks[c] == r) for r in range(1, max(ranks) + 1))
            edges = tuple((lo, hi) for level, nxt in zip(levels, levels[1:]) for lo in level for hi in nxt)
            assert ordinal_graph(game, player) == OrdinalGraph(levels, edges), (game, player)
            seen[len(levels)] += 1
    assert all(seen[k] for k in (1, 2, 3, 4)), seen


# --- best-response graphs -------------------------------------------------------


def test_br_graph_coordination(coordination):
    assert br_graph(coordination) == BRGraph(1, -1, 1, -1)


def test_br_graph_all_zero(all_zero):
    assert br_graph(all_zero) == BRGraph(0, 0, 0, 0)


def test_br_graph_matching_pennies(mp):
    assert br_graph(mp) == BRGraph(1, -1, -1, 1)


def test_br_graph_is_the_sign_tuple_on_all_81_patterns():
    """Each sign pattern lifted to a game: the graph is the pattern itself, and
    the report writes it as A (positive), B (negative) and - (zero)."""
    for pattern in itertools.product((1, -1, 0), repeat=4):
        a, b, c, d = pattern
        g = game_from_flat((a, b, 0, 0, c, 0, d, 0))
        assert br_graph(g) == pattern == signs(advantages(g))
        letters = " ".join("A" if x > 0 else "B" if x < 0 else "-" for x in pattern)
        assert f"br_graph {letters}" in _analysis_report(g).splitlines()


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
            assert br_graph(permute(g, *flags)) == permute_advantages(base, flags)


# --- classes ---------------------------------------------------------------------


def test_all_zero_class_is_singleton(all_zero):
    cls = br_class(all_zero)
    assert cls.canonical == BRGraph(0, 0, 0, 0)
    orbit = {permute_advantages(cls.canonical, flags) for flags in SYMMETRY_FLAGS}
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
    order = all_br_graphs()
    for graph in order:
        cls = class_from_br_graph(graph)
        orbit = {BRGraph(*permute_advantages(graph, flags)) for flags in SYMMETRY_FLAGS}
        assert cls.canonical in orbit
        assert order.index(cls.canonical) == min(order.index(g) for g in orbit)


# The class table as it was built before it followed the enumeration order:
# `BRGraph.encode`, `graphs.permute_br_graph`, `graphs._orbit` and
# `graphs._class_table`, kept as the reference with their names prefixed and
# their annotations dropped.


def reference_encode(self):
    """Total order over the 81 graphs: A < B < indifferent, fieldwise."""
    # Indexed by the sign: 1 -> 0, -1 -> 1, 0 -> 2.
    return tuple((2, 0, 1)[f] for f in self)


def reference_permute_br_graph(
    graph,
    swap_row_actions=False,
    swap_col_actions=False,
    swap_players=False,
):
    return BRGraph(*(
        sign * graph[k]
        for k, sign in ADVANTAGE_ACTION[swap_row_actions, swap_col_actions, swap_players]
    ))


def reference_orbit(graph):
    return {reference_permute_br_graph(graph, *flags) for flags in SYMMETRY_FLAGS}


def reference_class_table():
    """Map every BR graph to (canonical orbit representative, 1-based class index)."""
    canonical_of = {}
    for graph in all_br_graphs():
        if graph in canonical_of:
            continue
        orbit = reference_orbit(graph)
        rep = min(orbit, key=reference_encode)
        for member in orbit:
            canonical_of[member] = rep
    reps = sorted(set(canonical_of.values()), key=reference_encode)
    index_of = {rep: i + 1 for i, rep in enumerate(reps)}
    return {g: (rep, index_of[rep]) for g, rep in canonical_of.items()}


def test_class_table_equals_encode_ordered_table():
    """The first graph of each orbit in `all_br_graphs` order is the orbit's
    `encode`-least one, so the canonical graphs and the class numbers are
    those of the sort by `encode`."""
    expected = reference_class_table()
    assert len(expected) == 81
    for graph in all_br_graphs():
        cls = class_from_br_graph(graph)
        assert (cls.canonical, cls.index) == expected[graph], graph
    assert sorted(all_br_graphs(), key=reference_encode) == list(all_br_graphs())


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
    assert list(census().items()) == [
        ("strict_ordinal_total", 576),
        ("strict_ordinal_up_to_strategy", 144),
        ("strict_ordinal_up_to_strategy_and_player", 78),
        ("partial_ordinal_classes", 726),
        ("br_graphs", 81),
        ("br_classes", 15),
    ]


def census_burnside_partial_ordinal() -> int:
    """Cross-check: orbit count of rank-tuple pairs via Burnside's lemma."""
    partial = _dense_rank_tuples()
    total = 0
    for flags in SYMMETRY_FLAGS:
        total += sum(
            1
            for pair in itertools.product(partial, partial)
            if permute_cells(pair, *flags) == pair
        )
    orbits, remainder = divmod(total, len(SYMMETRY_FLAGS))
    if remainder:
        raise AssertionError("Burnside sum not divisible by group order")
    return orbits


def test_census_burnside_cross_check():
    assert census_burnside_partial_ordinal() == 726
