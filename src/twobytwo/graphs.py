"""Ordinal graphs, best-response graphs, symmetry classes, and exhaustive censuses."""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple

from .core import (
    CELL_NAMES,
    SYMMETRY_FLAGS,
    Game,
    Player,
    advantages,
    integerize,
    permute_advantages,
    permute_cells,
    signs,
)


class OrdinalGraph(NamedTuple):
    """One player's payoff order over the four cells.

    `levels` partitions the cell indices into groups of equal payoff, sorted
    by strictly increasing payoff.  `edges` connects every cell of one level
    to every cell of the next (complete bipartite between consecutive levels).
    """

    levels: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int], ...]


class BRGraph(NamedTuple):
    """Four tri-state preference edges, each the sign of its advantage
    (`core.signs`): 1 = prefers A, -1 = prefers B, 0 = indifferent.

    The graph is the 4-tuple that keys the equilibrium tables of `equilibria`.
    """

    row_given_col_a: int
    row_given_col_b: int
    col_given_row_a: int
    col_given_row_b: int


class BRClass(NamedTuple):
    """A best-response graph orbit under the order-8 symmetry group."""

    canonical: BRGraph
    index: int
    name: str


def dense_ranks(values: tuple) -> tuple[int, ...]:
    """Map values order-isomorphically onto {1..k}: the ordinal content of a payoff."""
    order = {v: i + 1 for i, v in enumerate(sorted(set(values)))}
    return tuple(order[v] for v in values)


def ordinal_graph(game: Game, player: Player) -> OrdinalGraph:
    """The player's payoff-order graph; depends only on dense ranks.

    The ranks are taken on the payoffs cleared of denominators: a positive
    scaling keeps their order and ties, and integers are cheaper to hash and
    compare than `Fraction`s.
    """
    ranks = dense_ranks(integerize(game.payoffs(player)))
    top = max(ranks)
    levels = tuple(
        tuple(i for i in range(4) if ranks[i] == level) for level in range(1, top + 1)
    )
    edges = tuple(
        (lo, hi)
        for level, nxt in zip(levels, levels[1:])
        for lo in level
        for hi in nxt
    )
    return OrdinalGraph(levels=levels, edges=edges)


def br_graph(game: Game) -> BRGraph:
    """Strict pairwise payoff comparisons, one per player per opposing action:
    the signs of the integer advantages."""
    return BRGraph(*signs(advantages(game)))


def all_br_graphs() -> tuple[BRGraph, ...]:
    """The 81 graphs in lexicographic order, each edge ordered A < B < indifferent."""
    return tuple(BRGraph(*edges) for edges in itertools.product((1, -1, 0), repeat=4))


@functools.lru_cache(maxsize=1)
def _class_table() -> dict[BRGraph, tuple[BRGraph, int]]:
    """Map every BR graph to (canonical orbit representative, 1-based class index).

    Each edge is the sign of an advantage, so a graph's orbit is its images
    under `core.permute_advantages`.  The canonical graph of an orbit is its
    first in `all_br_graphs` order, and classes are numbered in that order.
    """
    table: dict[BRGraph, tuple[BRGraph, int]] = {}
    index = 0
    for graph in all_br_graphs():
        if graph not in table:
            index += 1
            orbit = (BRGraph(*permute_advantages(graph, flags)) for flags in SYMMETRY_FLAGS)
            table.update(dict.fromkeys(orbit, (graph, index)))
    return table


#: The best-response classes with a name; every other class is `class-{index}`.
_CLASS_NAMES = {6: "coordination", 7: "safety", 8: "cyclic", 10: "horseplay", 15: "zero"}


def class_from_br_graph(graph: BRGraph) -> BRClass:
    canonical, index = _class_table()[graph]
    return BRClass(canonical=canonical, index=index, name=_CLASS_NAMES.get(index, f"class-{index}"))


def br_class(game: Game) -> BRClass:
    """The game's best-response class: constant on symmetry orbits, 15 in total."""
    return class_from_br_graph(br_graph(game))


# --- census -----------------------------------------------------------------

def _count_orbits(pairs, flags) -> int:
    seen = set()
    count = 0
    for pair in pairs:
        if pair in seen:
            continue
        count += 1
        for f in flags:
            seen.add(permute_cells(pair, *f))
    return count


def _dense_rank_tuples() -> tuple[tuple[int, ...], ...]:
    """All rank tuples over 4 cells whose values fill an initial segment {1..k}."""
    out = []
    for values in itertools.product((1, 2, 3, 4), repeat=4):
        if set(values) == set(range(1, max(values) + 1)):
            out.append(values)
    return tuple(out)


def census() -> dict[str, int]:
    """Exhaustive enumeration of the ordinal and best-response taxonomies:
    each count under the name that `twobytwo census` prints it with, in that order."""
    strict = tuple(itertools.permutations((1, 2, 3, 4)))
    strict_pairs = tuple(itertools.product(strict, strict))
    strategy_flags = tuple(f for f in SYMMETRY_FLAGS if not f[2])

    partial = _dense_rank_tuples()
    partial_pairs = itertools.product(partial, partial)

    classes = {index for _, index in _class_table().values()}
    return {
        "strict_ordinal_total": len(strict_pairs),
        "strict_ordinal_up_to_strategy": _count_orbits(strict_pairs, strategy_flags),
        "strict_ordinal_up_to_strategy_and_player": _count_orbits(strict_pairs, SYMMETRY_FLAGS),
        "partial_ordinal_classes": _count_orbits(partial_pairs, SYMMETRY_FLAGS),
        "br_graphs": len(all_br_graphs()),
        "br_classes": len(classes),
    }


def format_ordinal_levels(graph: OrdinalGraph) -> str:
    """Compact text form: cells joined by '=' within a level, '<' between levels."""
    return "<".join("=".join(CELL_NAMES[i] for i in level) for level in graph.levels)
