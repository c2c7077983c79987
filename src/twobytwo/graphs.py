"""Ordinal graphs, best-response graphs, symmetry classes, and exhaustive censuses."""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .core import (
    ADVANTAGE_ACTION,
    CELL_NAMES,
    SYMMETRY_FLAGS,
    Game,
    Player,
    advantages,
    permute_cells,
)


@dataclass(frozen=True)
class OrdinalGraph:
    """One player's payoff order over the four cells.

    `levels` partitions the cell indices into groups of equal payoff, sorted
    by strictly increasing payoff.  `edges` connects every cell of one level
    to every cell of the next (complete bipartite between consecutive levels).
    """

    levels: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class BRGraph:
    """Four tri-state preference edges: 0 = prefers A, 1 = prefers B, None = indifferent."""

    row_given_col_a: int | None
    row_given_col_b: int | None
    col_given_row_a: int | None
    col_given_row_b: int | None

    def fields(self) -> tuple[int | None, int | None, int | None, int | None]:
        return (
            self.row_given_col_a,
            self.row_given_col_b,
            self.col_given_row_a,
            self.col_given_row_b,
        )

    def encode(self) -> tuple[int, int, int, int]:
        """Total order over the 81 graphs: A < B < indifferent, fieldwise."""
        return tuple(2 if f is None else f for f in self.fields())


@dataclass(frozen=True)
class BRClass:
    """A best-response graph orbit under the order-8 symmetry group."""

    canonical: BRGraph
    index: int
    name: str


@dataclass(frozen=True)
class CensusReport:
    strict_ordinal_total: int
    strict_ordinal_up_to_strategy: int
    strict_ordinal_up_to_strategy_and_player: int
    partial_ordinal_classes: int
    br_graph_total: int
    br_class_total: int

    def as_pairs(self) -> tuple[tuple[str, int], ...]:
        return (
            ("strict_ordinal_total", self.strict_ordinal_total),
            ("strict_ordinal_up_to_strategy", self.strict_ordinal_up_to_strategy),
            (
                "strict_ordinal_up_to_strategy_and_player",
                self.strict_ordinal_up_to_strategy_and_player,
            ),
            ("partial_ordinal_classes", self.partial_ordinal_classes),
            ("br_graphs", self.br_graph_total),
            ("br_classes", self.br_class_total),
        )


def dense_ranks(values: tuple) -> tuple[int, ...]:
    """Map values order-isomorphically onto {1..k}: the ordinal content of a payoff."""
    order = {v: i + 1 for i, v in enumerate(sorted(set(values)))}
    return tuple(order[v] for v in values)


def ordinal_graph(game: Game, player: Player) -> OrdinalGraph:
    """The player's payoff-order graph; depends only on dense ranks."""
    ranks = dense_ranks(game.payoffs(player))
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


def _preference(better_for_a: int) -> int | None:
    """The preference edge an advantage of A over B gives: A, B, or indifferent."""
    if better_for_a > 0:
        return 0
    if better_for_a < 0:
        return 1
    return None


def br_graph(game: Game) -> BRGraph:
    """Strict pairwise payoff comparisons, one per player per opposing action:
    the signs of the integer advantages."""
    return BRGraph(*map(_preference, advantages(game)))


def permute_br_graph(
    graph: BRGraph,
    swap_row_actions: bool = False,
    swap_col_actions: bool = False,
    swap_players: bool = False,
) -> BRGraph:
    """Symmetry action on BR graphs, mirroring `core.permute` exactly.

    Each edge is the sign of an advantage, so it moves as `core.ADVANTAGE_ACTION`
    moves that advantage; a negated advantage prefers the other action.
    """
    fields = graph.fields()
    return BRGraph(*(
        fields[k] if sign > 0 or fields[k] is None else 1 - fields[k]
        for k, sign in ADVANTAGE_ACTION[swap_row_actions, swap_col_actions, swap_players]
    ))


def all_br_graphs() -> tuple[BRGraph, ...]:
    states = (0, 1, None)
    return tuple(
        BRGraph(*fields) for fields in itertools.product(states, repeat=4)
    )


def _orbit(graph: BRGraph) -> set[BRGraph]:
    return {permute_br_graph(graph, *flags) for flags in SYMMETRY_FLAGS}


@functools.lru_cache(maxsize=1)
def _class_table() -> dict[BRGraph, tuple[BRGraph, int]]:
    """Map every BR graph to (canonical orbit representative, 1-based class index)."""
    canonical_of: dict[BRGraph, BRGraph] = {}
    for graph in all_br_graphs():
        if graph in canonical_of:
            continue
        orbit = _orbit(graph)
        rep = min(orbit, key=BRGraph.encode)
        for member in orbit:
            canonical_of[member] = rep
    reps = sorted(set(canonical_of.values()), key=BRGraph.encode)
    index_of = {rep: i + 1 for i, rep in enumerate(reps)}
    return {g: (rep, index_of[rep]) for g, rep in canonical_of.items()}


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


def census() -> CensusReport:
    """Exhaustive enumeration of the ordinal and best-response taxonomies."""
    strict = tuple(itertools.permutations((1, 2, 3, 4)))
    strict_pairs = tuple(itertools.product(strict, strict))
    strategy_flags = tuple(f for f in SYMMETRY_FLAGS if not f[2])

    partial = _dense_rank_tuples()
    partial_pairs = itertools.product(partial, partial)

    classes = {index for _, index in _class_table().values()}
    return CensusReport(
        strict_ordinal_total=len(strict_pairs),
        strict_ordinal_up_to_strategy=_count_orbits(strict_pairs, strategy_flags),
        strict_ordinal_up_to_strategy_and_player=_count_orbits(
            strict_pairs, SYMMETRY_FLAGS
        ),
        partial_ordinal_classes=_count_orbits(partial_pairs, SYMMETRY_FLAGS),
        br_graph_total=len(all_br_graphs()),
        br_class_total=len(classes),
    )


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


def format_ordinal_levels(graph: OrdinalGraph) -> str:
    """Compact text form: cells joined by '=' within a level, '<' between levels."""
    return "<".join("=".join(CELL_NAMES[i] for i in level) for level in graph.levels)
