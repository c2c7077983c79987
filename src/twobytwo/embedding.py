"""Equilibrium-invariant 2D embedding of 2x2 games.

Each player's payoff table collapses to the advantage of action A over B
against each opponent pure action (`core.advantages`, the one place those
differences are taken).  Positive per-player scaling and per-opponent-action
offsets leave this pair invariant up to scale, so the coprime integer
direction it spans is an exact equilibrium-invariant coordinate; two such
directions describe the whole game.  `core.advantages` already gives each
pair as integers cleared of denominators; a direction is that pair divided
by its gcd.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import Game, advantages, permute_advantages, signs
from .graphs import BRClass, BRGraph, class_from_br_graph


@dataclass(frozen=True)
class EmbeddingPoint:
    """Canonical coprime integer directions, one per player.

    A direction is None exactly when that player is everywhere indifferent
    (the trivial case).  Signs are kept as-is: negating a direction changes
    the game class, so only the common positive factor is normalized away.
    """

    row_direction: tuple[int, int] | None
    col_direction: tuple[int, int] | None

    @property
    def row_angle_degrees(self) -> float | None:
        return _angle(self.row_direction)

    @property
    def col_angle_degrees(self) -> float | None:
        return _angle(self.col_direction)


def _angle(direction: tuple[int, int] | None) -> float | None:
    # Rendering-only float; exactness lives in the integer direction.
    if direction is None:
        return None
    x, y = direction
    try:
        return math.degrees(math.atan2(y, x)) % 360.0
    except OverflowError:
        # A component beyond float range: drop the same number of low bits
        # from both, which keeps their ratio, and so the angle, to float precision.
        shift = max(abs(x).bit_length(), abs(y).bit_length()) - 1000
        return math.degrees(math.atan2(y >> shift, x >> shift)) % 360.0


def _direction(a: int, b: int) -> tuple[int, int] | None:
    """An integer advantage pair reduced to coprime form; None if both are zero."""
    if a == 0 and b == 0:
        return None
    g = math.gcd(a, b)
    return (a // g, b // g)


def embed(game: Game) -> EmbeddingPoint:
    """Reduce both advantage vectors to canonical integer directions."""
    a, b, c, d = advantages(game)
    return EmbeddingPoint(row_direction=_direction(a, b), col_direction=_direction(c, d))


def _components(point: EmbeddingPoint) -> tuple[int, int, int, int]:
    """Both directions as one 4-tuple in `advantages` order; a trivial player's are zero."""
    return (point.row_direction or (0, 0)) + (point.col_direction or (0, 0))


def class_of_embedding(point: EmbeddingPoint) -> BRClass:
    """Equals br_class of any game with this embedding: the signs of the
    direction components are exactly its best-response graph."""
    return class_from_br_graph(BRGraph(*signs(_components(point))))


def permute_embedding(
    point: EmbeddingPoint,
    swap_row_actions: bool = False,
    swap_col_actions: bool = False,
    swap_players: bool = False,
) -> EmbeddingPoint:
    """Symmetry action on embeddings, mirroring `core.permute`.

    Swapping a player's own actions negates that player's direction; swapping
    the opponent's actions exchanges its two components; swapping players
    exchanges the directions.  The components move as the advantages they
    reduce (`core.permute_advantages`).
    """
    flags = (swap_row_actions, swap_col_actions, swap_players)
    x0, x1, y0, y1 = permute_advantages(_components(point), flags)
    return EmbeddingPoint(
        row_direction=(x0, x1) if x0 or x1 else None,
        col_direction=(y0, y1) if y0 or y1 else None,
    )
