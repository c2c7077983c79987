"""Equilibrium-invariant 2D embedding of 2x2 games.

Each player's payoff table collapses to the advantage of action A over B
against each opponent pure action.  Positive per-player scaling and
per-opponent-action offsets leave this pair invariant up to scale, so the
coprime integer direction it spans is an exact equilibrium-invariant
coordinate; two such directions describe the whole game.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import Game, Player
from .graphs import BRClass, BRGraph, class_from_br_graph


@dataclass(frozen=True)
class AdvantageVector:
    """Payoff advantage of action A over B against each opponent pure action."""

    given_opponent_a: Fraction
    given_opponent_b: Fraction


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


def advantage(game: Game, player: Player) -> AdvantageVector:
    if player is Player.ROW:
        r = game.row
        return AdvantageVector(r[0] - r[2], r[1] - r[3])
    c = game.col
    return AdvantageVector(c[0] - c[1], c[2] - c[3])


def _direction(vec: AdvantageVector) -> tuple[int, int] | None:
    x, y = vec.given_opponent_a, vec.given_opponent_b
    if x == 0 and y == 0:
        return None
    common = math.lcm(x.denominator, y.denominator)
    a = x.numerator * (common // x.denominator)
    b = y.numerator * (common // y.denominator)
    g = math.gcd(a, b)
    return (a // g, b // g)


def embed(game: Game) -> EmbeddingPoint:
    """Reduce both advantage vectors to canonical integer directions."""
    return EmbeddingPoint(
        row_direction=_direction(advantage(game, Player.ROW)),
        col_direction=_direction(advantage(game, Player.COL)),
    )


def _sign(component: int) -> int | None:
    if component > 0:
        return 0
    if component < 0:
        return 1
    return None


def br_graph_of_embedding(point: EmbeddingPoint) -> BRGraph:
    """The sign pattern of the directions is exactly the best-response graph."""
    row = point.row_direction or (0, 0)
    col = point.col_direction or (0, 0)
    return BRGraph(
        row_given_col_a=_sign(row[0]),
        row_given_col_b=_sign(row[1]),
        col_given_row_a=_sign(col[0]),
        col_given_row_b=_sign(col[1]),
    )


def class_of_embedding(point: EmbeddingPoint) -> BRClass:
    """Equals br_class of any game with this embedding."""
    return class_from_br_graph(br_graph_of_embedding(point))


def _negate(d: tuple[int, int] | None) -> tuple[int, int] | None:
    return None if d is None else (-d[0], -d[1])


def _swap(d: tuple[int, int] | None) -> tuple[int, int] | None:
    return None if d is None else (d[1], d[0])


def permute_embedding(
    point: EmbeddingPoint,
    swap_row_actions: bool = False,
    swap_col_actions: bool = False,
    swap_players: bool = False,
) -> EmbeddingPoint:
    """Symmetry action on embeddings, mirroring `core.permute`.

    Swapping a player's own actions negates that player's direction; swapping
    the opponent's actions exchanges its two components; swapping players
    exchanges the directions.
    """
    row, col = point.row_direction, point.col_direction
    if swap_players:
        row, col = col, row
    if swap_row_actions:
        row = _negate(row)
        col = _swap(col)
    if swap_col_actions:
        row = _swap(row)
        col = _negate(col)
    return EmbeddingPoint(row_direction=row, col_direction=col)
