"""Exact primitives for 2x2 games: payoffs, distributions, best responses, symmetries.

All payoffs and probabilities are `fractions.Fraction` values, so every
comparison (ties, indifference, constraint feasibility) is decided exactly.
No floating point enters any equilibrium-bearing computation.  Most decisions
are signs, and those are taken on integers: each player's advantage pair is
computed once per `Game` in lowest integer terms (`advantages`), and a best
response or the validity of a joint is decided on numerators cleared of their
denominators.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence, Union

Rational = Fraction
RationalLike = Union[Fraction, int, str]

_ZERO = Fraction(0)

# Joint-action cells in flat order, row-major for the row player.
CELLS = ((0, 0), (0, 1), (1, 0), (1, 1))
CELL_NAMES = ("AA", "AB", "BA", "BB")


class Player(enum.Enum):
    ROW = 0
    COL = 1


#: Most digits a string literal may carry, counting the magnitude of a decimal
#: exponent as that many digits ("1e399" and "1/" followed by 399 digits are
#: the largest).  Every number in an `analyze` report has at most about 8x the
#: digits of the longest literal, so a report of 8 such literals stays under
#: CPython's 4300-digit limit for int-to-str conversion; the bound also caps
#: the work of parsing one literal.
MAX_LITERAL_DIGITS = 400

#: The payoff-literal grammar: `Fraction`'s grammar of Python 3.13 in ASCII and
#: without whitespace.  An optional sign, then digits with `_` only between two
#: digits, then a `/denominator`, or `.decimals` and an optional `e` exponent.
_DIGITS = r"[0-9]+(?:_[0-9]+)*"
_LITERAL = re.compile(
    rf"(?P<mantissa>[-+]?(?=\.?[0-9])(?:{_DIGITS})?(?:/{_DIGITS}\Z|\.(?:{_DIGITS})?)?)"
    rf"(?:[eE][-+]?(?P<exponent>{_DIGITS}))?"
)

#: Matches a token that starts a negative literal: "-" then an ASCII digit or
#: ".digit".  A command line reads any other token starting with "-" as an option.
NEGATIVE_LITERAL_START = re.compile(r"-\.?[0-9]")


def as_rational(value: RationalLike) -> Fraction:
    """Coerce a payoff literal to an exact rational.

    Decimal strings are parsed as exact decimal fractions (".4" -> 2/5),
    never as binary floats.  Accepts "n/d" fraction syntax and `_` between
    digits.  A string must match the literal grammar, and one with more than
    `MAX_LITERAL_DIGITS` digits (an exponent counted as its magnitude) is
    rejected before it is converted.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    match = _LITERAL.fullmatch(value) if isinstance(value, str) else None
    if match is None:
        raise ValueError(f"invalid rational literal {value!r}")
    mantissa, exponent = match.group("mantissa", "exponent")
    exponent = (exponent or "").replace("_", "").lstrip("0")
    if (
        len(exponent) > len(str(MAX_LITERAL_DIGITS))
        or sum(map(str.isdigit, mantissa)) + int(exponent or "0") > MAX_LITERAL_DIGITS
    ):
        raise ValueError(f"rational literal {value!r} has more than {MAX_LITERAL_DIGITS} digits")
    try:
        return Fraction(value.replace("_", ""))
    except ZeroDivisionError as exc:
        raise ValueError(f"invalid rational literal {value!r}") from exc


def format_rational(value: Fraction) -> str:
    """Serialize exactly: `num/den`, or plain integer when den == 1."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _cleared_differences(x0: Fraction, x1: Fraction, y0: Fraction, y1: Fraction) -> tuple[int, int]:
    """(x0 - x1, y0 - y1) times the lcm of the pair's denominators, as integers.

    Both differences are first cleared by the lcm L of the four denominators,
    giving integers A and B; dividing by gcd(A, B, L) leaves exactly the lcm
    of the two differences' own denominators, so the result equals
    `integerize((x0 - x1, y0 - y1))` without building a `Fraction`.
    """
    common = math.lcm(x0.denominator, x1.denominator, y0.denominator, y1.denominator)
    a = x0.numerator * (common // x0.denominator) - x1.numerator * (common // x1.denominator)
    b = y0.numerator * (common // y0.denominator) - y1.numerator * (common // y1.denominator)
    g = math.gcd(a, b, common)
    return a // g, b // g


@dataclass(frozen=True)
class Game:
    """A 2x2 game: one payoff per player per joint action.

    Payoff tuples are in flat cell order (AA, AB, BA, BB); the first action
    index is the row player's, the second the column player's.  The players'
    advantages are computed once, when the game is built; read them through
    `advantages`.
    """

    row: tuple[Fraction, Fraction, Fraction, Fraction]
    col: tuple[Fraction, Fraction, Fraction, Fraction]
    _advantages: tuple[int, int, int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        r, c = self.row, self.col
        adv = _cleared_differences(r[0], r[2], r[1], r[3]) + _cleared_differences(c[0], c[1], c[2], c[3])
        object.__setattr__(self, "_advantages", adv)

    def payoff(self, player: Player, row_action: int, col_action: int) -> Fraction:
        table = self.row if player is Player.ROW else self.col
        return table[2 * row_action + col_action]

    def payoffs(self, player: Player) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return self.row if player is Player.ROW else self.col


@dataclass(frozen=True)
class JointDistribution:
    """A distribution over the four joint actions; a point in the 3-simplex.

    Building one checks that its probabilities are nonnegative and sum to
    one.  Joints made from nonnegative integer weights, the vertices of
    `equilibria.cce_polytope` and `product_joint`, are built by
    `_joint_from_weights` and skip that check, since w / sum(w) is valid by
    construction.  `verify.check_cce` checks each polytope vertex instead:
    its sum, and its signs through the nonnegativity rows.
    """

    prob: tuple[Fraction, Fraction, Fraction, Fraction]

    def __post_init__(self) -> None:
        # Both tests run on integers: no numerator is negative, and the
        # numerators scaled to the lcm of the denominators sum to that lcm.
        prob = self.prob
        try:
            common = math.lcm(*[p.denominator for p in prob])
        except AttributeError:
            bad = next(p for p in prob if not hasattr(p, "denominator"))
            raise ValueError(f"joint probability {bad!r} is not an int or Fraction") from None
        if any(p.numerator < 0 for p in prob):
            shown = " ".join(map(format_rational, prob))
            raise ValueError(f"negative joint probability in {shown}")
        if sum([p.numerator * (common // p.denominator) for p in prob]) != common:
            shown = " ".join(map(format_rational, prob))
            raise ValueError(f"joint probabilities must sum to 1, got {shown}")

    def __getitem__(self, cell: int) -> Fraction:
        return self.prob[cell]


@dataclass(frozen=True)
class MarginalPair:
    """Each player's probability of playing action A."""

    row_prob_a: Fraction
    col_prob_a: Fraction

    def __post_init__(self) -> None:
        # Both tests read the numerator and the (positive) denominator.
        for value in (self.row_prob_a, self.col_prob_a):
            try:
                inside = 0 <= value.numerator <= value.denominator
            except AttributeError:
                raise ValueError(f"marginal probability {value!r} is not an int or Fraction") from None
            if not inside:
                raise ValueError(f"marginal probability {value} outside [0, 1]")


@dataclass(frozen=True)
class ConditionalTable:
    """Distributions over the other player's actions, one per conditioning action.

    A row is None exactly when the conditioning action has probability zero.
    """

    rows: tuple[tuple[Fraction, Fraction] | None, tuple[Fraction, Fraction] | None]


def _joint_from_weights(weights: Sequence[int]) -> JointDistribution:
    """The joint w / sum(w) of nonnegative integer weights with a positive
    sum, built without `JointDistribution.__post_init__`; zero cells share one
    zero."""
    total = sum(weights)
    dist = object.__new__(JointDistribution)
    object.__setattr__(dist, "prob", tuple([Fraction(w, total) if w else _ZERO for w in weights]))
    return dist


def joint(values: Iterable[RationalLike]) -> JointDistribution:
    """Build a JointDistribution from four probability literals."""
    probs = tuple(as_rational(v) for v in values)
    if len(probs) != 4:
        raise ValueError(f"expected 4 joint probabilities, got {len(probs)}")
    return JointDistribution(probs)


def game_from_flat(values: Sequence[RationalLike]) -> Game:
    """Build a Game from the flat 8-tuple: row player row-major, then column player."""
    flat = tuple(as_rational(v) for v in values)
    if len(flat) != 8:
        raise ValueError(f"expected 8 payoff values, got {len(flat)}")
    return Game(row=flat[:4], col=flat[4:])


def game_to_flat(game: Game) -> tuple[Fraction, ...]:
    return game.row + game.col


def advantages(game: Game) -> tuple[int, int, int, int]:
    """Each player's payoff advantage of action A over B against each opposing pure action.

    In order: the row player's against column action A, then B; the column
    player's against row action A, then B.  Each player's pair is the exact
    differences times the lcm of their denominators, so it is an integer pair
    with the signs, zeros and ratio of the differences:
    `integerize((r0 - r2, r1 - r3)) + integerize((c0 - c1, c2 - c3))`.  It is
    computed once per `Game`, when the game is built.  The best-response
    graph is their `signs`, the embedding their reduced directions, and the
    Nash set and the CCE constraints are functions of them.
    """
    return game._advantages


def signs(adv: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    """The sign (1, -1 or 0) of each advantage: the best-response graph, and the
    key of the equilibrium tables."""
    a, b, c, d = adv
    return (a > 0) - (a < 0), (b > 0) - (b < 0), (c > 0) - (c < 0), (d > 0) - (d < 0)


def integerize(values: Iterable[Fraction]) -> tuple[int, ...]:
    """The values times the lcm of their denominators.

    A positive scaling to integers: every sign, zero and ratio is kept, so a
    player's best responses and equilibria are unchanged by it.
    """
    values = tuple(values)
    common = math.lcm(*[v.denominator for v in values])
    return tuple([v.numerator * (common // v.denominator) for v in values])


def expected_payoff(game: Game, player: Player, dist: JointDistribution) -> Fraction:
    """Expected payoff of `player` under the joint distribution, exact."""
    table = game.payoffs(player)
    return sum((dist.prob[i] * table[i] for i in range(4)), Fraction(0))


def best_response_set(
    game: Game, player: Player, opponent_mix: RationalLike
) -> frozenset[int]:
    """Actions maximizing `player`'s expected payoff against the opponent mix.

    `opponent_mix` is the opponent's probability of playing action A.  Both
    actions are returned exactly when the expected payoffs tie.
    """
    q = as_rational(opponent_mix)
    n, d = q.numerator, q.denominator
    if not 0 <= n <= d:
        raise ValueError(f"opponent mix {q} outside [0, 1]")
    # Both expected payoffs on the table cleared of denominators, times d.
    h = integerize(game.payoffs(player))
    if player is Player.ROW:
        value_a = n * h[0] + (d - n) * h[1]
        value_b = n * h[2] + (d - n) * h[3]
    else:
        value_a = n * h[0] + (d - n) * h[2]
        value_b = n * h[1] + (d - n) * h[3]
    if value_a > value_b:
        return frozenset((0,))
    if value_b > value_a:
        return frozenset((1,))
    return frozenset((0, 1))


def marginals_from_joint(dist: JointDistribution) -> MarginalPair:
    p = dist.prob
    return MarginalPair(row_prob_a=p[0] + p[1], col_prob_a=p[0] + p[2])


def conditional(dist: JointDistribution, conditioning_player: Player) -> ConditionalTable:
    """Condition the joint on each of one player's actions.

    Rows with zero conditioning probability are absent (None), not invented.
    """
    p = dist.prob
    if conditioning_player is Player.ROW:
        groups = ((p[0], p[1]), (p[2], p[3]))
    else:
        groups = ((p[0], p[2]), (p[1], p[3]))
    rows = []
    for pair in groups:
        total = pair[0] + pair[1]
        rows.append(None if total == 0 else (pair[0] / total, pair[1] / total))
    return ConditionalTable(rows=(rows[0], rows[1]))


def product_joint(marginals: MarginalPair) -> JointDistribution:
    """Outer product of the two marginals.

    For p = a/b and q = c/d the joint times b*d has the integer cell weights
    (a*c, a*(d-c), (b-a)*c, (b-a)*(d-c)), nonnegative since the marginals
    are probabilities; each becomes one `Fraction`.
    """
    p, q = marginals.row_prob_a, marginals.col_prob_a
    a, b, c, d = p.numerator, p.denominator, q.numerator, q.denominator
    return _joint_from_weights((a * c, a * (d - c), (b - a) * c, (b - a) * (d - c)))


def transform_affine(
    game: Game,
    player: Player,
    scale: RationalLike,
    offset_given_opponent_a: RationalLike,
    offset_given_opponent_b: RationalLike,
) -> Game:
    """Rescale one player's payoffs and shift them per opponent action.

    The offset is indexed by the *opponent's* action, which is what leaves
    best responses (and hence all equilibrium sets) unchanged.
    """
    s = as_rational(scale)
    if s <= 0:
        raise ValueError(f"scale must be positive, got {s}")
    offsets = (as_rational(offset_given_opponent_a), as_rational(offset_given_opponent_b))
    if player is Player.ROW:
        # Opponent is the column player: offset indexed by the column action.
        new_row = tuple(s * game.row[i] + offsets[i % 2] for i in range(4))
        return Game(row=new_row, col=game.col)
    # Opponent is the row player: offset indexed by the row action.
    new_col = tuple(s * game.col[i] + offsets[i // 2] for i in range(4))
    return Game(row=game.row, col=new_col)


#: The order-8 symmetry group, keyed by its flags (swap_row_actions,
#: swap_col_actions, swap_players).  Each element is a cell permutation pi over
#: (AA, AB, BA, BB) and a player-swap bit: the image of a game has at cell i
#: the payoff of cell pi[i], read from the other player's table when the bit is
#: set.  The flags compose in a fixed order: player swap first, then row-action
#: swap, then column-action swap (the action flags refer to the resulting
#: orientation).
SYMMETRY_TABLE = {
    (False, False, False): ((0, 1, 2, 3), False),
    (False, True, False): ((1, 0, 3, 2), False),
    (True, False, False): ((2, 3, 0, 1), False),
    (True, True, False): ((3, 2, 1, 0), False),
    (False, False, True): ((0, 2, 1, 3), True),
    (False, True, True): ((2, 0, 3, 1), True),
    (True, False, True): ((1, 3, 0, 2), True),
    (True, True, True): ((3, 1, 2, 0), True),
}

#: All 8 symmetry flags as (swap_row_actions, swap_col_actions, swap_players).
SYMMETRY_FLAGS = tuple(SYMMETRY_TABLE)


def permute_cells(
    pair: tuple[tuple, tuple],
    swap_row_actions: bool = False,
    swap_col_actions: bool = False,
    swap_players: bool = False,
) -> tuple[tuple, tuple]:
    """The symmetry action on a (row player's, column player's) pair of per-cell tuples."""
    perm, swap = SYMMETRY_TABLE[swap_row_actions, swap_col_actions, swap_players]
    u, v = pair[::-1] if swap else pair
    return tuple(u[k] for k in perm), tuple(v[k] for k in perm)


def permute(
    game: Game,
    swap_row_actions: bool = False,
    swap_col_actions: bool = False,
    swap_players: bool = False,
) -> Game:
    """Apply a symmetry of the game: relabel actions and/or exchange players.

    The 8 flag combinations realize the full order-8 symmetry group; see
    `SYMMETRY_TABLE` for the order in which they apply.
    """
    row, col = permute_cells((game.row, game.col), swap_row_actions, swap_col_actions, swap_players)
    return Game(row=row, col=col)


def _advantage_action(flags: tuple[bool, bool, bool]) -> tuple[tuple[int, int], ...]:
    # Read the action off a game whose payoff differences are distinct even up to sign.
    generic = Game(row=(1, 2, 4, 8), col=(16, 32, 64, 128))
    before = advantages(generic)
    return tuple(
        (before.index(v), 1) if v in before else (before.index(-v), -1)
        for v in advantages(permute(generic, *flags))
    )


#: Each symmetry's action on the four `advantages` components, derived from
#: `SYMMETRY_TABLE`: component k of the image's advantages is sign times
#: component index of the original's, for (index, sign) = ADVANTAGE_ACTION[flags][k].
ADVANTAGE_ACTION = {flags: _advantage_action(flags) for flags in SYMMETRY_TABLE}


def permute_advantages(values: Sequence[int], flags: tuple[bool, bool, bool]) -> tuple[int, ...]:
    """The symmetry `flags` on any 4-tuple in `advantages` order: the
    advantages of `permute(game, *flags)` from those of `game`, and so also
    their signs (a best-response graph) and their reduced directions."""
    return tuple([sign * values[k] for k, sign in ADVANTAGE_ACTION[flags]])
