"""Property tests on degenerate games: tied advantages, all-zero players,
magnitudes around and beyond 2**62, and large denominators.

The verifier's own checks serve as the properties, so a failure shrinks to a
minimal game.  Examples are derandomized, so every run tries the same games.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from twobytwo import verify
from twobytwo.core import JointDistribution, Player, game_from_flat
from twobytwo.equilibria import cce_polytope, deviation_gain, joint_in_cce, nash_set
from twobytwo.kernels import grid_oracle

PROPERTY_SETTINGS = settings(deadline=None, derandomize=True, database=None)

small = st.integers(-3, 3)  # small values make ties likely
near_2_62 = st.integers(2 ** 62 - 4, 2 ** 62 + 4) | st.integers(-(2 ** 62) - 4, -(2 ** 62) + 4)
huge = st.integers(-(2 ** 200), 2 ** 200)
large_denominator = st.builds(
    Fraction, st.integers(-(2 ** 70), 2 ** 70), st.integers(2 ** 40, 2 ** 80)
)
payoff = small | near_2_62 | huge | large_denominator

# Index pairs whose equality zeroes one advantage: a1 - c1, b1 - d1 for the
# row player and a2 - b2, c2 - d2 for the column player (flat indices).
_ADVANTAGE_PAIRS = ((0, 2), (1, 3), (4, 5), (6, 7))


@st.composite
def games(draw):
    flat = draw(st.lists(payoff, min_size=8, max_size=8))
    for (left, right), tie in zip(_ADVANTAGE_PAIRS, draw(st.lists(st.booleans(), min_size=4, max_size=4))):
        if tie:
            flat[right] = flat[left]
    for start, zero in zip((0, 4), draw(st.lists(st.booleans(), min_size=2, max_size=2))):
        if zero:
            flat[start:start + 4] = [0] * 4
    return game_from_flat(flat)


weight = st.integers(0, 3) | st.integers(0, 2 ** 80)


@st.composite
def games_and_joints(draw):
    """A game with a joint that is either a CCE vertex (on the boundary) or a random point."""
    game = draw(games())
    vertices = cce_polytope(game).vertices
    if draw(st.booleans()):
        return game, vertices[draw(st.integers(0, len(vertices) - 1))]
    weights = draw(st.lists(weight, min_size=4, max_size=4).filter(any))
    total = sum(weights)
    return game, JointDistribution(tuple(Fraction(w, total) for w in weights))


@settings(PROPERTY_SETTINGS, max_examples=150)
@given(games_and_joints())
def test_joint_in_cce_matches_raw_deviation_sums(case):
    game, dist = case
    raw = all(
        deviation_gain(game, player, action, dist) <= 0
        for player in (Player.ROW, Player.COL)
        for action in (0, 1)
    )
    assert joint_in_cce(game, dist) == raw


@settings(PROPERTY_SETTINGS, max_examples=40)
@given(games(), st.integers(0, 2 ** 32))
def test_check_cce_passes(game, seed):
    assert verify.check_cce(game, random.Random(seed)) == []


@settings(PROPERTY_SETTINGS, max_examples=80)
@given(games(), st.integers(1, 12))
def test_grid_oracle_agrees_at_small_n(game, n):
    ranges = verify.grid_ranges(nash_set(game), n)
    assert grid_oracle(n, verify.integerize(game.row), verify.integerize(game.col), ranges) is None
