import itertools
import math
import random
from fractions import Fraction as F

from twobytwo.core import Player, SYMMETRY_FLAGS, advantages, game_from_flat, permute, transform_affine
from twobytwo.embedding import (
    EmbeddingPoint,
    class_of_embedding,
    embed,
    permute_embedding,
)
from twobytwo.graphs import br_class
from twobytwo import verify


def game_from_advantages(row_adv, col_adv):
    """A game whose advantage vectors are exactly the given pairs."""
    (a, b), (c, d) = row_adv, col_adv
    return game_from_flat((a, b, 0, 0, c, 0, d, 0))


# --- advantage vectors -----------------------------------------------------------


def test_advantage_coordination(coordination):
    assert advantages(coordination)[:2] == (2, -1)  # the row player's pair


def test_advantage_all_zero(all_zero):
    assert advantages(all_zero) == (0, 0, 0, 0)


def test_advantage_matching_pennies(mp):
    assert advantages(mp)[:2] == (2, -2)
    assert advantages(mp)[2:] == (-2, 2)


def test_advantage_offsets_cancel():
    rng = random.Random(3)
    for _ in range(60):
        g = verify.random_game(rng)
        p = rng.choice((Player.ROW, Player.COL))
        pair = slice(0, 2) if p is Player.ROW else slice(2, 4)
        g2 = transform_affine(g, p, 1, verify.random_rational(rng), verify.random_rational(rng))
        assert advantages(g2)[pair] == advantages(g)[pair]


# --- embedding points --------------------------------------------------------------


def test_embed_coordination(coordination):
    point = embed(coordination)
    assert point.row_direction == (2, -1)
    assert point.col_direction == (2, -1)


def test_embed_all_zero_is_trivial(all_zero):
    point = embed(all_zero)
    assert point.row_direction is None and point.col_direction is None
    assert point.row_angle_degrees is None and point.col_angle_degrees is None


def test_embed_affine_invariant_exactly(coordination):
    transformed = transform_affine(coordination, Player.ROW, 7, 3, -5)
    assert embed(transformed) == embed(coordination)
    rng = random.Random(5)
    for _ in range(80):
        g = verify.random_game(rng)
        p = rng.choice((Player.ROW, Player.COL))
        scale = F(rng.randint(1, 12), rng.randint(1, 7))
        g2 = transform_affine(g, p, scale, verify.random_rational(rng), verify.random_rational(rng))
        assert embed(g2) == embed(g)


def test_directions_are_coprime_and_scale_free():
    rng = random.Random(7)
    for _ in range(80):
        g = verify.random_game(rng)
        point = embed(g)
        for direction in (point.row_direction, point.col_direction):
            if direction is None:
                continue
            assert math.gcd(direction[0], direction[1]) == 1
        scaled = transform_affine(g, Player.ROW, F(rng.randint(1, 50), rng.randint(1, 50)), 0, 0)
        assert embed(scaled) == embed(g)


def test_angles_from_atan2(mp):
    point = embed(mp)
    assert point.row_direction == (1, -1)
    assert point.row_angle_degrees == math.degrees(math.atan2(-1, 1)) % 360
    assert point.col_direction == (-1, 1)


def test_angles_of_directions_beyond_float_range():
    huge = 10**400  # math.atan2 alone raises OverflowError on this
    assert EmbeddingPoint((huge, huge), None).row_angle_degrees == 45.0
    assert EmbeddingPoint(None, (huge, -huge - 1)).col_angle_degrees == 315.0
    assert EmbeddingPoint((-huge, 3), None).row_angle_degrees == 180.0
    angle = EmbeddingPoint((3 * huge, -4 * huge), None).row_angle_degrees
    assert math.isclose(angle, math.degrees(math.atan2(-4, 3)) % 360, rel_tol=1e-15)


# --- class consistency ----------------------------------------------------------------


def test_trivial_embedding_class(all_zero):
    point = embed(all_zero)
    assert class_of_embedding(point).name == "zero"
    assert class_of_embedding(point) == br_class(all_zero)


def test_matching_pennies_embedding_is_cyclic(mp):
    assert class_of_embedding(embed(mp)).name == "cyclic"


def test_coordination_embedding_class(coordination):
    assert class_of_embedding(embed(coordination)).name == "coordination"


def test_class_consistency_all_81_sign_patterns():
    values = {0: F(0), 1: F(3, 2), -1: F(-2, 3)}
    signs = (1, -1, 0)
    for sa, sb, sc, sd in itertools.product(signs, repeat=4):
        g = game_from_advantages((values[sa], values[sb]), (values[sc], values[sd]))
        assert class_of_embedding(embed(g)) == br_class(g)


def test_class_consistency_random_games():
    rng = random.Random(11)
    for _ in range(150):
        g = verify.random_game(rng)
        assert class_of_embedding(embed(g)) == br_class(g)


# --- equivariance -----------------------------------------------------------------------


def test_permute_equivariance_all_flags():
    rng = random.Random(13)
    for _ in range(60):
        g = verify.random_game(rng)
        base = embed(g)
        for flags in SYMMETRY_FLAGS:
            assert embed(permute(g, *flags)) == permute_embedding(base, *flags)


def test_permute_embedding_mapping_table():
    point = EmbeddingPoint(row_direction=(2, -1), col_direction=(3, 5))
    assert permute_embedding(point, swap_row_actions=True) == EmbeddingPoint((-2, 1), (5, 3))
    assert permute_embedding(point, swap_col_actions=True) == EmbeddingPoint((-1, 2), (-3, -5))
    assert permute_embedding(point, swap_players=True) == EmbeddingPoint((3, 5), (2, -1))
