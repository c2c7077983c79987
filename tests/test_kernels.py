import random
from fractions import Fraction as F

from twobytwo import verify
from twobytwo.core import MarginalPair, game_from_flat
from twobytwo.equilibria import is_nash, nash_set
from twobytwo.kernels import grid_oracle


def oracle_inputs(game, n):
    return (
        verify.integerize(game.row),
        verify.integerize(game.col),
        verify.grid_ranges(nash_set(game), n),
    )


def test_pure_kernel_agrees_with_exact_routes_on_coarse_grid():
    rng = random.Random(1)
    n = 20
    for _ in range(40):
        g = verify.random_game(rng)
        h_row, h_col, ranges = oracle_inputs(g, n)
        assert grid_oracle(n, h_row, h_col, ranges) is None
        # spot-check the oracle's implicit classification against is_nash
        for _ in range(10):
            i, j = rng.randint(0, n), rng.randint(0, n)
            member = is_nash(g, MarginalPair(F(i, n), F(j, n)))
            boxed = any(
                lo_i <= i <= hi_i and lo_j <= j <= hi_j
                for lo_i, hi_i, lo_j, hi_j in ranges
            )
            assert member == boxed


def test_mismatch_reported_for_empty_boxes(pd):
    # (0, 0) is the unique equilibrium: dropping the boxes must be caught there
    h_row, h_col, _ = oracle_inputs(pd, 10)
    assert grid_oracle(10, h_row, h_col, []) == (2, 0, 0)


def test_oracle_clean_on_seeded_games_at_full_grid():
    rng = random.Random(5)
    for _ in range(20):
        g = verify.random_game(rng)
        h_row, h_col, ranges = oracle_inputs(g, 100)
        assert grid_oracle(100, h_row, h_col, ranges) is None


def test_oracle_exact_for_huge_payoffs():
    for flat in [
        tuple(x * 10 ** 30 for x in (1, -3, 0, -2, -1, 0, -3, -2)),
        # beyond 2**62, with a denominator, and a mixed equilibrium inside the square
        (2 ** 63 + 1, 0, 0, F(2 ** 62 + 3, 7), 2 ** 64, 0, 0, 3 * 2 ** 63),
    ]:
        g = game_from_flat(flat)
        h_row, h_col, ranges = oracle_inputs(g, 100)
        assert max(abs(v) for v in (*h_row, *h_col)) > 2 ** 62
        assert grid_oracle(100, h_row, h_col, ranges) is None
        assert grid_oracle(100, h_row, h_col, [])[0] == 2  # pure equilibria are lattice points
