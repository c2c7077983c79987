import inspect
import random
from fractions import Fraction as F

from conftest import ALL_ZERO, COORDINATION, MATCHING_PENNIES, PRISONERS_DILEMMA
from reference import box_variants, reference_grid_oracle
from twobytwo import verify
from twobytwo.core import MarginalPair, game_from_flat
from twobytwo.equilibria import is_nash, nash_set
from twobytwo.kernels import grid_oracle


def oracle_cases():
    rng = random.Random(9)
    games = [verify.random_game(rng) for _ in range(8)]
    games += [game_from_flat(flat) for flat in (ALL_ZERO, COORDINATION, MATCHING_PENNIES, PRISONERS_DILEMMA)]
    games += [
        game_from_flat(tuple(x * 10 ** 30 for x in PRISONERS_DILEMMA)),
        game_from_flat((2 ** 63 + 1, 0, 0, F(2 ** 62 + 3, 7), 2 ** 64, 0, 0, 3 * 2 ** 63)),
    ]
    # Unit-lattice games: one player all zero, and a column line that is zero
    # exactly on an interior row (p = 1/2 on even grids, 3/7 on n = 7) where,
    # the row player having a strict best action, no box starts or ends.
    games += [
        game_from_flat(flat)
        for flat in (
            (0, 0, 0, 0, 1, 0, 0, 1),
            (1, 0, 0, 1, 0, 0, 0, 0),
            (0, 0, 0, 0, 1, -1, 1, 0),
            (1, 1, 0, 0, 1, 0, 0, 1),
            (0, 0, 1, 1, 4, 0, 0, 3),
        )
    ]
    small = [verify.random_game(rng) for _ in range(40)] + games
    for n, draws in ((100, games), (7, small), (2, small), (1, small), (0, small)):
        for g in draws:
            h_row, h_col, ranges = oracle_inputs(g, n)
            for boxes in box_variants(ranges, n):
                yield n, h_row, h_col, boxes


def mutated(fn, old, new):
    """A copy of `fn` compiled from its source with `old` replaced by `new` once."""
    source = inspect.getsource(fn)
    assert source.count(old) == 1
    namespace = dict(vars(inspect.getmodule(fn)))
    exec(compile(source.replace(old, new), "<mutated>", "exec"), namespace)
    return namespace[fn.__name__]


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


def test_row_oracle_matches_reference():
    results = set()
    for case in oracle_cases():
        expected = reference_grid_oracle(*case)
        assert grid_oracle(*case) == expected, case
        results.add(None if expected is None else expected[0])
    assert results == {None, 2}  # intact boxes pass, corrupted ones are caught


def test_oracle_passes_intact_box_lists_with_several_spans_per_row():
    """The duplicated, split and beyond-the-grid variants (10, 11 and 14 of
    `box_variants`) cover exactly the intact Nash set, so the oracle must pass them."""
    rng = random.Random(3)
    for _ in range(40):
        g = verify.random_game(rng)
        for n in (1, 2, 3, 7, 100):
            h_row, h_col, ranges = oracle_inputs(g, n)
            variants = box_variants(ranges, n)
            for k in (10, 11, 14):
                assert grid_oracle(n, h_row, h_col, variants[k]) is None, (g, n, k)


def mismatches_agree(broken, broken_reference):
    """Run a mutant oracle and the equally mutated reference on every case;
    they must agree, and the number of route-1-vs-route-2 reports is returned."""
    code_one = 0
    for case in oracle_cases():
        expected = broken_reference(*case)
        assert broken(*case) == expected, case
        code_one += expected is not None and expected[0] == 1
    return code_one


def test_row_oracle_reports_broken_deviation_sum_where_reference_does():
    # Make the column player's deviation to B strict in both oracles: route 2
    # then rejects profiles where that gain is exactly zero.  On integers,
    # 1 + cb*j <= 0 is cb*j < 0, so the strict span is the span of (1, cb).
    broken = mutated(grid_oracle, "(0, cb)", "(1, cb)")
    broken_reference = mutated(
        reference_grid_oracle, "k_cb_aa * s_aa + k_cb_ba * s_ba <= 0", "k_cb_aa * s_aa + k_cb_ba * s_ba < 0"
    )
    assert mismatches_agree(broken, broken_reference) > 0


def test_row_oracle_reports_broken_row_span_where_reference_does():
    # The row player's deviation to A made strict: its sum A + B*j, with
    # A = ra_bb * n, becomes A + 1 + B*j <= 0.
    broken = mutated(grid_oracle, "(ra_bb * n, ra_ba - ra_bb)", "(ra_bb * n + 1, ra_ba - ra_bb)")
    broken_reference = mutated(
        reference_grid_oracle, "k_ra_ba * s_ba + k_ra_bb * s_bb <= 0", "k_ra_ba * s_ba + k_ra_bb * s_bb < 0"
    )
    assert mismatches_agree(broken, broken_reference) > 0


def test_row_oracle_reports_broken_route_one_list_where_reference_does():
    # Route 1 at pure A (i == n) admitting only a strict advantage for A,
    # not indifference: the reference's row test loses its tie there, except
    # on the one-point grid (n == 0), whose row is pure B as well.
    broken = mutated(grid_oracle, "(i == n and v >= 0)", "(i == n and v > 0)")
    broken_reference = mutated(
        reference_grid_oracle, "row_ok = sr == 0 or", "row_ok = (sr == 0 and (i < n or n == 0)) or"
    )
    assert mismatches_agree(broken, broken_reference) > 0
