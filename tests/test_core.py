import itertools
import random
import sys
import time
from fractions import Fraction as F

import pytest

from twobytwo.core import (
    MAX_LITERAL_DIGITS,
    JointDistribution,
    MarginalPair,
    Player,
    SYMMETRY_FLAGS,
    as_rational,
    best_response_set,
    conditional,
    format_rational,
    game_from_flat,
    advantages,
    game_to_flat,
    joint,
    marginals_from_joint,
    permute,
    permute_advantages,
    product_joint,
    transform_affine,
)
from twobytwo import verify


def random_rational(rng, bound=9):
    return F(rng.randint(-bound, bound), rng.randint(1, 6))


def random_game(rng):
    return game_from_flat([random_rational(rng) for _ in range(8)])


# --- rational parsing ---------------------------------------------------------


def test_decimal_strings_parse_exactly():
    assert as_rational(".4") == F(2, 5)
    assert as_rational("0.25") == F(1, 4)
    assert as_rational("-.5") == F(-1, 2)
    assert as_rational("2/3") == F(2, 3)
    assert as_rational("-7/2") == F(-7, 2)


# Of the first five, `Fraction` alone would take none; of the next eight, it
# would take each: a literal is ASCII with no whitespace.  The rest break the
# literal grammar's placement of `_`, decimals and exponents.
@pytest.mark.parametrize(
    "bad",
    [
        "abc", "1/0", "", "1.2.3", "nan",
        "\u0661", "\u0663/\u0664", "\uff11", " 1", "1 ", "\t1", "1\n", "1\u00a0",
        "_1", "1_", "1__0", "1_.5", "1e_5", "1/_2", "1.dd", "1_0 ", "1/2e3", "1/2e5000",
    ],
)
def test_bad_rational_literals(bad):
    with pytest.raises(ValueError, match="invalid rational literal"):
        as_rational(bad)


# The literal grammar, written out: `Fraction`'s own grammar takes `_` only
# from Python 3.11 on, and 3.11 and 3.12 also match a literal "d*" after the
# decimal point.
@pytest.mark.parametrize(
    "token, value",
    [
        ("1_0", F(10)),
        ("-1_0", F(-10)),
        ("1_0/3", F(10, 3)),
        (".5_5", F(11, 20)),
        ("1e1_0", F(10**10)),
        ("1.", F(1)),
        ("1.e3", F(1000)),
        ("+2.5e-1", F(1, 4)),
    ],
)
def test_literal_grammar_accepts(token, value):
    assert as_rational(token) == value


def test_literal_digit_bound():
    n = MAX_LITERAL_DIGITS
    assert as_rational("1" * n) == int("1" * n)
    assert as_rational(f"1e{n - 1}") == 10 ** (n - 1)
    assert as_rational(f"-.5e-{n - 2}") == F(-5, 10 ** (n - 1))
    assert as_rational("2/" + "3" * (n - 1)) == F(2, int("3" * (n - 1)))
    for token in ("1" * (n + 1), f"1e{n}", f"1e-{n}", "2/" + "3" * n, "." + "1" * (n + 1), "1e" + "9" * 5000):
        with pytest.raises(ValueError, match="digits"):
            as_rational(token)


def test_long_exponent_rejected_before_it_is_converted():
    # int() of the exponent would fail on CPython's 4300-digit limit instead
    with pytest.raises(ValueError, match=f"more than {MAX_LITERAL_DIGITS} digits"):
        as_rational("1e" + "9" * 5000)


def test_huge_exponent_rejected_without_building_it():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="digits"):
        as_rational("1e2000000")  # about a second to build as a Fraction
    assert time.perf_counter() - start < 0.5


def test_literal_verdict_does_not_depend_on_int_conversion_limit():
    """A zero-padded exponent counts as its magnitude, whatever CPython's
    limit on int-to-str conversion: only parts of at most `MAX_LITERAL_DIGITS`
    digits and the stripped exponent are ever converted."""
    tokens = ("1e" + "0" * 5000 + "1", "1e" + "0" * 700 + "1", "-.5e-" + "0" * 5000 + "2")
    limit = sys.get_int_max_str_digits()
    try:
        for setting in (640, 0):
            sys.set_int_max_str_digits(setting)
            assert [as_rational(t) for t in tokens] == [10, 10, F(-1, 200)]
    finally:
        sys.set_int_max_str_digits(limit)


def test_format_rational_round_trips():
    for value in (F(0), F(-3), F(1, 3), F(-22, 7), F(10, 2)):
        assert as_rational(format_rational(value)) == value


# --- game construction ----------------------------------------------------------


def test_game_from_flat_prisoners_dilemma(pd):
    assert pd.payoffs(Player.ROW)[2 * 1 + 0] == 0  # G1(B,A)
    assert pd.payoffs(Player.COL)[2 * 0 + 1] == 0  # G2(A,B)
    assert pd.row == (F(-1), F(-3), F(0), F(-2))
    assert pd.col == (F(-1), F(0), F(-3), F(-2))


def test_game_from_flat_all_zero(all_zero):
    assert all(v == 0 for v in game_to_flat(all_zero))


def test_game_from_flat_coordination(coordination):
    assert coordination.payoffs(Player.ROW)[2 * 0 + 0] == 2
    assert coordination.payoffs(Player.COL)[2 * 0 + 0] == 2


def test_game_from_flat_arity():
    with pytest.raises(ValueError, match="8"):
        game_from_flat((1, 2, 3))


def test_flat_round_trip_random():
    rng = random.Random(11)
    for _ in range(200):
        flat = tuple(random_rational(rng) for _ in range(8))
        assert game_to_flat(game_from_flat(flat)) == flat


# --- best responses ---------------------------------------------------------------


def test_best_response_pd_always_defects(pd):
    for q in (F(0), F(1, 3), F(1, 2), F(1)):
        assert best_response_set(pd, Player.ROW, q) == {1}


def test_best_response_tie_matching_pennies(mp):
    assert best_response_set(mp, Player.ROW, F(1, 2)) == {0, 1}


def test_best_response_coordination_half(coordination):
    # payoffs of A vs B at q=1/2: 1 vs 1/2
    assert best_response_set(coordination, Player.ROW, F(1, 2)) == {0}


def reference_best_response_set(game, player, opponent_mix):
    """The `Fraction` formula that the integer comparison replaced, kept as the reference."""
    q = as_rational(opponent_mix)
    if not 0 <= q <= 1:
        raise ValueError(f"opponent mix {q} outside [0, 1]")
    table = game.payoffs(player)
    if player is Player.ROW:
        value_a = q * table[0] + (1 - q) * table[1]
        value_b = q * table[2] + (1 - q) * table[3]
    else:
        value_a = q * table[0] + (1 - q) * table[2]
        value_b = q * table[1] + (1 - q) * table[3]
    if value_a > value_b:
        return frozenset((0,))
    if value_b > value_a:
        return frozenset((1,))
    return frozenset((0, 1))


def test_best_response_matches_fraction_reference():
    """Seeded games at all 101 grid mixes, and degenerate games and games
    beyond 2^62 at grid mixes and mixes with large denominators."""
    rng = random.Random(47)
    grid = [F(k, 100) for k in range(101)]
    for game in [verify.random_game(rng) for _ in range(200)]:
        for player in Player:
            for q in grid:
                assert best_response_set(game, player, q) == reference_best_response_set(game, player, q)
    big = 2**62 + 7
    games = [game_from_flat([rng.choice((-1, 0, 1)) for _ in range(8)]) for _ in range(100)]
    games += [game_from_flat([0] * 8), game_from_flat([3, -1, 3, -1, 1, -2, 0, 5])]
    games += [game_from_flat([rng.randint(-(2**80), 2**80) for _ in range(8)]) for _ in range(50)]
    games += [game_from_flat([F(rng.randint(-big, big), rng.randint(1, big)) for _ in range(8)]) for _ in range(50)]
    mixes = grid[::10] + [F(rng.randint(0, big), big) for _ in range(10)] + [0, 1, "1/3", ".25"]
    for game in games:
        for player in Player:
            for q in mixes:
                assert best_response_set(game, player, q) == reference_best_response_set(game, player, q)


def test_best_response_domain_error(mp):
    for q in (F(3, 2), F(-1, 10), "101/100", -1, 2):
        for player in Player:
            with pytest.raises(ValueError) as new:
                best_response_set(mp, player, q)
            with pytest.raises(ValueError) as ref:
                reference_best_response_set(mp, player, q)
            assert str(new.value) == str(ref.value) == f"opponent mix {as_rational(q)} outside [0, 1]"


def test_best_response_affine_invariance():
    rng = random.Random(13)
    for _ in range(100):
        g = random_game(rng)
        p = rng.choice((Player.ROW, Player.COL))
        scale = F(rng.randint(1, 9), rng.randint(1, 4))
        g2 = transform_affine(g, p, scale, random_rational(rng), random_rational(rng))
        q = F(rng.randint(0, 12), 12)
        for player in Player:
            assert best_response_set(g2, player, q) == best_response_set(g, player, q)


# --- distributions ----------------------------------------------------------------


def test_marginals_table_example():
    m = marginals_from_joint(joint((".4", ".3", ".1", ".2")))
    assert (m.row_prob_a, m.col_prob_a) == (F(7, 10), F(1, 2))


def test_marginals_point_mass_bb():
    m = marginals_from_joint(joint((0, 0, 0, 1)))
    assert (m.row_prob_a, m.col_prob_a) == (0, 0)


def test_marginals_uniform():
    m = marginals_from_joint(joint((F(1, 4),) * 4))
    assert (m.row_prob_a, m.col_prob_a) == (F(1, 2), F(1, 2))


def test_conditional_rows_example():
    table = conditional(joint((".4", ".3", ".1", ".2")), Player.ROW)
    assert table.rows[0] == (F(4, 7), F(3, 7))
    assert table.rows[1] == (F(1, 3), F(2, 3))


def test_conditional_zero_row_absent():
    table = conditional(joint((".5", ".5", 0, 0)), Player.ROW)
    assert table.rows[0] == (F(1, 2), F(1, 2))
    assert table.rows[1] is None


def test_conditional_product_joint_is_independent():
    table = conditional(joint((".01", ".09", ".09", ".81")), Player.ROW)
    assert table.rows[0] == table.rows[1] == (F(1, 10), F(9, 10))


def test_product_joint_examples():
    assert product_joint(MarginalPair(F(1, 10), F(1, 10))).prob == (
        F(1, 100), F(9, 100), F(9, 100), F(81, 100),
    )
    assert product_joint(MarginalPair(F(1), F(0))).prob == (0, 1, 0, 0)
    assert product_joint(MarginalPair(F(1, 2), F(1, 2))).prob == (F(1, 4),) * 4


def test_marginal_pair_rejects_floats():
    """A float is refused when the pair is built, as `JointDistribution`
    refuses one, not later by `is_nash` or `product_joint`."""
    for pair in ((0.5, F(1, 2)), (F(1, 2), 0.5)):
        with pytest.raises(ValueError, match=r"^marginal probability 0\.5 is not an int or Fraction$"):
            MarginalPair(*pair)
    with pytest.raises(ValueError, match=r"^marginal probability 3/2 outside \[0, 1\]$"):
        MarginalPair(F(3, 2), F(0))
    with pytest.raises(ValueError, match=r"^marginal probability -1 outside \[0, 1\]$"):
        MarginalPair(F(0), -1)
    assert product_joint(MarginalPair(1, 0)).prob == (0, 1, 0, 0)


def test_product_marginal_round_trip():
    rng = random.Random(17)
    for _ in range(100):
        m = MarginalPair(F(rng.randint(0, 8), 8), F(rng.randint(0, 8), 8))
        dist = product_joint(m)
        back = marginals_from_joint(dist)
        assert (back.row_prob_a, back.col_prob_a) == (m.row_prob_a, m.col_prob_a)
        assert product_joint(back) == dist


def test_joint_invariants_enforced():
    with pytest.raises(ValueError):
        joint((1, 1, 0, 0))
    with pytest.raises(ValueError):
        joint((-1, 1, 1, 0))
    with pytest.raises(ValueError, match=r"joint probability 0\.25 "):
        JointDistribution((F(1, 2), 0.25, F(1, 4), F(0)))


def reference_joint_error(prob):
    """The `Fraction` checks that the integer ones replaced, kept as the
    reference: the message `JointDistribution` raises, or None."""
    if any(p < 0 for p in prob):
        return f"negative joint probability in {' '.join(map(format_rational, prob))}"
    if sum(prob) != 1:
        return f"joint probabilities must sum to 1, got {' '.join(map(format_rational, prob))}"
    return None


def joint_error(prob):
    try:
        JointDistribution(prob)
    except ValueError as exc:
        return str(exc)
    return None


def test_joint_check_matches_fraction_reference():
    """Valid joints, negative entries, sums off by 10^-30, 30-digit denominators."""
    rng = random.Random(53)
    cases = []
    for _ in range(300):
        den = rng.choice((rng.randint(1, 12), rng.randint(10**29, 10**30)))
        bound = rng.choice((10, 10**30))
        weights = [rng.randint(0, bound) for _ in range(4)]
        total = sum(weights) or 1
        prob = [F(w, total) for w in weights]
        cases.append(tuple(prob))
        k = rng.randrange(4)
        off = list(prob)
        off[k] += rng.choice((1, -1)) * F(1, 10**30)
        cases.append(tuple(off))
        neg = list(prob)
        neg[k] = -neg[k] if neg[k] else F(-1, den)
        neg[(k + 1) % 4] += prob[k] - neg[k]  # still sums to 1
        cases.append(tuple(neg))
        cases.append(tuple(F(rng.randint(-2, 10**30), den) for _ in range(4)))
    cases += [(F(1), F(0), F(0), F(0)), (1, 0, 0, 0), (F(1, 2), F(1, 2), 0, 0), (0, 0, 0, 0), (2, -1, 0, 0)]
    for prob in cases:
        assert joint_error(prob) == reference_joint_error(prob), prob
    assert sum(reference_joint_error(prob) is None for prob in cases) >= 300


# --- affine transforms -------------------------------------------------------------


def test_transform_affine_identity():
    rng = random.Random(19)
    g = random_game(rng)
    assert transform_affine(g, Player.ROW, 1, 0, 0) == g


def test_transform_affine_scale_row(pd):
    doubled = transform_affine(pd, Player.ROW, 2, 0, 0)
    assert doubled.row == (F(-2), F(-6), F(0), F(-4))
    assert doubled.col == pd.col


def test_transform_affine_col_offsets(coordination):
    # Offsets are indexed by the opponent's (row player's) action.
    shifted = transform_affine(coordination, Player.COL, 1, -2, -1)
    assert shifted.col == (F(0), F(-2), F(-1), F(0))
    assert shifted.row == coordination.row


def test_transform_affine_rejects_nonpositive_scale(pd):
    for bad in (0, F(-1, 2)):
        with pytest.raises(ValueError):
            transform_affine(pd, Player.ROW, bad, 0, 0)


# --- symmetries ---------------------------------------------------------------------


def test_permute_identity(coordination):
    assert permute(coordination) == coordination


def test_permute_row_swap_gives_anticoordination(coordination):
    swapped = permute(coordination, swap_row_actions=True)
    assert swapped.row == (F(0), F(1), F(2), F(0))


def test_permute_player_swap_involution():
    rng = random.Random(23)
    for _ in range(30):
        g = random_game(rng)
        assert permute(permute(g, swap_players=True), swap_players=True) == g


def _apply(flags, game):
    return permute(game, *flags)


# The order-8 group spelled out by hand, independently of `core`: for each
# (swap_row_actions, swap_col_actions, swap_players), the cell permutation pi
# over (AA, AB, BA, BB) and whether the players trade tables.  The image's
# payoff at cell i is the (possibly other player's) payoff at cell pi[i].
HAND_TABLE = {
    (False, False, False): ((0, 1, 2, 3), False),
    (False, True, False): ((1, 0, 3, 2), False),
    (True, False, False): ((2, 3, 0, 1), False),
    (True, True, False): ((3, 2, 1, 0), False),
    (False, False, True): ((0, 2, 1, 3), True),
    (False, True, True): ((2, 0, 3, 1), True),
    (True, False, True): ((1, 3, 0, 2), True),
    (True, True, True): ((3, 1, 2, 0), True),
}


def test_permute_matches_hand_spelled_table():
    assert set(HAND_TABLE) == set(SYMMETRY_FLAGS)
    generic = game_from_flat(range(1, 9))
    for flags, (pi, swap) in HAND_TABLE.items():
        own, other = (generic.col, generic.row) if swap else (generic.row, generic.col)
        image = _apply(flags, generic)
        assert image.row == tuple(own[k] for k in pi)
        assert image.col == tuple(other[k] for k in pi)
    # the 8 elements are distinct and closed under composition:
    # g after f sends cell i to f's pi[g's pi[i]] and swaps players if exactly one does
    elements = set(HAND_TABLE.values())
    assert len(elements) == 8
    for pi_f, swap_f in elements:
        for pi_g, swap_g in elements:
            assert (tuple(pi_f[pi_g[i]] for i in range(4)), swap_f != swap_g) in elements


def test_permute_is_a_group_action():
    """Composing flag applications always lands back in the 8-element set,
    and every element's order divides 4."""
    rng = random.Random(29)
    generic = game_from_flat([F(i * i + 1, i + 1) for i in range(8)])
    for f in SYMMETRY_FLAGS:
        for g in SYMMETRY_FLAGS:
            composed = _apply(f, _apply(g, generic))
            matches = [h for h in SYMMETRY_FLAGS if _apply(h, generic) == composed]
            assert len(matches) == 1
            h = matches[0]
            # the same composite must hold on arbitrary games
            for _ in range(5):
                other = random_game(rng)
                assert _apply(f, _apply(g, other)) == _apply(h, other)
    for f in SYMMETRY_FLAGS:
        g1 = _apply(f, generic)
        g2 = _apply(f, g1)
        g4 = _apply(f, _apply(f, g2))
        assert g4 == generic


def test_permute_flags_all_distinct():
    generic = game_from_flat([F(i * i + 1, i + 1) for i in range(8)])
    images = {game_to_flat(_apply(f, generic)) for f in SYMMETRY_FLAGS}
    assert len(images) == 8


def test_permute_advantages_is_the_action_on_advantages():
    """The advantages of every symmetric image, read off the permuted payoffs,
    equal the symmetry applied to the game's advantages: on the 81 sign
    patterns at three magnitude tiers, on payoffs with distinct denominators
    and on seeded games."""
    rng = random.Random(41)
    tiers = (lambda: 1, lambda: rng.randint(2**80, 2**81), lambda: rng.randint(10**29, 10**30 - 1))
    games = [
        game_from_flat((a * tier(), b * tier(), 0, 0, c * tier(), 0, d * tier(), 0))
        for tier in tiers
        for a, b, c, d in itertools.product((1, -1, 0), repeat=4)
    ]
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
    games += [game_from_flat(("1/2", "-1/3", "-2/5", "1/7", "1/3", "-1/2", "-3/4", "2/9"))]
    games += [
        game_from_flat([F(rng.randint(-50, 50), p) for p in rng.sample(primes, 8)])
        for _ in range(50)
    ]
    games += [verify.random_game(rng) for _ in range(200)]
    for game in games:
        adv = advantages(game)
        for flags in SYMMETRY_FLAGS:
            assert permute_advantages(adv, flags) == advantages(permute(game, *flags)), (game, flags)
