"""Property tests on degenerate games: tied advantages, all-zero players,
magnitudes around and beyond 2**62, and large denominators.

The verifier's own checks serve as the properties, so a failure shrinks to a
minimal game.  A last property feeds generated point and matrix files to the
embedding render command, and another arbitrary payoff tokens to `analyze`.
Two more check literal values against `Fraction`'s own parser, and `cli.main`
against the top-level argparse pass on arbitrary command lines.
Examples are derandomized, so every run tries the same inputs.
"""

import contextlib
import io
import random
import re
import tempfile
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twobytwo import cli, verify
from twobytwo.core import (
    _LITERAL,
    MAX_LITERAL_DIGITS,
    SYMMETRY_FLAGS,
    JointDistribution,
    Player,
    advantages,
    as_rational,
    format_rational,
    game_from_flat,
    integerize,
    permute,
    transform_affine,
)
from twobytwo.equilibria import (
    _cycle_vertex_numerators,
    cce_holds,
    cce_polytope,
    halfspace_rows,
    joint_in_cce,
    nash_set,
)
from twobytwo.kernels import grid_oracle

from dispatch_corpus import outcome, reference_main
from test_equilibria import (
    deviation_gain,
    per_call_cce_polytope,
    per_call_nash_set,
    reference_advantages,
    reference_halfspace_rows,
    reference_nash_set,
)
from test_kernels import box_variants, reference_grid_oracle
from test_verify import assert_keys_match_fractions, reference_check_cce

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


@st.composite
def games_and_weights(draw):
    """A game with four integer cell weights, some possibly zero: a CCE vertex's
    numerators times a positive integer (on the boundary), or random weights."""
    game = draw(games())
    if draw(st.booleans()):
        vertices = cce_polytope(game).vertices
        vertex = vertices[draw(st.integers(0, len(vertices) - 1))]
        factor = draw(st.integers(1, 3) | st.integers(1, 2 ** 80))
        return game, [factor * n for n in integerize(vertex.prob)]
    return game, draw(st.lists(weight, min_size=4, max_size=4).filter(any))


@settings(PROPERTY_SETTINGS, max_examples=150)
@given(games_and_weights())
def test_cce_holds_on_integers_matches_joint_in_cce(case):
    game, weights = case
    a, b, c, d = reference_advantages(game)
    total = sum(weights)
    dist = JointDistribution(tuple(Fraction(w, total) for w in weights))
    raw = all(
        deviation_gain(game, player, action, dist) <= 0
        for player in (Player.ROW, Player.COL)
        for action in (0, 1)
    )
    assert cce_holds(integerize((a, b)) + integerize((c, d)), weights) == joint_in_cce(game, dist) == raw


positive_scale = st.builds(Fraction, st.integers(1, 2 ** 70), st.integers(1, 2 ** 40))


@settings(PROPERTY_SETTINGS, max_examples=150)
@given(
    games(),
    st.sampled_from(SYMMETRY_FLAGS),
    st.sampled_from(Player),
    positive_scale,
    payoff,
    payoff,
)
def test_advantages_are_the_integerized_fraction_pairs(game, flags, player, scale, off_a, off_b):
    # The game and its `permute` and `transform_affine` images, each on its own values.
    for g in (game, permute(game, *flags), transform_affine(game, player, scale, off_a, off_b)):
        ref = reference_advantages(g)
        assert advantages(g) == integerize(ref[:2]) + integerize(ref[2:])


@settings(PROPERTY_SETTINGS, max_examples=150)
@given(games())
def test_halfspace_rows_are_the_integerized_fraction_rows(game):
    assert halfspace_rows(game) == tuple(integerize(row) for row in reference_halfspace_rows(game))


@settings(PROPERTY_SETTINGS, max_examples=150)
@given(games())
def test_cycle_walk_matches_cramer_route(game):
    rows = halfspace_rows(game)
    assert _cycle_vertex_numerators(rows).keys() == verify.cramer_vertex_numerators(rows)


@settings(PROPERTY_SETTINGS, max_examples=150)
@given(games())
def test_sign_tables_match_per_call_code(game):
    assert cce_polytope(game) == per_call_cce_polytope(game)
    assert nash_set(game) == per_call_nash_set(game)


@settings(PROPERTY_SETTINGS, max_examples=40)
@given(games(), st.integers(0, 2 ** 32))
def test_check_cce_passes(game, seed):
    assert verify.check_cce(game, random.Random(seed)) == []


@settings(PROPERTY_SETTINGS, max_examples=60)
@given(games(), st.integers(0, 2 ** 32))
def test_check_cce_matches_reference_messages_and_draws(game, seed):
    # The one-pass convexity test with reused verdicts against the
    # per-combination `Fraction` reference: same messages, same rng state after.
    ours, theirs = random.Random(seed), random.Random(seed)
    assert verify.check_cce(game, ours) == reference_check_cce(game, theirs)
    assert ours.getstate() == theirs.getstate()


@settings(PROPERTY_SETTINGS, max_examples=80)
@given(games(), st.integers(1, 12))
def test_grid_oracle_agrees_at_small_n(game, n):
    ranges = verify.grid_ranges(nash_set(game), n)
    assert grid_oracle(n, verify.integerize(game.row), verify.integerize(game.col), ranges) is None


@settings(PROPERTY_SETTINGS, max_examples=150)
@given(games(), st.integers(1, 12), st.integers(0, 14))
def test_grid_oracle_matches_point_reference(game, n, variant):
    # The intact box list (variant 0) or a corrupted copy, so the first
    # mismatch's (code, i, j) is compared too.
    boxes = box_variants(verify.grid_ranges(nash_set(game), n), n)[variant]
    h_row, h_col = verify.integerize(game.row), verify.integerize(game.col)
    assert grid_oracle(n, h_row, h_col, boxes) == reference_grid_oracle(n, h_row, h_col, boxes)


@settings(PROPERTY_SETTINGS, max_examples=60)
@given(games(), st.integers(0, 2 ** 32))
def test_check_ne_samples_passes(game, seed):
    assert verify.check_ne_samples(game, random.Random(seed)) == []


@settings(PROPERTY_SETTINGS, max_examples=80)
@given(games(), st.integers(0, 2 ** 32))
def test_check_affine_invariance_passes(game, seed):
    assert verify.check_affine_invariance(game, random.Random(seed)) == []


@settings(PROPERTY_SETTINGS, max_examples=60)
@given(games())
def test_check_permute_equivariance_passes(game):
    assert verify.check_permute_equivariance(game) == []


@settings(PROPERTY_SETTINGS, max_examples=60)
@given(games())
def test_key_map_matches_fraction_reference(game):
    assert_keys_match_fractions(game)


@settings(PROPERTY_SETTINGS, max_examples=100)
@given(games())
def test_check_embedding_consistency_passes(game):
    assert verify.check_embedding_consistency(game) == []


@settings(PROPERTY_SETTINGS, max_examples=200)
@given(games())
def test_nash_set_matches_fraction_reference(game):
    assert nash_set(game) == reference_nash_set(game)


@settings(PROPERTY_SETTINGS, max_examples=100)
@given(games())
def test_nash_set_box_corners_are_nash_by_raw_deviation_sums(game):
    components = nash_set(game).components
    assert components  # every finite game has an equilibrium
    for box in components:
        for p in (box.p_low, box.p_high):
            for q in (box.q_low, box.q_high):
                # the product joint of (p, q), cells in order AA, AB, BA, BB
                dist = JointDistribution((p * q, p * (1 - q), (1 - p) * q, (1 - p) * (1 - q)))
                for player in (Player.ROW, Player.COL):
                    for action in (0, 1):
                        assert deviation_gain(game, player, action, dist) <= 0, (p, q, player, action)


# --- the embedding render command on generated data files -------------------------

finite_field = st.sampled_from(["0", "-0", "1", "-2.5", "360", "1e308", "-1e308"]) | st.floats(
    allow_nan=False, allow_infinity=False
).map(repr)
field = st.one_of(finite_field, finite_field, finite_field, st.sampled_from(["nan", "inf", "-inf", "x"]))


@st.composite
def data_files(draw, widths):
    """None (no file) or the text of a file of up to five lines.

    A clean file holds rows of one of `widths` finite numbers, and blank lines.
    Any other file may also hold nan, inf, words and rows of other lengths, or
    be empty.
    """
    if draw(st.booleans()) and draw(st.booleans()):
        return None
    width = draw(st.sampled_from(widths))
    if draw(st.booleans()):
        row = st.lists(finite_field, min_size=width, max_size=width)
        lines = st.lists(st.one_of(row, row, st.just([])), min_size=1, max_size=5)
    else:
        row = st.lists(field, min_size=width, max_size=width)
        lines = st.lists(st.one_of(row, st.just([]), st.lists(field, max_size=4)), max_size=5)
    return "".join(" ".join(fields) + "\n" for fields in draw(lines))


@settings(PROPERTY_SETTINGS, max_examples=150)
@given(data_files([2]), data_files([1, 2, 3]), st.sampled_from(["svg", "tikz"]))
def test_render_embedding_from_files_exits_cleanly(points, matrix, format):
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["render", "--kind", "embedding", "--format", format, "-o", str(Path(tmp) / "fig")]
        paths = []
        for flag, text in (("--points", points), ("--matrix", matrix)):
            if text is not None:
                path = Path(tmp) / flag[2:]
                path.write_text(text, encoding="utf-8")
                argv += [flag, str(path)]
                paths.append(str(path))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        if code == 2:
            assert any(path in err.getvalue() for path in paths), err.getvalue()
            return
        assert (code, err.getvalue()) == (0, "")
        text = (Path(tmp) / "fig").read_text(encoding="utf-8")
    if format == "svg":
        ET.fromstring(text)
        assert not re.search("nan|inf", text), text
    else:
        assert text.startswith("\\begin{tikzpicture}") and text.endswith("\\end{tikzpicture}\n")


# --- the analyze command on arbitrary payoff tokens ---------------------------------

digits = st.integers(0, 10 ** 6).map(str)
exponent = st.integers(-5, 5) | st.integers(MAX_LITERAL_DIGITS - 3, MAX_LITERAL_DIGITS + 3).map(
    lambda e: e * (-1) ** (e % 2)  # negative exponents near the bound too
)
# Fractions, decimals, digit groups and exponents: valid, except for an
# exponent that takes a literal past `MAX_LITERAL_DIGITS`.
numeric = st.one_of(
    digits,
    st.builds("{}/{}".format, digits, st.integers(1, 10 ** 6)),
    st.builds("{}.{}".format, digits, digits),
    st.builds(".{}".format, digits),
    st.builds("{}_{}".format, digits, digits),
    st.builds("{}e{}".format, st.sampled_from(["1", "9", "12", "1.5", ".5", "1_0"]), exponent),
)
malformed = st.one_of(
    st.builds("{}/0".format, digits),
    st.sampled_from(["", ".", "/", "e5", "1e", "_1", "1_", "1__0", "1/2/3", "1e2.5", "nan", "inf", "0x10"]),
    st.sampled_from(["\u0661\u0662", "\uff11", "\u00bd", "\u0967"]),  # Arabic-Indic, fullwidth, vulgar, Devanagari
)


def signed(body):
    # "-" before anything but a digit or ".digit" makes an option, which
    # `analyze` must name too.
    return st.builds("{}{}".format, st.sampled_from(["", "", "-", "+"]), body)


payoff_token = st.one_of(signed(numeric), signed(numeric), signed(malformed), st.sampled_from([" 1", "1 ", "1\t"]))
NEGATIVE_NUMBER = re.compile(r"^-\.?[0-9]")


def literal_digits(token):
    """Digits of a valid literal, an exponent counted as its magnitude."""
    mantissa, _, exp = token.lower().partition("e")
    return sum(map(str.isdigit, mantissa)) + (abs(int(exp)) if exp else 0)


@settings(PROPERTY_SETTINGS, max_examples=400)
@given(
    st.lists(signed(numeric), min_size=8, max_size=8)
    | st.lists(payoff_token, min_size=8, max_size=8)
    | st.lists(payoff_token, max_size=10)
)
def test_analyze_exits_cleanly_on_any_tokens(tokens):
    """Exit 0 with the game and its class, no literal longer than the bound,
    or exit 2 naming a bad token or the expected count; any other exception
    fails the property."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(["analyze", *tokens])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    if code == 2:
        assert out == ""
        options = [t for t in tokens if t[:1] == "-" and len(t) > 1 and not NEGATIVE_NUMBER.match(t)]
        named = [t for t in tokens if f"invalid payoff literal '{t}'" in err]
        counted = f"expected 8 payoff values, got {len(tokens)}" in err
        unrecognized = "unrecognized arguments: " in err and all(t in err for t in options)
        assert named or (counted and len(tokens) != 8) or (options and unrecognized), (tokens, err)
        return
    assert (code, err) == (0, ""), (tokens, err)
    lines = out.splitlines()
    assert lines[0] == "game " + " ".join(format_rational(as_rational(t)) for t in tokens)
    assert max(map(literal_digits, tokens)) <= MAX_LITERAL_DIGITS, tokens
    assert re.fullmatch(r"br_graph [AB-]( [AB-]){3}", lines[1]), lines[1]
    index, name = re.fullmatch(r"br_class (\d+) (\S+)", lines[2]).groups()
    assert 1 <= int(index) <= 15 and name, lines[2]


# --- literal values, against Fraction's own parser -----------------------------------


zero_denominator = st.builds(
    "{}{}/{}".format, st.sampled_from(["", "-", "+"]), digits, st.sampled_from(["0", "00", "0_0", "0" * 399])
)


# The grammar's own random tokens rarely have a short exponent, which
# `numeric` draws often.
@settings(PROPERTY_SETTINGS, max_examples=150)
@given(st.from_regex(_LITERAL, fullmatch=True) | signed(numeric) | zero_denominator)
def test_literal_value_matches_fraction(token):
    """Every token of the grammar within the digit bound is the value
    `Fraction` gives it, `n/0` is invalid, and any other token is over the bound."""
    denominator = token.partition("/")[2]
    if literal_digits(token) > MAX_LITERAL_DIGITS:
        with pytest.raises(ValueError, match="more than"):
            as_rational(token)
    elif denominator and int(denominator) == 0:
        with pytest.raises(ValueError, match="invalid rational literal"):
            as_rational(token)
    elif len(token) < 4300:  # Fraction's own parse meets CPython's int-to-str limit
        assert as_rational(token) == Fraction(token.replace("_", "")), token


# --- one argparse pass per command line -----------------------------------------------

DISPATCH_TOKENS = (
    "analyze", "render", "census", "verify", "analyse",
    "-h", "--help", "--", "-x", "--bogus", "--no", "--kin", "--kind", "--kind=joint", "-o", "--output=out.svg",
    "--format", "--points", "--no-axes-labels", "--seed", "--se", "--trials", "--tri", "--timings",
    "polytope", "joint", "brgraph", "embedding", "svg", "tikz", "out.svg", "out.tex",
    "0", "1", "2", "-1", "2/3", "-.5", ".4", "1e2", "1_0", "1/0", "-1x", "abc",
)


@settings(PROPERTY_SETTINGS, max_examples=200)
@given(
    st.lists(st.sampled_from(DISPATCH_TOKENS), max_size=12),
    st.sampled_from(("analyze", "render", "census", "verify", None)),
)
def test_main_matches_reference_dispatch_on_any_argv(tokens, command):
    """Exit code, stdout, stderr and written files are those of the top-level
    argparse pass followed by the command.  A `verify` command line starts with
    `--trials 1` so that it stays fast; later tokens may override it."""
    argv = [] if command is None else [command]
    if command == "verify":
        argv += ["--trials", "1"]
    argv += tokens
    assert outcome(cli.main, argv) == outcome(reference_main, argv), argv
