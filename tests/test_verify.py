import dataclasses
import hashlib
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from conftest import ALL_ZERO, CELLS, COORDINATION, MATCHING_PENNIES, PRISONERS_DILEMMA, TRAFFIC_LIGHTS
from reference import assert_keys_match_fractions, deviation_gain, per_call_cce_polytope, reference_check_cce, reference_nash_set
from twobytwo import core, equilibria, verify
from twobytwo.cli import main
from twobytwo.core import (
    JointDistribution,
    MarginalPair,
    Player,
    game_from_flat,
    game_to_flat,
    integerize,
    product_joint,
)
from twobytwo.equilibria import (
    Box,
    NashSet,
    cce_polytope,
)


def test_suite_passes_on_seeded_games():
    report = verify.run(seed=7, trials=15)
    assert report.ok
    assert report.passed == report.trials == 15


def test_suite_deterministic_per_seed():
    a = verify.run(seed=42, trials=6)
    b = verify.run(seed=42, trials=6)
    assert a.ok == b.ok
    assert len(a.failures) == len(b.failures)


def test_check_game_clean_on_named_games():
    rng = random.Random(0)
    for flat in [
        (-1, -3, 0, -2, -1, 0, -3, -2),
        (1, -1, -1, 1, -1, 1, 1, -1),
        (2, 0, 0, 1, 2, 0, 0, 1),
        (0,) * 8,
        (-9, 1, 0, 0, -9, 0, 1, 0),
    ]:
        assert verify.check_game(game_from_flat(flat), rng) == []


def test_negative_control_broken_membership(monkeypatch):
    """A build with a flipped constraint sign must be caught, not waved through."""
    real = verify.joint_in_cce
    monkeypatch.setattr(verify, "joint_in_cce", lambda g, s: not real(g, s))
    report = verify.run(seed=3, trials=3)
    assert not report.ok
    assert report.failures
    flat = report.failures[0].flat()
    assert len(flat.split()) == 8  # offending game printed as a flat 8-tuple


def test_negative_control_broken_is_nash(monkeypatch):
    real = verify.is_nash
    monkeypatch.setattr(verify, "is_nash", lambda g, m: not real(g, m))
    report = verify.run(seed=3, trials=3)
    assert not report.ok


def test_negative_control_dropped_nash_component(monkeypatch):
    """A nash_set that loses one of several components must fail the grid oracle."""
    real = verify.nash_set

    def drop_first(game):
        ns = real(game)
        return NashSet(components=ns.components[1:]) if len(ns.components) > 1 else ns

    monkeypatch.setattr(verify, "nash_set", drop_first)
    failures = verify.check_ne_grid(game_from_flat((2, 0, 0, 1, 2, 0, 0, 1)))
    assert any("routes vs nash_set boxes" in f for f in failures)

    report = verify.run(seed=3, trials=4)
    assert not report.ok
    for failure in report.failures:
        assert len(real(failure.game).components) > 1
        assert any("routes vs nash_set boxes" in m for m in failure.messages)


def test_negative_control_nested_nash_component(monkeypatch):
    """A Nash set with a component twice, or one inside another, has the same
    union, so the grid routes and the corner checks pass it; the repeat and
    the nested component must each be named.  So must the nested pieces that
    `equilibria._normalize` keeps when it drops none, in the seeded runs."""
    real = verify.nash_set

    def add_copy_and_corner(game):
        ns = real(game)
        box = ns.components[0]
        corner = Box(box.p_low, box.p_low, box.q_low, box.q_low)
        return NashSet(components=ns.components + (box, corner))

    with monkeypatch.context() as patched:
        patched.setattr(verify, "nash_set", add_copy_and_corner)
        assert verify.check_ne_grid(game_from_flat(ALL_ZERO)) == [
            "component [0,1]x[0,1] is repeated",
            "component [0,0]x[0,0] lies inside another",
        ]

    equilibria._nash_type.cache_clear()
    try:
        with monkeypatch.context() as patched:
            patched.setattr(equilibria, "_normalize", sorted)
            for seed in (0, 7, 42):
                report = verify.run(seed=seed, trials=100)
                assert report.failures, seed
                for failure in report.failures:
                    assert failure.messages
                    assert all(m.startswith("component [") and m.endswith(" lies inside another")
                               for m in failure.messages)
    finally:
        equilibria._nash_type.cache_clear()


def reference_direct_nash(game, m):
    """The `Fraction` route that the integer one replaced: the product joint
    and the four `deviation_gain` sums."""
    dist = product_joint(m)
    return all(
        deviation_gain(game, player, action, dist) <= 0
        for player in (Player.ROW, Player.COL)
        for action in (0, 1)
    )


def test_direct_nash_matches_fraction_reference():
    """Grid points, component corners and marginals with large denominators."""
    rng = random.Random(31)
    games = [verify.random_game(rng) for _ in range(200)]
    games += [game_from_flat([rng.choice((-1, 0, 1)) for _ in range(8)]) for _ in range(100)]
    games += [game_from_flat([rng.randint(-(2**80), 2**80) for _ in range(8)]) for _ in range(20)]
    games += [
        game_from_flat([Fraction(rng.randint(-(10**30), 10**30), rng.randint(10**19, 10**20)) for _ in range(8)])
        for _ in range(20)
    ]
    games += [game_from_flat(flat) for flat in (ALL_ZERO, COORDINATION, MATCHING_PENNIES, TRAFFIC_LIGHTS)]
    big = 2**70 + 1
    for game in games:
        points = [MarginalPair(Fraction(i, 4), Fraction(j, 4)) for i in range(5) for j in range(5)]
        points += [
            MarginalPair(Fraction(rng.randint(0, 100), 100), Fraction(rng.randint(0, 100), 100))
            for _ in range(5)
        ]
        points += [m for box in verify.nash_set(game).components for m in box.corners()]
        points += [
            MarginalPair(Fraction(rng.randint(0, big), big), Fraction(rng.randint(0, 2**64), 2**64 + 3))
            for _ in range(5)
        ]
        h_row, h_col = integerize(game.row), integerize(game.col)
        for m in points:
            assert verify._direct_nash(h_row, h_col, m) == reference_direct_nash(game, m), (game, m)


def test_negative_control_broken_direct_nash(monkeypatch):
    """A flipped deviation-sum route must reject component corners and
    disagree with the other routes on sampled profiles."""
    real = verify._direct_nash
    monkeypatch.setattr(verify, "_direct_nash", lambda h_row, h_col, m: not real(h_row, h_col, m))
    report = verify.run(seed=3, trials=3)
    assert not report.ok
    messages = [m for failure in report.failures for m in failure.messages]
    assert any(m.startswith("component corner") and m.endswith("rejected by deviation sums") for m in messages)
    assert any(m.startswith("route disagreement") for m in messages)


def test_grid_ranges_exact_rounding():
    from fractions import Fraction as F

    from twobytwo.equilibria import Box, NashSet

    ns = NashSet(components=(Box(F(1, 3), F(1, 3), F(0), F(1, 2)),))
    ranges = verify.grid_ranges(ns, 100)
    # ceil(100/3)=34 > floor(100/3)=33: no lattice point hits p=1/3
    assert ranges == [(34, 33, 0, 50)]
    assert verify.grid_ranges(ns, 9) == [(3, 3, 0, 4)]  # 9 * 1/3 lands exactly


def fraction_mix(weights, vertices):
    """The convex combination built from `Fraction` products and sums."""
    total = sum(Fraction(w) for w in weights)
    return tuple(
        sum((Fraction(w) * v.prob[k] for w, v in zip(weights, vertices)), Fraction(0)) / total
        for k in range(4)
    )


def test_integer_mix_equals_fraction_mix():
    rng = random.Random(8)
    games = [verify.random_game(rng) for _ in range(40)]
    games += [game_from_flat(flat) for flat in (ALL_ZERO, COORDINATION, TRAFFIC_LIGHTS)]
    games.append(game_from_flat((2 ** 63 + 1, 0, 0, Fraction(2 ** 62 + 3, 7), 2 ** 64, 0, 0, 3 * 2 ** 63)))
    for game in games:
        vertices = cce_polytope(game).vertices
        scale, numerators = verify.common_numerators(vertices)
        for _ in range(10):
            weights = [rng.randint(0, 10) for _ in vertices]
            if sum(weights) == 0:
                weights[0] = 1
            assert verify.integer_mix(weights, numerators, scale) == fraction_mix(weights, vertices)


def test_check_cce_draws_the_same_rng_stream():
    rng = random.Random(12)
    for flat in (PRISONERS_DILEMMA, MATCHING_PENNIES, COORDINATION, ALL_ZERO, TRAFFIC_LIGHTS):
        assert verify.check_cce(game_from_flat(flat), rng) == []
    for _ in range(5):
        assert verify.check_cce(verify.random_game(rng), rng) == []
    # The value `reference_check_cce`, the Fraction-mix implementation, leaves
    # behind for the same calls at 100 combinations.
    assert rng.random() == 0.1253692278160342


def test_verifier_random_stream_is_pinned():
    """`random_game` and `check_game` on 300 seeded trials leave the rng in
    the states they left it in before `check_cce` drew its weights with
    `_draw_weights`: a sha256 chained over `getstate()` after each trial,
    recorded with `randint` draws on Python 3.10-3.13."""
    chain = b""
    for seed in range(300):
        rng = random.Random(seed)
        assert verify.check_game(verify.random_game(rng), rng) == []
        chain = hashlib.sha256(chain + repr(rng.getstate()).encode()).digest()
    assert chain.hex() == "9214df5a9e1895afa14d65cc986ccb1146a4bbafd81f65ad0046f2e5899160df"


def test_draw_weights_matches_randint():
    """The same values and the same state after as `randint(0, 10)` on this
    interpreter, for counts 0..599 on seeded streams."""
    rng = random.Random(31)
    for seed in range(400):
        count = rng.randrange(600)
        ours, theirs = random.Random(seed), random.Random(seed)
        assert verify._draw_weights(ours, count) == [theirs.randint(0, 10) for _ in range(count)]
        assert ours.getstate() == theirs.getstate()


def assert_check_cce_matches_reference(games, seed):
    """Same messages and the same rng state after, game by game."""
    ours, theirs = random.Random(seed), random.Random(seed)
    for game in games:
        expected = reference_check_cce(game, theirs, verify.CCE_COMBOS)
        assert verify.check_cce(game, ours) == expected, game
        assert ours.getstate() == theirs.getstate()


def test_check_cce_matches_fraction_reference(monkeypatch):
    rng = random.Random(21)
    assert_check_cce_matches_reference([verify.random_game(rng) for _ in range(200)], seed=21)

    big = 2**62 + 7
    assert_check_cce_matches_reference(
        [
            game_from_flat(flat)
            for flat in (PRISONERS_DILEMMA, MATCHING_PENNIES, COORDINATION, ALL_ZERO, TRAFFIC_LIGHTS)
        ]
        + [
            game_from_flat((0, 0, 0, 0, 2, 0, 0, 1)),  # all-zero row player
            game_from_flat((3, -1, 3, -1, 1, -2, 0, 5)),  # row player indifferent everywhere
            game_from_flat((2, 0, 0, 1, 4, 4, -1, -1)),  # column player indifferent everywhere
            game_from_flat((big * 3, -big, big, 2**70, 1, -(2**65), 7, 0)),  # beyond 2^62
            game_from_flat((Fraction(1, big), Fraction(-1, big + 2), 0, Fraction(3, 2**63),
                            Fraction(5, big), 0, Fraction(-1, 3), Fraction(2, big))),
        ],
        seed=5,
    )

    real = verify.cce_polytope

    def add_bad_vertex(game):
        poly = real(game)
        bad = JointDistribution((Fraction(1), Fraction(0), Fraction(0), Fraction(0)))
        return dataclasses.replace(poly, vertices=poly.vertices + (bad,))

    monkeypatch.setattr(verify, "cce_polytope", add_bad_vertex)
    games = [game_from_flat(PRISONERS_DILEMMA)] + [verify.random_game(rng) for _ in range(20)]
    assert verify.check_cce(games[0], random.Random(0))  # the bad vertex is reported
    assert_check_cce_matches_reference(games, seed=9)


def test_negative_control_infeasible_cce_vertex(monkeypatch):
    """A polytope with a vertex outside the CCE set fails both the halfspace and the convexity test."""
    real = verify.cce_polytope

    def add_bad_vertex(game):
        poly = real(game)
        bad = JointDistribution((Fraction(1), Fraction(0), Fraction(0), Fraction(0)))
        return dataclasses.replace(poly, vertices=poly.vertices + (bad,))

    monkeypatch.setattr(verify, "cce_polytope", add_bad_vertex)
    failures = verify.check_cce(game_from_flat(PRISONERS_DILEMMA), random.Random(0))
    assert any("violates a halfspace" in f for f in failures)
    assert any(f.startswith("convex combination") and f.endswith("outside the CCE set") for f in failures)


def test_negative_control_broken_cce_holds(monkeypatch):
    """A flipped `cce_holds`, as the convexity test binds it, must reject every combination."""
    real = verify.cce_holds
    monkeypatch.setattr(verify, "cce_holds", lambda adv, weights: not real(adv, weights))
    report = verify.run(seed=3, trials=4)
    assert len(report.failures) == 4
    for failure in report.failures:
        assert failure.messages
        assert all(
            m.startswith("convex combination") and m.endswith("outside the CCE set")
            for m in failure.messages
        )


def unchecked_joint(prob):
    """A joint built without `JointDistribution`'s validity check, as
    `cce_polytope` builds its vertices."""
    dist = object.__new__(JointDistribution)
    object.__setattr__(dist, "prob", prob)
    return dist


def test_negative_control_vertex_not_summing_to_one(monkeypatch, capsys):
    """A vertex that skips the validity check and sums to 2 is reported, and
    `verify` fails.  Doubling a true vertex keeps every sign, so no other part
    of `check_cce` can see it."""
    real = verify.cce_polytope

    def double_first_vertex(game):
        poly = real(game)
        heavy = unchecked_joint(tuple(2 * p for p in poly.vertices[0].prob))
        return dataclasses.replace(poly, vertices=(heavy,) + poly.vertices[1:])

    monkeypatch.setattr(verify, "cce_polytope", double_first_vertex)
    rng = random.Random(4)
    for game in [game_from_flat(flat) for flat in (PRISONERS_DILEMMA, COORDINATION, TRAFFIC_LIGHTS)] + [
        verify.random_game(rng) for _ in range(20)
    ]:
        heavy = double_first_vertex(game).vertices[0]
        assert verify.check_cce(game, random.Random(0)) == [f"vertex {heavy.prob} does not sum to 1"]

    assert main(["verify", "--seed", "0", "--trials", "3"]) == 1
    assert "does not sum to 1" in capsys.readouterr().out


def test_negative_control_check_raising_is_contained(monkeypatch):
    """`cce_polytope` patched to raise: each check that calls it fails the trial
    with a message naming the check and the exception, timings are still kept,
    and `verify` prints the game and exits 1 with nothing on stderr."""

    def broken(game):
        raise RuntimeError("no polytope")

    monkeypatch.setattr(verify, "cce_polytope", broken)
    game = verify.random_game(random.Random(0))
    timings = {}
    messages = verify.check_game(game, random.Random(1), timings=timings)
    assert "check_cce raised RuntimeError: no polytope" in messages
    assert list(timings) == [
        "check_ne_grid", "check_ne_samples", "check_cce", "check_affine_invariance",
        "check_permute_equivariance", "check_embedding_consistency",
    ]

    program = (
        "import sys\n"
        "from twobytwo import verify\n"
        "from twobytwo.cli import main\n"
        "def broken(game):\n"
        "    raise RuntimeError('no polytope')\n"
        "verify.cce_polytope = broken\n"
        "sys.exit(main(['verify', '--seed', '0', '--trials', '1']))\n"
    )
    root = Path(__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, "-c", program],
        cwd=root, env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True, text=True, timeout=120,
    )
    flat = " ".join(map(core.format_rational, game_to_flat(game)))
    assert result.returncode == 1
    assert result.stdout.startswith(f"FAIL {flat}\n")
    assert "  check_cce raised RuntimeError: no polytope\n" in result.stdout
    assert result.stdout.endswith("PASS 0/1\n")
    assert result.stderr == ""


def test_check_cce_reuses_verdicts_without_merging_messages(monkeypatch):
    """`cce_holds` patched to reject only the combinations whose first
    coordinate has an odd numerator (patched where `check_cce` binds it and
    where `joint_in_cce` reads it): `check_cce` must report exactly the
    reference's messages, one per rejected draw, repeats included."""
    real = equilibria.cce_holds

    def odd_first_rejected(adv, weights):
        return real(adv, weights) and Fraction(weights[0], sum(weights)).numerator % 2 == 0

    monkeypatch.setattr(verify, "cce_holds", odd_first_rejected)
    monkeypatch.setattr(equilibria, "cce_holds", odd_first_rejected)
    rng = random.Random(17)
    games = [verify.random_game(rng) for _ in range(60)]
    games += [game_from_flat(flat) for flat in (COORDINATION, ALL_ZERO, TRAFFIC_LIGHTS)]
    assert_check_cce_matches_reference(games, seed=17)

    rejected = kept = repeated = 0
    ours = random.Random(17)
    for game in games:
        messages = [m for m in verify.check_cce(game, ours) if m.startswith("convex combination")]
        rejected += len(messages)
        repeated += len(messages) - len(set(messages))
        kept += 100 - len(messages)
    assert rejected and kept and repeated  # some draws fail, some pass, some fail twice


def test_run_records_per_check_timings():
    report = verify.run(seed=2, trials=3)
    assert list(report.timings) == [
        "check_ne_grid",
        "check_ne_samples",
        "check_cce",
        "check_affine_invariance",
        "check_permute_equivariance",
        "check_embedding_consistency",
    ]
    assert all(calls == 3 and total_ns > 0 for calls, total_ns in report.timings.values())


def test_negative_control_swapped_column_cce_rows(monkeypatch):
    """Column rows built on the wrong cells (AB and BA swapped) must be caught.

    `cce_polytope` takes its structure from the sign table, which is filled
    from `equilibria`'s own unit rows, so it never reads the patched rows;
    `check_cce` reads them, and its row-side checks reject the polytope:
    every trial misses a vertex of the wrong rows, and vertices violate them
    or share too few tight rows along an edge.
    """
    real = equilibria.halfspace_rows

    def swap_column_cells(game):
        rows = real(game)
        _, c, _, d = rows[2]
        return rows[:2] + ((0, 0, c, d), (-c, -d, 0, 0)) + rows[4:]

    # Both binding sites, although `cce_polytope` reads neither.
    monkeypatch.setattr(equilibria, "halfspace_rows", swap_column_cells)
    monkeypatch.setattr(verify, "halfspace_rows", swap_column_cells)
    report = verify.run(seed=3, trials=4)
    assert len(report.failures) == 4
    for failure in report.failures:
        assert any(m.startswith("missing CCE vertex (") for m in failure.messages), failure.messages
    messages = [m for failure in report.failures for m in failure.messages]
    assert any(m.startswith("vertex (") and m.endswith(" violates a halfspace") for m in messages)
    assert any(m.endswith("endpoints share fewer than 2 tight constraints") for m in messages)


def patch_every_binding(monkeypatch, real, replacement):
    """Replace `real` in every `twobytwo` module that binds it."""
    for name, module in list(sys.modules.items()):
        if name == "twobytwo" or name.startswith("twobytwo."):
            for key, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, key, replacement)


def test_negative_control_swapped_column_advantages(monkeypatch):
    """An advantage core that swaps the column player's pair must be caught.

    br_graph, embed, nash_set and the CCE rows all derive from it and stay
    consistent with each other; the grid oracle and the corner checks read the
    raw payoffs and disagree.
    """
    real = core.advantages

    def swap_column_pair(game):
        a, b, c, d = real(game)
        return (a, b, d, c)

    patch_every_binding(monkeypatch, real, swap_column_pair)
    report = verify.run(seed=3, trials=4)
    assert len(report.failures) == 4
    assert any(
        m.startswith("grid oracle mismatch")
        or (m.startswith("component corner") and " rejected by " in m)
        for failure in report.failures
        for m in failure.messages
    )


def test_swapped_advantages_leave_no_stale_type(monkeypatch):
    """The sign tables are filled while the swapped advantage core is bound;
    unpatched, `cce_polytope` still equals the per-call code and `nash_set`
    the `Fraction` model on every sign pattern, since an entry is keyed by
    the signs it was built from."""
    real = core.advantages

    def swap_column_pair(game):
        a, b, c, d = real(game)
        return (a, b, d, c)

    equilibria._cce_type.cache_clear()
    equilibria._nash_type.cache_clear()
    with monkeypatch.context() as patched:
        patch_every_binding(patched, real, swap_column_pair)
        assert len(verify.run(seed=3, trials=4).failures) == 4
        assert equilibria._cce_type.cache_info().currsize > 0
    assert equilibria.advantages is core.advantages
    for a, b, c, d in itertools.product(range(-2, 3), repeat=4):
        game = game_from_flat((a, b, 0, 0, c, 0, d, 0))
        assert cce_polytope(game) == per_call_cce_polytope(game), game
        assert equilibria.nash_set(game) == reference_nash_set(game), game


def test_negative_control_doubled_entry_in_denominator_clearing(monkeypatch):
    """A `core.integerize` that doubles one entry must be caught.

    `is_nash` (through `best_response_set`), `_direct_nash` and the grid
    oracle all read payoffs cleared of denominators by it, so they agree with
    each other; the Nash set is built on the advantages, which `Game` clears
    on its own, and its component corners are rejected.
    """
    real = core.integerize

    def doubled(values):
        cleared = real(values)
        return (2 * cleared[0],) + cleared[1:]

    patch_every_binding(monkeypatch, real, doubled)
    report = verify.run(seed=3, trials=6)
    assert report.failures
    for failure in report.failures:
        assert any(
            m.startswith("component corner")
            and (m.endswith("rejected by is_nash") or m.endswith("rejected by deviation sums"))
            for m in failure.messages
        ), failure.messages


def drop_vertex(poly, k):
    """The polytope without vertex k: edges naming it go, the rest are re-indexed."""
    edges = tuple((i - (i > k), j - (j > k)) for i, j in poly.edges if k not in (i, j))
    return dataclasses.replace(poly, vertices=poly.vertices[:k] + poly.vertices[k + 1:], edges=edges)


def test_negative_control_dropped_cce_vertex(monkeypatch):
    """A polytope that loses a vertex stays feasible, tight and convex; the
    completeness route must name the vertex it lacks."""
    real = verify.cce_polytope

    def drop_first(game):
        poly = real(game)
        return drop_vertex(poly, 0) if len(poly.vertices) > 1 else poly

    monkeypatch.setattr(verify, "cce_polytope", drop_first)
    coordination = game_from_flat((2, 0, 0, 1, 2, 0, 0, 1))
    assert len(real(coordination).vertices) == 5
    failures = verify.check_cce(coordination, random.Random(0))
    assert failures == ["missing CCE vertex (Fraction(0, 1), Fraction(0, 1), Fraction(0, 1), Fraction(1, 1))"]

    report = verify.run(seed=1, trials=3)
    assert report.failures
    for failure in report.failures:
        assert len(real(failure.game).vertices) > 1
        assert any(m.startswith("missing CCE vertex (") for m in failure.messages)


def test_negative_control_repeated_cce_vertex(monkeypatch):
    """A polytope that lists a vertex again keeps the same set of points, so
    it stays feasible, tight, convex and complete; each repeat must be named,
    as the `Fraction` reference names it."""
    real = verify.cce_polytope

    def repeat_first(game):
        poly = real(game)
        return dataclasses.replace(poly, vertices=poly.vertices + poly.vertices[:1] * 2)

    monkeypatch.setattr(verify, "cce_polytope", repeat_first)
    coordination = game_from_flat(COORDINATION)
    first = real(coordination).vertices[0]
    assert verify.check_cce(coordination, random.Random(0)) == [f"vertex {first.prob} is listed more than once"] * 2
    rng = random.Random(6)
    assert_check_cce_matches_reference([coordination] + [verify.random_game(rng) for _ in range(20)], seed=6)

    for seed in (0, 7, 42):
        report = verify.run(seed=seed, trials=10)
        assert len(report.failures) == 10
        for failure in report.failures:
            first = real(failure.game).vertices[0]
            assert f"vertex {first.prob} is listed more than once" in failure.messages

def test_check_cce_reports_edge_to_missing_vertex(monkeypatch):
    """Edges that name an index past the vertex list are reported, not an IndexError."""
    real = verify.cce_polytope

    def drop_last_keep_edges(game):
        poly = real(game)
        return dataclasses.replace(poly, vertices=poly.vertices[:-1])

    monkeypatch.setattr(verify, "cce_polytope", drop_last_keep_edges)
    failures = verify.check_cce(game_from_flat((2, 0, 0, 1, 2, 0, 0, 1)), random.Random(0))
    assert [f for f in failures if "names a missing vertex" in f] == [
        f"edge ({i},4) names a missing vertex" for i in range(4)
    ]
    assert "missing CCE vertex (Fraction(1, 1), Fraction(0, 1), Fraction(0, 1), Fraction(0, 1))" in failures


def test_negative_control_dropped_cce_edge(monkeypatch):
    """A polytope that loses an edge keeps every vertex; the algebraic
    adjacency test must name the edge it lacks."""
    real = verify.cce_polytope

    def drop_first_edge(game):
        poly = real(game)
        return dataclasses.replace(poly, edges=poly.edges[1:])

    monkeypatch.setattr(verify, "cce_polytope", drop_first_edge)
    coordination = game_from_flat(COORDINATION)
    assert real(coordination).edges[0] == (0, 1)
    assert verify.check_cce(coordination, random.Random(0)) == ["missing CCE edge (0,1)"]

    report = verify.run(seed=1, trials=20)
    assert report.failures
    for failure in report.failures:
        i, j = real(failure.game).edges[0]
        assert failure.messages == [f"missing CCE edge ({i},{j})"]


def test_negative_control_extra_cce_edge(monkeypatch):
    """An edge from a vertex to itself shares every tight row of its ends, so
    only the rank test can reject it; joining the coordination game's
    non-edge is rejected already for sharing too few tight rows."""
    real = verify.cce_polytope
    coordination = game_from_flat(COORDINATION)
    assert (2, 3) not in real(coordination).edges
    for extra, message in (
        ((0, 0), "edge (0,0) is not an edge of the CCE polytope"),
        ((2, 3), "edge (2,3) endpoints share fewer than 2 tight constraints"),
    ):
        monkeypatch.setattr(verify, "cce_polytope", lambda game: dataclasses.replace(
            real(game), edges=real(game).edges + (extra,)))
        assert verify.check_cce(coordination, random.Random(0)) == [message]


def test_negative_control_dimension_off_by_one(monkeypatch):
    """A polytope whose dimension is one too high, or one too low, must be
    caught by the rank of the Cramer route's vertices, whatever its vertex count."""
    real = verify.cce_polytope
    for delta in (1, -1):
        with monkeypatch.context() as patched:
            patched.setattr(verify, "cce_polytope", lambda game: dataclasses.replace(
                real(game), dimension=real(game).dimension + delta))
            assert verify.check_cce(game_from_flat(COORDINATION), random.Random(0)) == [
                f"CCE dimension {3 + delta}, but the vertices span 3"
            ]
            report = verify.run(seed=1, trials=5)
        assert len(report.failures) == 5
        for failure in report.failures:
            dimension = real(failure.game).dimension
            assert failure.messages == [f"CCE dimension {dimension + delta}, but the vertices span {dimension}"]


def test_check_cce_edges_and_dimension_clean_on_quadruples():
    """Every advantage quadruple in {-3..3}^4 passes the edge and dimension
    checks: the combinatorial adjacency of the polytope and the algebraic
    test of the verifier agree, and so do both dimensions."""
    rng = random.Random(2)
    for a, b, c, d in itertools.product(range(-3, 4), repeat=4):
        assert verify.check_cce(game_from_flat((a, b, 0, 0, c, 0, d, 0)), rng) == []


def test_key_map_matches_fraction_reference():
    rng = random.Random(43)
    games = [verify.random_game(rng) for _ in range(60)]
    games += [game_from_flat([rng.choice((-1, 0, 1)) for _ in range(8)]) for _ in range(60)]
    games += [
        game_from_flat([Fraction(rng.randint(-(10**30), 10**30), rng.randint(1, 10**30)) for _ in range(8)])
        for _ in range(10)
    ]
    games += [game_from_flat(flat) for flat in (ALL_ZERO, COORDINATION, MATCHING_PENNIES, TRAFFIC_LIGHTS)]
    games.append(game_from_flat((0, 0, 0, 0, 2, 0, 0, 1)))  # an all-zero row player
    for game in games:
        assert_keys_match_fractions(game)


def test_negative_control_wrong_symmetry(monkeypatch):
    """A `permute` that also swaps the two action flags whenever it swaps the
    players applies the wrong group element; the key comparisons of Nash
    boxes and CCE vertices must catch it in every trial."""
    real = verify.permute

    def wrong_element(game, swap_row_actions=False, swap_col_actions=False, swap_players=False):
        if swap_players:
            swap_row_actions, swap_col_actions = swap_col_actions, swap_row_actions
        return real(game, swap_row_actions, swap_col_actions, swap_players)

    monkeypatch.setattr(verify, "permute", wrong_element)
    report = verify.run(seed=3, trials=10)
    assert len(report.failures) == 10
    for failure in report.failures:
        assert any(m.startswith("nash_set equivariance broken for flags") for m in failure.messages)
        assert any(m.startswith("CCE vertex equivariance broken for flags") for m in failure.messages)


def test_negative_control_own_action_offsets(monkeypatch):
    """Offsets indexed by the transformed player's own action, not the
    opponent's, change best responses; the key comparisons of the invariance
    check must report the changed Nash set and CCE vertices."""

    def own_action_offsets(game, player, scale, off_a, off_b):
        flat = list(game_to_flat(game))
        base = 0 if player is Player.ROW else 4
        for cell, (row_action, col_action) in enumerate(CELLS):
            own = row_action if player is Player.ROW else col_action
            flat[base + cell] = scale * flat[base + cell] + (off_a, off_b)[own]
        return game_from_flat(flat)

    monkeypatch.setattr(verify, "transform_affine", own_action_offsets)
    report = verify.run(seed=3, trials=10)
    messages = [m for failure in report.failures for m in failure.messages]
    assert any(m.startswith("nash_set changed under affine transform") for m in messages)
    assert any(m.startswith("CCE vertices changed under affine transform") for m in messages)
