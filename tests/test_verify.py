import dataclasses
import random
from fractions import Fraction

from conftest import ALL_ZERO, COORDINATION, MATCHING_PENNIES, PRISONERS_DILEMMA, TRAFFIC_LIGHTS
from twobytwo import verify
from twobytwo.core import JointDistribution, game_from_flat
from twobytwo.equilibria import NashSet, cce_polytope


def test_suite_passes_on_seeded_games():
    report = verify.run(seed=7, trials=15, combos=25)
    assert report.ok
    assert report.passed == report.trials == 15


def test_suite_deterministic_per_seed():
    a = verify.run(seed=42, trials=6, combos=10)
    b = verify.run(seed=42, trials=6, combos=10)
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
    report = verify.run(seed=3, trials=3, combos=10)
    assert not report.ok
    assert report.failures
    flat = report.failures[0].flat()
    assert len(flat.split()) == 8  # offending game printed as a flat 8-tuple


def test_negative_control_broken_is_nash(monkeypatch):
    real = verify.is_nash
    monkeypatch.setattr(verify, "is_nash", lambda g, m: not real(g, m))
    report = verify.run(seed=3, trials=3, combos=5)
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

    report = verify.run(seed=3, trials=4, combos=5)
    assert not report.ok
    for failure in report.failures:
        assert len(real(failure.game).components) > 1
        assert any("routes vs nash_set boxes" in m for m in failure.messages)


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
        assert verify.check_cce(verify.random_game(rng), rng, combos=20) == []
    # The value the Fraction-mix implementation leaves behind for the same calls.
    assert rng.random() == 0.3073553902230812


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


def test_run_records_per_check_timings():
    report = verify.run(seed=2, trials=3, combos=5)
    assert list(report.timings) == [
        "check_ne_grid",
        "check_ne_samples",
        "check_cce",
        "check_affine_invariance",
        "check_permute_equivariance",
        "check_embedding_consistency",
    ]
    assert all(calls == 3 and total_ns > 0 for calls, total_ns in report.timings.values())
