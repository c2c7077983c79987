import random

from twobytwo import verify
from twobytwo.core import game_from_flat
from twobytwo.equilibria import NashSet


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
