"""Randomized oracle suites.

Every suite checks one computation against an independent route: grid
classification of Nash membership three ways, polytope vertices against the
raw constraint system, and the invariance/equivariance laws that the
equilibrium operations must satisfy under payoff transforms and symmetries.
All arithmetic is exact; a disagreement is a bug, never noise.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import kernels
from .core import (
    Game,
    JointDistribution,
    MarginalPair,
    Player,
    SYMMETRY_FLAGS,
    game_from_flat,
    format_rational,
    game_to_flat,
    permute,
    product_joint,
    transform_affine,
)
from .embedding import class_of_embedding, embed, permute_embedding
from .equilibria import (
    Box,
    NashSet,
    cce_polytope,
    deviation_gain,
    halfspace_rows,
    is_nash,
    joint_in_cce,
    nash_product_joints,
    nash_set,
    _matrix_rank,
)
from .graphs import br_class, br_graph, permute_br_graph

GRID_STEPS = 100

_SWAP_ROW = (2, 3, 0, 1)
_SWAP_COL = (1, 0, 3, 2)
_TRANSPOSE = (0, 2, 1, 3)


def random_rational(rng: random.Random, num_bound: int = 12, den_bound: int = 6) -> Fraction:
    return Fraction(rng.randint(-num_bound, num_bound), rng.randint(1, den_bound))


def random_game(rng: random.Random) -> Game:
    return game_from_flat([random_rational(rng) for _ in range(8)])


def random_joint(rng: random.Random) -> JointDistribution:
    weights = [Fraction(rng.randint(0, 20)) for _ in range(4)]
    if sum(weights) == 0:
        weights[rng.randrange(4)] = Fraction(1)
    total = sum(weights)
    return JointDistribution(tuple(w / total for w in weights))


def integerize(payoffs) -> tuple[int, int, int, int]:
    """Clear denominators with the lcm; a positive per-player scaling, so all
    best-response and equilibrium decisions are unchanged."""
    common = math.lcm(*(p.denominator for p in payoffs))
    return tuple(p.numerator * (common // p.denominator) for p in payoffs)


def grid_ranges(ns: NashSet, n: int) -> list[tuple[int, int, int, int]]:
    """Each component as the inclusive grid-index ranges it covers (exact)."""
    return [
        (
            math.ceil(box.p_low * n),
            math.floor(box.p_high * n),
            math.ceil(box.q_low * n),
            math.floor(box.q_high * n),
        )
        for box in ns.components
    ]


def _direct_nash(game: Game, m: MarginalPair) -> bool:
    # Independent route: evaluate all four deviation-gain sums on the product joint.
    dist = product_joint(m)
    return all(
        deviation_gain(game, player, action, dist) <= 0
        for player in (Player.ROW, Player.COL)
        for action in (0, 1)
    )


def check_ne_grid(game: Game, n: int = GRID_STEPS) -> list[str]:
    """Three-route grid classification plus exact spot checks at component corners."""
    failures = []
    ns = nash_set(game)
    mismatch = kernels.grid_oracle(
        n, integerize(game.row), integerize(game.col), grid_ranges(ns, n)
    )
    if mismatch is not None:
        code, i, j = mismatch
        kind = "sign-route vs deviation-sum" if code == 1 else "routes vs nash_set boxes"
        failures.append(f"grid oracle mismatch ({kind}) at p={i}/{n}, q={j}/{n}")

    # The oracle works on a fixed lattice; corners of the exact components may
    # fall between lattice points, so confirm them (and the routes) exactly.
    for box in ns.components:
        for m in box.corners():
            if not is_nash(game, m):
                failures.append(
                    f"component corner ({m.row_prob_a},{m.col_prob_a}) rejected by is_nash"
                )
            if not _direct_nash(game, m):
                failures.append(
                    f"component corner ({m.row_prob_a},{m.col_prob_a}) rejected by deviation sums"
                )
    if not ns.components:
        failures.append("empty nash set")
    return failures


def check_ne_samples(game: Game, rng: random.Random, samples: int = 12, n: int = GRID_STEPS) -> list[str]:
    """Tie the public exact routes together on sampled profiles."""
    failures = []
    ns = nash_set(game)
    for _ in range(samples):
        m = MarginalPair(Fraction(rng.randint(0, n), n), Fraction(rng.randint(0, n), n))
        routes = (is_nash(game, m), _direct_nash(game, m), ns.contains(m))
        if len(set(routes)) != 1:
            failures.append(
                f"route disagreement at ({m.row_prob_a},{m.col_prob_a}): "
                f"is_nash={routes[0]} deviation={routes[1]} boxes={routes[2]}"
            )
    return failures


def common_numerators(vertices) -> tuple[int, list[tuple[int, ...]]]:
    """The lcm D of every vertex coordinate's denominator, and each vertex times D."""
    scale = math.lcm(*(p.denominator for v in vertices for p in v.prob))
    return scale, [tuple(p.numerator * (scale // p.denominator) for p in v.prob) for v in vertices]


def integer_mix(weights, numerators, scale: int) -> tuple[Fraction, ...]:
    """The convex combination sum(w * v) / sum(w) of the vertices whose
    coordinates are `numerators / scale`: four integer sums, then one
    `Fraction` per coordinate."""
    total = sum(weights) * scale
    return tuple(
        Fraction(sum(w * nums[k] for w, nums in zip(weights, numerators)), total)
        for k in range(4)
    )


def check_cce(game: Game, rng: random.Random, combos: int = 100) -> list[str]:
    """Vertex feasibility, tightness rank, edge tightness, convexity, and NE containment.

    Convexity is tested on `combos` random convex combinations of the
    vertices, drawn with integer weights 0..10.  The vertices are scaled once
    to integer numerators over one common denominator, so each combination is
    four integer sums and one exact `Fraction` per coordinate.
    """
    failures = []
    poly = cce_polytope(game)
    rows = halfspace_rows(game)
    if not poly.vertices:
        failures.append("empty CCE polytope")
        return failures

    tight_sets = []
    for vertex in poly.vertices:
        values = [sum((vertex.prob[j] * row[j] for j in range(4)), Fraction(0)) for row in rows]
        if any(v > 0 for v in values):
            failures.append(f"vertex {vertex.prob} violates a halfspace")
        tight = [k for k, v in enumerate(values) if v == 0]
        tight_sets.append(tight)
        if _matrix_rank([rows[k] for k in tight]) < 3:
            failures.append(f"vertex {vertex.prob} has fewer than 3 independent tight constraints")

    for i, j in poly.edges:
        if len(set(tight_sets[i]) & set(tight_sets[j])) < 2:
            failures.append(f"edge ({i},{j}) endpoints share fewer than 2 tight constraints")

    scale, numerators = common_numerators(poly.vertices)
    for _ in range(combos):
        weights = [rng.randint(0, 10) for _ in poly.vertices]
        if sum(weights) == 0:
            weights[0] = 1
        mix = integer_mix(weights, numerators, scale)
        if not joint_in_cce(game, JointDistribution(mix)):
            failures.append(f"convex combination {mix} outside the CCE set")

    for dist in nash_product_joints(nash_set(game)):
        if not joint_in_cce(game, dist):
            failures.append(f"NE product joint {dist.prob} outside the CCE set")
    return failures


def random_affine(rng: random.Random) -> tuple[Player, Fraction, Fraction, Fraction]:
    player = rng.choice((Player.ROW, Player.COL))
    scale = Fraction(rng.randint(1, 9), rng.randint(1, 5))
    return (player, scale, random_rational(rng), random_rational(rng))


def check_affine_invariance(game: Game, rng: random.Random) -> list[str]:
    """br_graph, embed, nash_set, and the CCE vertex set must be bit-identical."""
    player, scale, off_a, off_b = random_affine(rng)
    other = transform_affine(game, player, scale, off_a, off_b)
    failures = []
    if br_graph(other) != br_graph(game):
        failures.append(f"br_graph changed under affine transform {player},{scale},{off_a},{off_b}")
    if embed(other) != embed(game):
        failures.append(f"embedding changed under affine transform {player},{scale},{off_a},{off_b}")
    if nash_set(other) != nash_set(game):
        failures.append(f"nash_set changed under affine transform {player},{scale},{off_a},{off_b}")
    before = tuple(v.prob for v in cce_polytope(game).vertices)
    after = tuple(v.prob for v in cce_polytope(other).vertices)
    if before != after:
        failures.append(f"CCE vertices changed under affine transform {player},{scale},{off_a},{off_b}")
    return failures


def _map_marginals(m: MarginalPair, swap_row: bool, swap_col: bool, swap_players: bool) -> MarginalPair:
    p, q = m.row_prob_a, m.col_prob_a
    if swap_players:
        p, q = q, p
    if swap_row:
        p = 1 - p
    if swap_col:
        q = 1 - q
    return MarginalPair(p, q)


def _map_box(box: Box, swap_row: bool, swap_col: bool, swap_players: bool) -> Box:
    p_int, q_int = (box.p_low, box.p_high), (box.q_low, box.q_high)
    if swap_players:
        p_int, q_int = q_int, p_int
    if swap_row:
        p_int = (1 - p_int[1], 1 - p_int[0])
    if swap_col:
        q_int = (1 - q_int[1], 1 - q_int[0])
    return Box(p_int[0], p_int[1], q_int[0], q_int[1])


def _joint_permutation(swap_row: bool, swap_col: bool, swap_players: bool) -> tuple[int, ...]:
    perm = (0, 1, 2, 3)
    if swap_players:
        perm = tuple(perm[_TRANSPOSE[i]] for i in range(4))
    if swap_row:
        perm = tuple(perm[_SWAP_ROW[i]] for i in range(4))
    if swap_col:
        perm = tuple(perm[_SWAP_COL[i]] for i in range(4))
    return perm


def check_permute_equivariance(game: Game) -> list[str]:
    """All 8 symmetry elements must map every equilibrium object correspondingly."""
    failures = []
    base_br = br_graph(game)
    base_embed = embed(game)
    base_nash = nash_set(game)
    base_vertices = {v.prob for v in cce_polytope(game).vertices}
    for flags in SYMMETRY_FLAGS:
        other = permute(game, *flags)
        if br_graph(other) != permute_br_graph(base_br, *flags):
            failures.append(f"br_graph equivariance broken for flags {flags}")
        if embed(other) != permute_embedding(base_embed, *flags):
            failures.append(f"embedding equivariance broken for flags {flags}")
        mapped = {
            (b.p_low, b.p_high, b.q_low, b.q_high)
            for b in (_map_box(box, *flags) for box in base_nash.components)
        }
        actual = {
            (b.p_low, b.p_high, b.q_low, b.q_high) for b in nash_set(other).components
        }
        if mapped != actual:
            failures.append(f"nash_set equivariance broken for flags {flags}")
        perm = _joint_permutation(*flags)
        mapped_vertices = {tuple(v[perm[i]] for i in range(4)) for v in base_vertices}
        actual_vertices = {v.prob for v in cce_polytope(other).vertices}
        if mapped_vertices != actual_vertices:
            failures.append(f"CCE vertex equivariance broken for flags {flags}")
    return failures


def check_embedding_consistency(game: Game) -> list[str]:
    via_embedding = class_of_embedding(embed(game))
    direct = br_class(game)
    if via_embedding != direct:
        return [f"class mismatch: embedding gives {via_embedding}, br_class gives {direct}"]
    return []


def check_game(
    game: Game,
    rng: random.Random,
    grid_steps: int = GRID_STEPS,
    combos: int = 100,
    timings: dict[str, tuple[int, int]] | None = None,
) -> list[str]:
    """Run every check on one game; add each check's (calls, total ns) to `timings`."""
    checks = (
        ("check_ne_grid", lambda: check_ne_grid(game, grid_steps)),
        ("check_ne_samples", lambda: check_ne_samples(game, rng, n=grid_steps)),
        ("check_cce", lambda: check_cce(game, rng, combos=combos)),
        ("check_affine_invariance", lambda: check_affine_invariance(game, rng)),
        ("check_permute_equivariance", lambda: check_permute_equivariance(game)),
        ("check_embedding_consistency", lambda: check_embedding_consistency(game)),
    )
    failures = []
    for name, check in checks:
        start = time.perf_counter_ns()
        failures += check()
        if timings is not None:
            calls, total_ns = timings.get(name, (0, 0))
            timings[name] = (calls + 1, total_ns + time.perf_counter_ns() - start)
    return failures


@dataclass
class VerifyFailure:
    game: Game
    messages: list[str]

    def flat(self) -> str:
        return " ".join(format_rational(v) for v in game_to_flat(self.game))


@dataclass
class VerifyReport:
    trials: int
    failures: list[VerifyFailure] = field(default_factory=list)
    # check name -> (calls, total wall time in ns), in the order the checks ran
    timings: dict[str, tuple[int, int]] = field(default_factory=dict)

    @property
    def passed(self) -> int:
        return self.trials - len(self.failures)

    @property
    def ok(self) -> bool:
        return not self.failures


def run(seed: int, trials: int, grid_steps: int = GRID_STEPS, combos: int = 100) -> VerifyReport:
    """Run the full oracle suite on seeded random games; deterministic per seed."""
    rng = random.Random(seed)
    report = VerifyReport(trials=trials)
    for _ in range(trials):
        game = random_game(rng)
        messages = check_game(game, rng, grid_steps=grid_steps, combos=combos, timings=report.timings)
        if messages:
            report.failures.append(VerifyFailure(game=game, messages=messages))
    return report
