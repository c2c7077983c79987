"""Randomized oracle suites.

Every suite checks one computation against an independent route: grid
classification of Nash membership three ways, polytope vertices against the
raw constraint system, and the invariance/equivariance laws that the
equilibrium operations must satisfy under payoff transforms and symmetries.
All arithmetic is exact; a disagreement is a bug, never noise.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
import time
from fractions import Fraction

from . import kernels
from .core import (
    ADVANTAGE_ACTION,
    SYMMETRY_TABLE,
    Game,
    JointDistribution,
    MarginalPair,
    Player,
    advantages,
    game_from_flat,
    format_rational,
    game_to_flat,
    integerize,
    permute,
    permute_advantages,
    transform_affine,
)
from .embedding import class_of_embedding, embed, permute_embedding
from .equilibria import (
    NashSet,
    cce_holds,
    cce_polytope,
    halfspace_rows,
    is_nash,
    joint_in_cce,
    nash_product_joints,
    nash_set,
)
from .graphs import br_class, br_graph

GRID_STEPS = 100
CCE_COMBOS = 100

# The sum-to-one row: every point of the simplex is tight on it.
_SUM_ROW = (1, 1, 1, 1)


def random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-12, 12), rng.randint(1, 6))


def random_game(rng: random.Random) -> Game:
    return game_from_flat([random_rational(rng) for _ in range(8)])


def _draw_weights(rng: random.Random, count: int) -> list[int]:
    """`count` values of `rng.randint(0, 10)`, and the same state after.

    `randint(0, 10)` takes the top 4 bits of one 32-bit word at a time until
    they are below 11.  `getrandbits(32 * need)` returns the next `need`
    words, the first in the lowest bits, so the top 4 bits of each are those
    of its byte 3 in little-endian order.  Each word gives at most one value,
    so no word past the last value is read.
    """
    draws = []
    while len(draws) < count:
        need = count - len(draws)
        words = rng.getrandbits(32 * need).to_bytes(4 * need, "little")
        draws += [top for top in (b >> 4 for b in words[3::4]) if top < 11]
    return draws


def random_joint(rng: random.Random) -> JointDistribution:
    weights = [Fraction(rng.randint(0, 20)) for _ in range(4)]
    if sum(weights) == 0:
        weights[rng.randrange(4)] = Fraction(1)
    total = sum(weights)
    return JointDistribution(tuple(w / total for w in weights))


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


def _direct_nash(h_row: tuple[int, ...], h_col: tuple[int, ...], m: MarginalPair) -> bool:
    """Independent route: all four deviation-gain sums on the product joint.

    It reads only the integerized raw payoffs `h_row`, `h_col` and the
    marginals.  For p = a/b and q = c/d the product joint times b*d has the
    integer cell weights (a*c, a*(d-c), (b-a)*c, (b-a)*(d-c)).  Both b*d and
    each player's integerizing scale are positive, so every sum keeps its
    sign and each test is exact on integers.
    """
    a, b = m.row_prob_a.numerator, m.row_prob_a.denominator
    c, d = m.col_prob_a.numerator, m.col_prob_a.denominator
    w_aa, w_ab, w_ba, w_bb = a * c, a * (d - c), (b - a) * c, (b - a) * (d - c)
    r_aa, r_ab, r_ba, r_bb = h_row
    c_aa, c_ab, c_ba, c_bb = h_col
    return (
        w_ba * (r_aa - r_ba) + w_bb * (r_ab - r_bb) <= 0  # row player deviating to A
        and w_aa * (r_ba - r_aa) + w_ab * (r_bb - r_ab) <= 0  # row player deviating to B
        and w_ab * (c_aa - c_ab) + w_bb * (c_ba - c_bb) <= 0  # column player deviating to A
        and w_aa * (c_ab - c_aa) + w_ba * (c_bb - c_ba) <= 0  # column player deviating to B
    )


def check_ne_grid(game: Game) -> list[str]:
    """Three-route grid classification, exact spot checks at component
    corners, and components that are neither repeated nor nested.

    The grid routes and the corners see only the union of the components, so
    a repeated or nested one passes them.  A repeat equals an earlier box; a
    nested box has its corners in a different box, which then holds all of
    it.  Both tests are exact on the `Fraction` bounds."""
    n = GRID_STEPS
    failures = []
    ns = nash_set(game)
    h_row, h_col = integerize(game.row), integerize(game.col)
    mismatch = kernels.grid_oracle(n, h_row, h_col, grid_ranges(ns, n))
    if mismatch is not None:
        code, i, j = mismatch
        kind = "sign-route vs deviation-sum" if code == 1 else "routes vs nash_set boxes"
        failures.append(f"grid oracle mismatch ({kind}) at p={i}/{n}, q={j}/{n}")

    # The oracle works on a fixed lattice; corners of the exact components may
    # fall between lattice points, so confirm them (and the routes) exactly.
    for k, box in enumerate(ns.components):
        corners = box.corners()
        for m in corners:
            if not is_nash(game, m):
                failures.append(
                    f"component corner ({m.row_prob_a},{m.col_prob_a}) rejected by is_nash"
                )
            if not _direct_nash(h_row, h_col, m):
                failures.append(
                    f"component corner ({m.row_prob_a},{m.col_prob_a}) rejected by deviation sums"
                )
        repeated = box in ns.components[:k]
        if repeated or any(other != box and all(map(other.contains, corners)) for other in ns.components):
            kind = "is repeated" if repeated else "lies inside another"
            failures.append(f"component [{box.p_low},{box.p_high}]x[{box.q_low},{box.q_high}] {kind}")
    if not ns.components:
        failures.append("empty nash set")
    return failures


def check_ne_samples(game: Game, rng: random.Random) -> list[str]:
    """Tie the public exact routes together on 12 sampled grid profiles."""
    n = GRID_STEPS
    failures = []
    ns = nash_set(game)
    h_row, h_col = integerize(game.row), integerize(game.col)
    for _ in range(12):
        m = MarginalPair(Fraction(rng.randint(0, n), n), Fraction(rng.randint(0, n), n))
        routes = (is_nash(game, m), _direct_nash(h_row, h_col, m), ns.contains(m))
        if len(set(routes)) != 1:
            failures.append(
                f"route disagreement at ({m.row_prob_a},{m.col_prob_a}): "
                f"is_nash={routes[0]} deviation={routes[1]} boxes={routes[2]}"
            )
    return failures


def common_numerators(vertices) -> tuple[int, list[tuple[int, ...]]]:
    """The lcm D of every vertex coordinate's denominator, and each vertex
    times D; a vertex sums to one exactly when its numerators sum to D."""
    probs = [p for v in vertices for p in v.prob]
    scale = math.lcm(*[p.denominator for p in probs])
    flat = [p.numerator * (scale // p.denominator) for p in probs]
    return scale, [tuple(flat[k:k + 4]) for k in range(0, len(flat), 4)]


def integer_mix(weights, numerators, scale: int) -> tuple[Fraction, ...]:
    """The convex combination sum(w * v) / sum(w) of the vertices whose
    coordinates are `numerators / scale`: four integer sums, then one
    `Fraction` per coordinate."""
    total = sum(weights) * scale
    return tuple(
        Fraction(sum(w * nums[k] for w, nums in zip(weights, numerators)), total)
        for k in range(4)
    )


def _matrix_rank(rows: list[tuple]) -> int:
    """Rank by fraction-free elimination: exact on integers and `Fraction`s alike."""
    mat = [list(r) for r in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        top = mat[rank]
        for r in range(rank + 1, len(mat)):
            factor = mat[r][col]
            if factor != 0:
                mat[r] = [top[col] * x - factor * y for x, y in zip(mat[r], top)]
        rank += 1
    return rank


def cramer_vertex_numerators(rows: tuple[tuple[int, ...], ...]) -> set[tuple[int, ...]]:
    """Every feasible basic solution as coprime numerators n >= 0; the vertex is n / sum(n).

    The completeness route of `check_cce`.  It shares nothing with the cell-cycle
    walk of `equilibria.cce_polytope` but the rows: it knows neither the cycle
    nor which cells a row touches, and tries every basis instead.
    Each 3-subset of `rows`, made tight, plus sum-to-one is solved by Cramer's
    rule: coordinate l is the cofactor of the sum row's entry in column l
    over the determinant, and the four cofactors sum to that determinant.
    Every cofactor expands along the subset's first row r over the six 2x2
    minors of the other two rows s, t.  The loop therefore runs over the pair
    (s, t) first and over every earlier row r second, so each pair's minors
    are computed once rather than once per subset.
    """
    dev0, dev1, dev2, dev3 = rows[:4]
    found = set()
    for j, k in itertools.combinations(range(8), 2):
        s, t = rows[j], rows[k]
        # m_pq: the 2x2 minor of rows s, t on columns p, q.
        m01 = s[0] * t[1] - s[1] * t[0]
        m02 = s[0] * t[2] - s[2] * t[0]
        m03 = s[0] * t[3] - s[3] * t[0]
        m12 = s[1] * t[2] - s[2] * t[1]
        m13 = s[1] * t[3] - s[3] * t[1]
        m23 = s[2] * t[3] - s[3] * t[2]
        for r in rows[:j]:
            n0 = r[1] * m23 - r[2] * m13 + r[3] * m12
            n1 = r[2] * m03 - r[0] * m23 - r[3] * m02
            n2 = r[0] * m13 - r[1] * m03 + r[3] * m01
            n3 = r[1] * m02 - r[0] * m12 - r[2] * m01
            det = n0 + n1 + n2 + n3
            if det == 0:
                continue
            if det < 0:
                n0, n1, n2, n3 = -n0, -n1, -n2, -n3
            if n0 < 0 or n1 < 0 or n2 < 0 or n3 < 0:
                continue
            # Feasibility on the four deviation rows; the nonnegativity rows hold.
            if (
                dev0[0] * n0 + dev0[1] * n1 + dev0[2] * n2 + dev0[3] * n3 > 0
                or dev1[0] * n0 + dev1[1] * n1 + dev1[2] * n2 + dev1[3] * n3 > 0
                or dev2[0] * n0 + dev2[1] * n1 + dev2[2] * n2 + dev2[3] * n3 > 0
                or dev3[0] * n0 + dev3[1] * n1 + dev3[2] * n2 + dev3[3] * n3 > 0
            ):
                continue
            g = math.gcd(n0, n1, n2, n3)
            found.add((n0 // g, n1 // g, n2 // g, n3 // g))
    return found


def check_cce(game: Game, rng: random.Random) -> list[str]:
    """Distinct vertices, vertex feasibility, tightness rank, edge tightness,
    completeness, edge completeness, dimension, convexity, and NE containment.

    The vertices are scaled once to integer numerators over one common
    denominator; the scaling is positive, so it keeps every sign and zero.
    The halfspace rows and the advantages are integers already.
    `cce_polytope` builds its vertices without the validity check of
    `JointDistribution`, so each must have numerators summing to D;
    nonnegativity is the sign of the nonnegativity rows.  Over one common D
    two vertices are the same point exactly when their numerators are equal,
    and each later copy of a point is reported.
    Feasibility and tightness are the signs of integer dot products.
    Convexity is tested on `CCE_COMBOS` random convex combinations of the
    vertices, drawn with integer weights 0..10: `cce_holds` on the integer
    advantages and the four integer numerator sums of a combination.  All
    `CCE_COMBOS` times k weights are drawn in one list by `_draw_weights`,
    in the order of the combinations, and `cce_holds`'s verdict is reused
    for equal weights, which give the same point.  A `Fraction` mix is built
    only to report a combination outside the set, once for each time it is
    drawn.
    Completeness: every vertex that `cramer_vertex_numerators` finds on the
    integer rows must be in the polytope, compared as coprime numerators.
    Once the vertex list is exactly that set, its edges must be exactly the
    pairs whose shared tight rows, with the sum row, have rank 3 (the
    algebraic adjacency test, independent of the polytope's combinatorial
    one).  The polytope's dimension must be the rank of the differences of
    the Cramer route's vertices.
    """
    failures = []
    poly = cce_polytope(game)
    rows = halfspace_rows(game)
    if not poly.vertices:
        failures.append("empty CCE polytope")
        return failures

    scale, numerators = common_numerators(poly.vertices)
    tight_sets = []
    for k, (vertex, nums) in enumerate(zip(poly.vertices, numerators)):
        if nums in numerators[:k]:
            failures.append(f"vertex {vertex.prob} is listed more than once")
        if sum(nums) != scale:
            failures.append(f"vertex {vertex.prob} does not sum to 1")
        values = [sum(map(operator.mul, row, nums)) for row in rows]
        if any(v > 0 for v in values):
            failures.append(f"vertex {vertex.prob} violates a halfspace")
        tight = [k for k, v in enumerate(values) if v == 0]
        tight_sets.append(tight)
        if _matrix_rank([rows[k] for k in tight]) < 3:
            failures.append(f"vertex {vertex.prob} has fewer than 3 independent tight constraints")

    indices = range(len(tight_sets))
    listed = set()
    for i, j in poly.edges:
        if i not in indices or j not in indices:
            failures.append(f"edge ({i},{j}) names a missing vertex")
        elif len(set(tight_sets[i]) & set(tight_sets[j])) < 2:
            failures.append(f"edge ({i},{j}) endpoints share fewer than 2 tight constraints")
        else:
            listed.add((i, j) if i < j else (j, i))

    coprime = {tuple(x // math.gcd(*nums) for x in nums) for nums in numerators}
    cramer = cramer_vertex_numerators(rows)
    for n in sorted(cramer - coprime):
        total = sum(n)
        failures.append(f"missing CCE vertex {tuple(Fraction(x, total) for x in n)}")

    if coprime == cramer and len(coprime) == len(numerators):
        # The vertex list is exactly the Cramer route's, so its pairs are
        # judged: an edge is a segment of points tight on the rows both ends
        # share, i.e. those rows plus the sum row have rank 3.
        edges = {
            (i, j)
            for i, j in itertools.combinations(indices, 2)
            if _matrix_rank([rows[k] for k in set(tight_sets[i]) & set(tight_sets[j])] + [_SUM_ROW]) == 3
        }
        for i, j in sorted(edges - listed):
            failures.append(f"missing CCE edge ({i},{j})")
        for i, j in sorted(listed - edges):
            failures.append(f"edge ({i},{j}) is not an edge of the CCE polytope")
    if cramer:
        # The affine rank of the Cramer route's vertices: differences from one
        # vertex n0 / t0, each times sum(n) * t0.
        n0, *others = cramer
        t0 = sum(n0)
        span = _matrix_rank([tuple(t0 * x - sum(n) * y for x, y in zip(n, n0)) for n in others])
        if span != poly.dimension:
            failures.append(f"CCE dimension {poly.dimension}, but the vertices span {span}")

    adv = advantages(game)
    columns = tuple(zip(*numerators))
    k = len(numerators)
    draws = _draw_weights(rng, CCE_COMBOS * k)
    holds = {}
    # zip over k references to one iterator walks the draws k at a time.
    for weights in zip(*[iter(draws)] * k):
        if not any(weights):
            weights = (1,) + weights[1:]
        if weights not in holds:
            holds[weights] = cce_holds(adv, [sum(map(operator.mul, weights, col)) for col in columns])
        if not holds[weights]:
            mix = integer_mix(weights, numerators, scale)
            failures.append(f"convex combination {mix} outside the CCE set")

    for dist in nash_product_joints(nash_set(game)):
        if not joint_in_cce(game, dist):
            failures.append(f"NE product joint {dist.prob} outside the CCE set")
    return failures


def random_affine(rng: random.Random) -> tuple[Player, Fraction, Fraction, Fraction]:
    player = rng.choice((Player.ROW, Player.COL))
    scale = Fraction(rng.randint(1, 9), rng.randint(1, 5))
    return (player, scale, random_rational(rng), random_rational(rng))


def _keys(values) -> tuple[tuple[int, int], ...]:
    """Each rational as (numerator, denominator).  A `Fraction` is kept in
    lowest terms over a positive denominator, so keys are equal exactly when
    the values are, and they hash and compare as plain integers."""
    return tuple([(x.numerator, x.denominator) for x in values])


def _nash_keys(ns: NashSet) -> list[tuple[tuple[int, int], ...]]:
    return [_keys((box.p_low, box.p_high, box.q_low, box.q_high)) for box in ns.components]


def _vertex_keys(poly) -> list[tuple[tuple[int, int], ...]]:
    return [_keys(v.prob) for v in poly.vertices]


def check_affine_invariance(game: Game, rng: random.Random) -> list[str]:
    """br_graph, embed, nash_set, and the CCE vertex set must be bit-identical."""
    player, scale, off_a, off_b = random_affine(rng)
    other = transform_affine(game, player, scale, off_a, off_b)
    failures = []
    if br_graph(other) != br_graph(game):
        failures.append(f"br_graph changed under affine transform {player},{scale},{off_a},{off_b}")
    if embed(other) != embed(game):
        failures.append(f"embedding changed under affine transform {player},{scale},{off_a},{off_b}")
    if _nash_keys(nash_set(other)) != _nash_keys(nash_set(game)):
        failures.append(f"nash_set changed under affine transform {player},{scale},{off_a},{off_b}")
    if _vertex_keys(cce_polytope(game)) != _vertex_keys(cce_polytope(other)):
        failures.append(f"CCE vertices changed under affine transform {player},{scale},{off_a},{off_b}")
    return failures


def _map_box(key: tuple, flags: tuple[bool, bool, bool]) -> tuple:
    """The image of a Nash box, given by its endpoint keys, under one symmetry.

    Each player's marginal axis is the axis of the player whose advantages it
    takes (components 0 and 2 of `ADVANTAGE_ACTION`), reversed when they are
    negated, since a negated advantage means that player's actions are
    relabelled.  Reversed, the endpoint a/b becomes 1 - a/b = (b - a)/b, which
    is again in lowest terms.
    """
    axes = (key[:2], key[2:])
    image = ()
    for k, sign in ADVANTAGE_ACTION[flags][::2]:
        (a, b), (c, d) = axes[k // 2]
        image += ((a, b), (c, d)) if sign > 0 else ((d - c, d), (b - a, b))
    return image


def check_permute_equivariance(game: Game) -> list[str]:
    """All 8 symmetry elements must map every equilibrium object correspondingly.

    Nash boxes and CCE vertices are compared on their `_keys`.
    """
    failures = []
    base_br = br_graph(game)
    base_embed = embed(game)
    base_nash = _nash_keys(nash_set(game))
    base_vertices = set(_vertex_keys(cce_polytope(game)))
    for flags, (perm, _) in SYMMETRY_TABLE.items():
        other = permute(game, *flags)
        if br_graph(other) != permute_advantages(base_br, flags):
            failures.append(f"br_graph equivariance broken for flags {flags}")
        if embed(other) != permute_embedding(base_embed, *flags):
            failures.append(f"embedding equivariance broken for flags {flags}")
        mapped = {_map_box(key, flags) for key in base_nash}
        if mapped != set(_nash_keys(nash_set(other))):
            failures.append(f"nash_set equivariance broken for flags {flags}")
        mapped_vertices = {tuple(v[perm[i]] for i in range(4)) for v in base_vertices}
        if mapped_vertices != set(_vertex_keys(cce_polytope(other))):
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
    timings: dict[str, tuple[int, int]] | None = None,
) -> list[str]:
    """Run every check on one game; add each check's (calls, total ns) to `timings`.

    An exception inside a check becomes one failure message naming the check,
    so the trial fails with its game instead of ending the run.
    """
    checks = (
        ("check_ne_grid", lambda: check_ne_grid(game)),
        ("check_ne_samples", lambda: check_ne_samples(game, rng)),
        ("check_cce", lambda: check_cce(game, rng)),
        ("check_affine_invariance", lambda: check_affine_invariance(game, rng)),
        ("check_permute_equivariance", lambda: check_permute_equivariance(game)),
        ("check_embedding_consistency", lambda: check_embedding_consistency(game)),
    )
    failures = []
    for name, check in checks:
        start = time.perf_counter_ns()
        try:
            failures += check()
        except Exception as exc:
            failures.append(f"{name} raised {type(exc).__name__}: {exc}")
        if timings is not None:
            calls, total_ns = timings.get(name, (0, 0))
            timings[name] = (calls + 1, total_ns + time.perf_counter_ns() - start)
    return failures


class VerifyFailure:
    """One failing game and the messages of the checks it failed."""

    def __init__(self, game: Game, messages: list[str]) -> None:
        self.game = game
        self.messages = messages

    def flat(self) -> str:
        return " ".join(format_rational(v) for v in game_to_flat(self.game))


class VerifyReport:
    """The failing games of a run of `trials` trials, and each check's timings."""

    def __init__(
        self,
        trials: int,
        failures: list[VerifyFailure] | None = None,
        timings: dict[str, tuple[int, int]] | None = None,
    ) -> None:
        self.trials = trials
        self.failures = [] if failures is None else failures
        # check name -> (calls, total wall time in ns), in the order the checks ran
        self.timings = {} if timings is None else timings

    @property
    def passed(self) -> int:
        return self.trials - len(self.failures)

    @property
    def ok(self) -> bool:
        return not self.failures


def run(seed: int, trials: int) -> VerifyReport:
    """Run the full oracle suite on seeded random games; deterministic per seed."""
    rng = random.Random(seed)
    report = VerifyReport(trials=trials)
    for _ in range(trials):
        game = random_game(rng)
        messages = check_game(game, rng, timings=report.timings)
        if messages:
            report.failures.append(VerifyFailure(game=game, messages=messages))
    return report
