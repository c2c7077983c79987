"""Reference models that more than one test module checks the library against.

They come in two kinds:

- independent models of the paper's objects, in `Fraction` arithmetic or
  one grid point at a time: `deviation_gain`, `reference_advantages`,
  `reference_halfspace_rows`, `reference_nash_set`, `reference_grid_oracle`,
  `reference_check_cce` and `reference_map_box`;
- copies of library code that a change deleted, kept to show that the change
  left every output as it was: `per_call_cce_polytope`, the per-call code that
  the sign table of `equilibria._cce_type` replaced.

A copy of deleted code goes only when mutants show that another test makes
the same check; CHANGES.md records that evidence for each copy removed.
Test modules take shared helpers from here, `conftest` or `dispatch_corpus`,
never from one another.
"""

import itertools
import math
from fractions import Fraction
from fractions import Fraction as F

from twobytwo import verify
from twobytwo.core import ADVANTAGE_ACTION, SYMMETRY_FLAGS, JointDistribution, Player, game_from_flat
from twobytwo.equilibria import Box, CcePolytope, NashSet, cce_polytope, halfspace_rows, nash_product_joints
from twobytwo.verify import _matrix_rank

from conftest import CELLS


# --- random games ----------------------------------------------------------------


def random_rational(rng, bound=9):
    return F(rng.randint(-bound, bound), rng.randint(1, 6))


def random_game(rng):
    return game_from_flat([random_rational(rng) for _ in range(8)])


# --- deviation gains and constraint rows --------------------------------------------


def deviation_gain(game, player, deviation, dist):
    """The raw no-regret sum: expected gain from always switching to `deviation`.

    The two cells where the player already plays `deviation` gain exactly 0
    and are skipped.
    """
    table = game.payoffs(player)
    prob = dist.prob
    total = F(0)
    for cell, (r_act, c_act) in enumerate(CELLS):
        if player is Player.ROW:
            if r_act != deviation:
                total += prob[cell] * (table[2 * deviation + c_act] - table[cell])
        elif c_act != deviation:
            total += prob[cell] * (table[2 * r_act + deviation] - table[cell])
    return total


def reference_advantages(game):
    """The raw `Fraction` differences that `core.advantages` clears of
    denominators, kept as the reference: (r0 - r2, r1 - r3, c0 - c1, c2 - c3)."""
    r, c = game.row, game.col
    return (r[0] - r[2], r[1] - r[3], c[0] - c[1], c[2] - c[3])


def reference_halfspace_rows(game):
    """The `Fraction` rows that the integer ones replaced, kept as the reference:
    the four no-gain rows on the advantages, then -sigma_i <= 0 per cell."""
    zero, one = F(0), F(1)
    a, b, c, d = reference_advantages(game)
    return (
        (zero, zero, a, b),
        (-a, -b, zero, zero),
        (zero, c, zero, d),
        (-c, zero, -d, zero),
    ) + tuple(tuple(-one if j == i else zero for j in range(4)) for i in range(4))


# --- nash sets -------------------------------------------------------------------
# The `Fraction` box algebra that the rank algebra of `nash_set` replaced,
# kept as the reference: every endpoint is a `Fraction` from the start, and
# `_normalize` merges boxes where `equilibria._normalize` only drops nested ones.

_ZERO, _ONE = F(0), F(1)


def _reaction_boxes(
    adv: tuple[Fraction, Fraction]
) -> list[tuple[Fraction, Fraction, Fraction, Fraction]]:
    """Boxes (own_low, own_high, opp_low, opp_high) of best-response-consistent profiles.

    `adv` is the payoff advantage of the player's action A against each
    opponent pure action; the advantage at opponent mix y is
    y*adv[0] + (1-y)*adv[1].
    """
    a, b = adv
    if a == 0 and b == 0:
        return [(_ZERO, _ONE, _ZERO, _ONE)]
    if a >= 0 and b >= 0:
        boxes = [(_ONE, _ONE, _ZERO, _ONE)]
        if a == 0:  # indifferent exactly when the opponent plays A surely
            boxes.append((_ZERO, _ONE, _ONE, _ONE))
        if b == 0:
            boxes.append((_ZERO, _ONE, _ZERO, _ZERO))
        return boxes
    if a <= 0 and b <= 0:
        boxes = [(_ZERO, _ZERO, _ZERO, _ONE)]
        if a == 0:
            boxes.append((_ZERO, _ONE, _ONE, _ONE))
        if b == 0:
            boxes.append((_ZERO, _ONE, _ZERO, _ZERO))
        return boxes
    ystar = b / (b - a)  # unique interior indifference point
    if a > 0:  # prefers B below ystar, A above
        return [
            (_ZERO, _ZERO, _ZERO, ystar),
            (_ZERO, _ONE, ystar, ystar),
            (_ONE, _ONE, ystar, _ONE),
        ]
    return [
        (_ONE, _ONE, _ZERO, ystar),
        (_ZERO, _ONE, ystar, ystar),
        (_ZERO, _ZERO, ystar, _ONE),
    ]


def _intersect(b1: Box, b2: Box) -> Box | None:
    p_low, p_high = max(b1.p_low, b2.p_low), min(b1.p_high, b2.p_high)
    q_low, q_high = max(b1.q_low, b2.q_low), min(b1.q_high, b2.q_high)
    if p_low > p_high or q_low > q_high:
        return None
    return Box(p_low, p_high, q_low, q_high)


def _contains_box(outer: Box, inner: Box) -> bool:
    return (
        outer.p_low <= inner.p_low
        and inner.p_high <= outer.p_high
        and outer.q_low <= inner.q_low
        and inner.q_high <= outer.q_high
    )


def _merge(b1: Box, b2: Box) -> Box | None:
    """The union if it is itself a box (shared interval on one axis, touching on the other)."""
    if (b1.p_low, b1.p_high) == (b2.p_low, b2.p_high):
        if b1.q_low <= b2.q_high and b2.q_low <= b1.q_high:
            return Box(b1.p_low, b1.p_high, min(b1.q_low, b2.q_low), max(b1.q_high, b2.q_high))
    if (b1.q_low, b1.q_high) == (b2.q_low, b2.q_high):
        if b1.p_low <= b2.p_high and b2.p_low <= b1.p_high:
            return Box(min(b1.p_low, b2.p_low), max(b1.p_high, b2.p_high), b1.q_low, b1.q_high)
    return None


def _normalize(boxes: list[Box]) -> tuple[Box, ...]:
    work = list(boxes)
    changed = True
    while changed:
        changed = False
        # drop boxes nested inside another
        kept: list[Box] = []
        for box in work:
            if any(
                other is not box and _contains_box(other, box) and other != box
                for other in work
            ) or box in kept:
                continue
            kept.append(box)
        if len(kept) != len(work):
            work, changed = kept, True
            continue
        for i, j in itertools.combinations(range(len(work)), 2):
            merged = _merge(work[i], work[j])
            if merged is not None and merged != work[i]:
                work = [b for k, b in enumerate(work) if k not in (i, j)] + [merged]
                changed = True
                break
            if merged is not None and merged == work[i]:
                work = [b for k, b in enumerate(work) if k != j]
                changed = True
                break
    return tuple(sorted(work, key=lambda b: (b.p_low, b.p_high, b.q_low, b.q_high)))


def reference_nash_set(game):
    a, b, c, d = reference_advantages(game)
    row_boxes = [
        Box(p_low=own_lo, p_high=own_hi, q_low=opp_lo, q_high=opp_hi)
        for own_lo, own_hi, opp_lo, opp_hi in _reaction_boxes((a, b))
    ]
    col_boxes = [
        Box(p_low=opp_lo, p_high=opp_hi, q_low=own_lo, q_high=own_hi)
        for own_lo, own_hi, opp_lo, opp_hi in _reaction_boxes((c, d))
    ]
    pieces = []
    for rb in row_boxes:
        for cb in col_boxes:
            hit = _intersect(rb, cb)
            if hit is not None:
                pieces.append(hit)
    return NashSet(components=_normalize(pieces))


# --- cce polytopes ---------------------------------------------------------------
# The per-call code that the table of `_cce_type` replaced, kept as the
# reference: the walk, adjacency and rank on the game's own rows, on every call.


def per_call_vertex_numerators(rows):
    """The cell-cycle walk over all 16 candidates, tested on the rows."""
    dev_rows = rows[:4]
    edges = [(rows[r][i], rows[r][j]) for r, i, j in ((1, 0, 1), (2, 1, 3), (0, 3, 2), (3, 2, 0))]
    candidates = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    for start in range(4):
        run = [1]
        for step in range(3):
            u, v = edges[(start + step) % 4]
            if not (u < 0 < v or v < 0 < u):
                break
            run = [w * abs(v) for w in run] + [run[-1] * abs(u)]
            n = [0, 0, 0, 0]
            for offset, w in enumerate(run):
                n[(0, 1, 3, 2)[(start + offset) % 4]] = w
            candidates.append(n)
    found = set()
    for n in candidates:
        if all(sum(r * x for r, x in zip(row, n)) <= 0 for row in dev_rows):
            g = math.gcd(*n)
            found.add(tuple(x // g for x in n))
    return found


def per_call_cce_polytope(game):
    rows = halfspace_rows(game)
    found = per_call_vertex_numerators(rows)
    scale = math.lcm(*map(sum, found))
    numerators = sorted(found, key=lambda n: [x * (scale // sum(n)) for x in n])
    joints = tuple(JointDistribution(tuple(F(x, sum(n)) for x in n)) for n in numerators)
    if len(numerators) <= 1:
        return CcePolytope(vertices=joints, edges=(), dimension=0)
    tight_sets = [
        frozenset(i for i, row in enumerate(rows) if sum(r * x for r, x in zip(row, n)) == 0)
        for n in numerators
    ]
    edges = tuple(
        (i, j)
        for i, j in itertools.combinations(range(len(numerators)), 2)
        if not any(
            tight_sets[i] & tight_sets[j] <= tight_sets[k] for k in range(len(numerators)) if k not in (i, j)
        )
    )
    n0, t0 = numerators[0], sum(numerators[0])
    diffs = [tuple(t0 * x - sum(n) * y for x, y in zip(n, n0)) for n in numerators[1:]]
    return CcePolytope(vertices=joints, edges=edges, dimension=_matrix_rank(diffs))


# --- the grid oracle -------------------------------------------------------------


def _sgn(value):
    return (value > 0) - (value < 0)


def reference_grid_oracle(n, h_row, h_col, boxes):
    """The point-at-a-time oracle that the row-at-a-time one replaced."""
    a1, b1, c1, d1 = h_row
    a2, b2, c2, d2 = h_col

    adv_row_a, adv_row_b = a1 - c1, b1 - d1
    adv_col_a, adv_col_b = a2 - b2, c2 - d2
    sign_row = [_sgn(j * adv_row_a + (n - j) * adv_row_b) for j in range(n + 1)]
    sign_col = [_sgn(i * adv_col_a + (n - i) * adv_col_b) for i in range(n + 1)]

    k_ra_ba, k_ra_bb = a1 - c1, b1 - d1
    k_rb_aa, k_rb_ab = c1 - a1, d1 - b1
    k_ca_ab, k_ca_bb = a2 - b2, c2 - d2
    k_cb_aa, k_cb_ba = b2 - a2, d2 - c2

    box_list = [tuple(box) for box in boxes]

    for i in range(n + 1):
        sc = sign_col[i]
        ni = n - i
        col_ok_j0 = sc <= 0
        col_ok_jn = sc >= 0
        col_ok_mid = sc == 0
        for j in range(n + 1):
            sr = sign_row[j]
            row_ok = sr == 0 or (sr > 0 and i == n) or (sr < 0 and i == 0)
            if j == 0:
                col_ok = col_ok_j0
            elif j == n:
                col_ok = col_ok_jn
            else:
                col_ok = col_ok_mid
            nash_sign = row_ok and col_ok

            s_aa = i * j
            s_ab = i * (n - j)
            s_ba = ni * j
            s_bb = ni * (n - j)
            nash_sum = (
                k_ra_ba * s_ba + k_ra_bb * s_bb <= 0
                and k_rb_aa * s_aa + k_rb_ab * s_ab <= 0
                and k_ca_ab * s_ab + k_ca_bb * s_bb <= 0
                and k_cb_aa * s_aa + k_cb_ba * s_ba <= 0
            )
            if nash_sign != nash_sum:
                return (1, i, j)

            in_box = any(
                imin <= i <= imax and jmin <= j <= jmax
                for imin, imax, jmin, jmax in box_list
            )
            if nash_sign != in_box:
                return (2, i, j)
    return None


def box_variants(ranges, n):
    """The intact box list and corrupted copies of it."""
    return [
        ranges,
        ranges[1:],  # a dropped component
        ranges[:-1],
        [(0, n, 0, n)],  # the whole square
        [(imin - 1, imax, jmin, jmax) for imin, imax, jmin, jmax in ranges],  # shifted by one
        [(imin, imax + 1, jmin, jmax) for imin, imax, jmin, jmax in ranges],
        [(imin, imax, jmin + 1, jmax) for imin, imax, jmin, jmax in ranges],
        [(imin, imax, jmin, jmax - 1) for imin, imax, jmin, jmax in ranges],
        [(imin + 1, imax + 1, jmin + 1, jmax + 1) for imin, imax, jmin, jmax in ranges],
        [],
        # Two or more spans on one row, overlapping, touching or apart:
        ranges + ranges[:1],  # a duplicated box
        [  # every box split into two touching halves: the union is intact
            half
            for imin, imax, jmin, jmax in ranges
            for half in ((imin, imax, jmin, (jmin + jmax) // 2), (imin, imax, (jmin + jmax) // 2 + 1, jmax))
        ],
        ranges + [(imin, imax, jmin + 1, jmax + 1) for imin, imax, jmin, jmax in ranges[:1]],  # two overlapping
        [  # halves with the middle column left out: two disjoint spans
            half
            for imin, imax, jmin, jmax in ranges
            for half in ((imin, imax, jmin, (jmin + jmax) // 2 - 1), (imin, imax, (jmin + jmax) // 2 + 1, jmax))
        ],
        # j-ranges reaching beyond 0..n where they end at 0 or n: the clipped union is intact
        [(imin, imax, jmin - n if jmin == 0 else jmin, jmax + n if jmax == n else jmax) for imin, imax, jmin, jmax in ranges],
    ]


# --- the verifier's checks -------------------------------------------------------


def reference_check_cce(game, rng, combos=100):
    """The `Fraction` check that the integer one replaced, kept as the reference:
    dot products on `Fraction` vertices, and each combination a normalized
    `JointDistribution` tested by `joint_in_cce`."""
    failures = []
    poly = verify.cce_polytope(game)
    rows = reference_halfspace_rows(game)
    if not poly.vertices:
        failures.append("empty CCE polytope")
        return failures

    tight_sets = []
    for k, vertex in enumerate(poly.vertices):
        if vertex.prob in [v.prob for v in poly.vertices[:k]]:
            failures.append(f"vertex {vertex.prob} is listed more than once")
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

    scale, numerators = verify.common_numerators(poly.vertices)
    for _ in range(combos):
        weights = [rng.randint(0, 10) for _ in poly.vertices]
        if sum(weights) == 0:
            weights[0] = 1
        mix = verify.integer_mix(weights, numerators, scale)
        if not verify.joint_in_cce(game, JointDistribution(mix)):
            failures.append(f"convex combination {mix} outside the CCE set")

    for dist in nash_product_joints(verify.nash_set(game)):
        if not verify.joint_in_cce(game, dist):
            failures.append(f"NE product joint {dist.prob} outside the CCE set")
    return failures


def reference_map_box(box, flags):
    """The `Fraction` map that the key map replaced: 1 - x on a reversed axis."""
    axes = ((box.p_low, box.p_high), (box.q_low, box.q_high))
    (p_low, p_high), (q_low, q_high) = (
        axes[k // 2] if sign > 0 else (1 - axes[k // 2][1], 1 - axes[k // 2][0])
        for k, sign in ADVANTAGE_ACTION[flags][::2]
    )
    return Box(p_low, p_high, q_low, q_high)


def box_key(box):
    return verify._nash_keys(NashSet(components=(box,)))[0]


def assert_keys_match_fractions(game):
    """The key map agrees with the `Fraction` map on every component and
    symmetry, and keys are equal exactly when the values are, for the boxes
    and CCE vertices of the game and of each of its images."""
    boxes, vertices = [], []
    for flags in SYMMETRY_FLAGS:
        for box in verify.nash_set(game).components:
            image = reference_map_box(box, flags)
            assert verify._map_box(box_key(box), flags) == box_key(image), (game, flags, box)
            boxes += [box, image]
        other = verify.permute(game, *flags)
        boxes += verify.nash_set(other).components
        vertices += cce_polytope(other).vertices
    for items, key in ((boxes, box_key), (vertices, lambda v: verify._keys(v.prob))):
        for a in items:
            for b in items:
                assert (key(a) == key(b)) == (a == b), (a, b)
