"""Exact equilibrium sets of 2x2 games.

Nash equilibria are found by a closed-form case analysis on the sign of each
player's payoff advantage line; the result is a finite union of axis-aligned
boxes in marginal space.  The coarse-correlated-equilibrium set is a convex
polytope in the joint-strategy simplex, enumerated exactly: every subset of
three inequality constraints is solved against the sum-to-one equality and
feasible solutions are kept.  The Nash boxes, the constraint rows and the
membership test all read the players' advantages from `core.advantages`.
The four CCE inequalities are written once, in `cce_holds`, on an advantage
quadruple and unnormalized cell weights; `joint_in_cce` applies it to a
joint, and the verifier applies it to integer numerators.
Each row is cleared of denominators by `core.integerize`, so every solve is
an integer determinant problem (Cramer's rule), and only the surviving
vertices are converted to `Fraction`.  For two-action games the correlated
and coarse-correlated sets coincide, so this polytope serves as both.

`is_nash` and `deviation_gain` read the raw payoffs instead: the verifier
uses them as routes independent of the advantage computation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    CELLS,
    Game,
    JointDistribution,
    MarginalPair,
    Player,
    advantages,
    best_response_set,
    integerize,
    product_joint,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class DeviationConstraint:
    """One linear no-gain constraint: sum_a sigma(a) * coeffs[a] <= 0.

    coeffs[a] is the player's payoff gain at cell `a` from switching to the
    deviation action; it is zero on cells already playing that action.
    """

    player: Player
    deviation_action: int
    coeffs: tuple[Fraction, Fraction, Fraction, Fraction]


@dataclass(frozen=True)
class Box:
    """An axis-aligned product of intervals in marginal space [0,1]^2.

    Degenerate intervals give points and segments; p is the row player's
    probability of action A, q the column player's.
    """

    p_low: Fraction
    p_high: Fraction
    q_low: Fraction
    q_high: Fraction

    @property
    def is_point(self) -> bool:
        return self.p_low == self.p_high and self.q_low == self.q_high

    @property
    def is_segment(self) -> bool:
        return (self.p_low == self.p_high) != (self.q_low == self.q_high)

    def contains(self, m: MarginalPair) -> bool:
        return (
            self.p_low <= m.row_prob_a <= self.p_high
            and self.q_low <= m.col_prob_a <= self.q_high
        )

    def corners(self) -> tuple[MarginalPair, ...]:
        ps = {self.p_low, self.p_high}
        qs = {self.q_low, self.q_high}
        return tuple(
            MarginalPair(p, q) for p in sorted(ps) for q in sorted(qs)
        )


@dataclass(frozen=True)
class NashSet:
    """The complete Nash set as a normalized union of boxes."""

    components: tuple[Box, ...]

    def contains(self, m: MarginalPair) -> bool:
        return any(box.contains(m) for box in self.components)


@dataclass(frozen=True)
class CcePolytope:
    """Vertices, edges, and defining halfspaces of the CCE set inside the simplex.

    `halfspaces` holds 8 coefficient rows r with the meaning r . sigma <= 0:
    the four deviation constraints first, then the four nonnegativity rows.
    Vertices are deduplicated and sorted lexicographically by coordinates;
    edges are index pairs into the vertex list.
    """

    deviation_constraints: tuple[DeviationConstraint, ...]
    halfspaces: tuple[tuple[Fraction, Fraction, Fraction, Fraction], ...]
    vertices: tuple[JointDistribution, ...]
    edges: tuple[tuple[int, int], ...]
    dimension: int


def cce_constraints(game: Game) -> tuple[DeviationConstraint, ...]:
    """The four no-gain constraints, one per (player, deviation action)."""
    a, b, c, d = advantages(game)
    return (
        DeviationConstraint(Player.ROW, 0, (_ZERO, _ZERO, a, b)),
        DeviationConstraint(Player.ROW, 1, (-a, -b, _ZERO, _ZERO)),
        DeviationConstraint(Player.COL, 0, (_ZERO, c, _ZERO, d)),
        DeviationConstraint(Player.COL, 1, (-c, _ZERO, -d, _ZERO)),
    )


def cce_holds(adv, weights) -> bool:
    """The four CCE inequalities on an advantage quadruple and four cell weights.

    `adv` is `(a, b, c, d)` as `core.advantages` orders it and `weights` are
    nonnegative weights on the cells AA, AB, BA, BB that need not sum to one.
    The test is invariant under a positive scaling of each player's pair and
    of the weights, so it is exact on `Fraction`s and on integers alike.
    """
    a, b, c, d = adv
    w_aa, w_ab, w_ba, w_bb = weights
    return (
        a * w_ba + b * w_bb <= 0  # row player deviating to A
        and a * w_aa + b * w_ab >= 0  # row player deviating to B
        and c * w_ab + d * w_bb <= 0  # column player deviating to A
        and c * w_aa + d * w_ba >= 0  # column player deviating to B
    )


def joint_in_cce(game: Game, dist: JointDistribution) -> bool:
    """Exact membership test: `cce_holds` on the game's advantages and the joint."""
    return cce_holds(advantages(game), dist.prob)


# -sigma_i <= 0 for each cell i: the last four halfspace rows, and their integer form.
_NONNEGATIVITY = tuple(tuple(-_ONE if j == i else _ZERO for j in range(4)) for i in range(4))
_INT_NONNEGATIVITY = tuple(map(integerize, _NONNEGATIVITY))


def _halfspaces(constraints: tuple[DeviationConstraint, ...]) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(con.coeffs for con in constraints) + _NONNEGATIVITY


def halfspace_rows(game: Game) -> tuple[tuple[Fraction, ...], ...]:
    """All 8 inequality rows r with r . sigma <= 0 (deviations, then nonnegativity)."""
    return _halfspaces(cce_constraints(game))


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


def _vertex_numerators(rows: tuple[tuple[int, ...], ...]) -> set[tuple[int, ...]]:
    """Every feasible basic solution as coprime numerators n >= 0; the vertex is n / sum(n).

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


def cce_polytope(game: Game) -> CcePolytope:
    """Exact vertex enumeration of the CCE polytope in integer arithmetic.

    The halfspace rows are scaled to integers row by row, every 3-subset is
    solved against sum-to-one with integer determinants (at most C(8,3)
    solves), and feasibility and tightness are decided on the integer
    numerators; only the surviving vertices become `Fraction`s.
    """
    constraints = cce_constraints(game)
    halfspaces = _halfspaces(constraints)
    rows = tuple(integerize(con.coeffs) for con in constraints) + _INT_NONNEGATIVITY
    vertices = []
    for n in _vertex_numerators(rows):
        total = sum(n)
        vertices.append((tuple(Fraction(x, total) for x in n), n))
    vertices.sort()  # distinct coprime numerators are distinct points: sorted by point alone
    ordered = [point for point, _ in vertices]
    joints = tuple(JointDistribution(v) for v in ordered)

    tight_sets = [
        frozenset(
            i
            for i, row in enumerate(rows)
            if row[0] * n[0] + row[1] * n[1] + row[2] * n[2] + row[3] * n[3] == 0
        )
        for _, n in vertices
    ]
    edges = []
    for i, j in itertools.combinations(range(len(ordered)), 2):
        common = tight_sets[i] & tight_sets[j]
        # Bounded-polytope adjacency: no third vertex may be tight on all of `common`.
        if not any(
            common <= tight_sets[k] for k in range(len(ordered)) if k != i and k != j
        ):
            edges.append((i, j))

    if len(ordered) <= 1:
        dimension = 0
    else:
        # Vertex n / sum(n) minus the first vertex n0 / t0, times sum(n) * t0.
        n0 = vertices[0][1]
        t0 = sum(n0)
        diffs = [tuple(t0 * x - sum(n) * y for x, y in zip(n, n0)) for _, n in vertices[1:]]
        dimension = _matrix_rank(diffs)
    return CcePolytope(
        deviation_constraints=constraints,
        halfspaces=halfspaces,
        vertices=joints,
        edges=tuple(edges),
        dimension=dimension,
    )


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


def nash_set(game: Game) -> NashSet:
    """The complete Nash set, from the sign analysis of both advantage lines."""
    a, b, c, d = advantages(game)
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


def is_nash(game: Game, m: MarginalPair) -> bool:
    """True iff neither player gains by any pure deviation against the product joint."""
    row_support = {i for i, prob in ((0, m.row_prob_a), (1, 1 - m.row_prob_a)) if prob > 0}
    col_support = {i for i, prob in ((0, m.col_prob_a), (1, 1 - m.col_prob_a)) if prob > 0}
    return row_support <= best_response_set(
        game, Player.ROW, m.col_prob_a
    ) and col_support <= best_response_set(game, Player.COL, m.row_prob_a)


def deviation_gain(game: Game, player: Player, deviation: int, dist: JointDistribution) -> Fraction:
    """The raw no-regret sum: expected gain from always switching to `deviation`.

    The two cells where the player already plays `deviation` gain exactly 0
    and are skipped.
    """
    table = game.payoffs(player)
    prob = dist.prob
    total = _ZERO
    for cell, (r_act, c_act) in enumerate(CELLS):
        if player is Player.ROW:
            if r_act != deviation:
                total += prob[cell] * (table[2 * deviation + c_act] - table[cell])
        elif c_act != deviation:
            total += prob[cell] * (table[2 * r_act + deviation] - table[cell])
    return total


def nash_product_joints(ns: NashSet) -> tuple[JointDistribution, ...]:
    """Product joints of the corner profiles of every component (dedup, sorted)."""
    joints = {product_joint(m).prob for box in ns.components for m in box.corners()}
    return tuple(JointDistribution(p) for p in sorted(joints))
