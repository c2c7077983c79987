"""Exact equilibrium sets of 2x2 games.

Nash equilibria are found by a closed-form case analysis on the sign of each
player's payoff advantage line; the result is a finite union of axis-aligned
boxes in marginal space.  Every box endpoint on an axis is 0, 1 or one
player's indifference point, so the box algebra runs on endpoint ranks 0/1/2
per axis and builds `Fraction` endpoints only for the final boxes.  The
coarse-correlated-equilibrium set is a convex polytope in the joint-strategy
simplex, enumerated exactly by a walk around the cell cycle AA-AB-BB-BA: each
deviation row touches two cells adjacent on that cycle, so every vertex is
supported on a run of consecutive cells whose internal edges are tight, and
only 16 runs need to be tried.  The Nash boxes, the constraint rows and the
membership test all read the players' advantages from `core.advantages`,
which are integers computed once per game, so every sign is an integer's.
The constraint system has one form, the eight integer rows of
`halfspace_rows`, built on those integers as they are, so every candidate
vertex is a product of integer coefficients, and only the surviving
vertices are converted to `Fraction`.
The four CCE inequalities are also written, independently of those rows, in
`cce_holds`, on an advantage quadruple and unnormalized cell weights;
`joint_in_cce` applies it to a joint, and the verifier applies it to integer
numerators.  For two-action games the correlated and coarse-correlated sets
coincide, so this polytope serves as both.

`is_nash` and `deviation_gain` read the raw payoffs instead: the verifier
uses `is_nash` as a route independent of the advantage computation (it
compares expected payoffs on the raw tables cleared of denominators by
`core.integerize`, through `core.best_response_set`), and `deviation_gain`
is the reference for the verifier's integer deviation sums.
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
    product_joint,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


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
    """Vertices and edges of the CCE set inside the simplex, and its dimension.

    Vertices are deduplicated and sorted lexicographically by coordinates;
    edges are index pairs into the vertex list.  The defining rows are the
    integer rows of `halfspace_rows(game)`.
    """

    vertices: tuple[JointDistribution, ...]
    edges: tuple[tuple[int, int], ...]
    dimension: int


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


# -sigma_i <= 0 for each cell i: the last four halfspace rows.
_NONNEGATIVITY = ((-1, 0, 0, 0), (0, -1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1))


def halfspace_rows(game: Game) -> tuple[tuple[int, int, int, int], ...]:
    """All 8 integer inequality rows r with r . sigma <= 0.

    First the four no-gain rows, for (player, deviation action) (row, A),
    (row, B), (column, A), (column, B): each entry is the player's gain at
    that cell from deviating, times the lcm of the denominators of the
    player's advantage pair (the integers of `core.advantages`, used as they
    are).  Then the four nonnegativity rows.
    """
    a, b, c, d = advantages(game)
    return ((0, 0, a, b), (-a, -b, 0, 0), (0, c, 0, d), (-c, 0, -d, 0)) + _NONNEGATIVITY


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


# The cells in order around the cycle AA-AB-BB-BA, and for the edge from each
# cell to the next, the deviation row that touches both: (row, column of the
# first cell, column of the second).
_CYCLE = (0, 1, 3, 2)
_EDGE_ROWS = ((1, 0, 1), (2, 1, 3), (0, 3, 2), (3, 2, 0))


def _cycle_vertex_numerators(rows: tuple[tuple[int, ...], ...]) -> set[tuple[int, ...]]:
    """Every vertex as coprime numerators n >= 0; the vertex is n / sum(n).

    Only the four deviation rows are read.  A vertex's support is a run of
    consecutive cells on the cycle (a diagonal pair meets no row on both of
    its cells), and every edge inside the run must be tight, which needs
    coefficients of strictly opposite sign: u * x + v * y = 0 gives
    y / x = |u| / |v|.  The candidates are the 4 pure cells and the runs of
    2, 3 and 4 cells from each start, 16 in all; a run of 4 leaves its last
    edge untested.  Each is the products of the absolute coefficients along
    the run, kept if all four deviation rows hold and reduced by its gcd.
    """
    dev0, dev1, dev2, dev3 = rows[:4]
    edges = [(rows[r][i], rows[r][j]) for r, i, j in _EDGE_ROWS]
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
                n[_CYCLE[(start + offset) % 4]] = w
            candidates.append(n)
    found = set()
    for n0, n1, n2, n3 in candidates:
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

    The 16 runs of the cell-cycle walk are built and tested on the integer
    deviation rows of `halfspace_rows`, and tightness is decided on the
    integer numerators; only the surviving vertices become `Fraction`s.
    """
    rows = halfspace_rows(game)
    vertices = []
    for n in _cycle_vertex_numerators(rows):
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
    return CcePolytope(vertices=joints, edges=tuple(edges), dimension=dimension)


def _reaction_boxes(a: int, b: int) -> tuple[Fraction | None, list[tuple[int, int, int, int]]]:
    """The interior indifference point, and the boxes (own_low, own_high,
    opp_low, opp_high) of best-response-consistent profiles.

    `a` and `b` are the player's integer advantage pair from
    `core.advantages`, a positive multiple of the advantage of action A
    against each opponent pure action; the advantage at opponent mix y is
    proportional to y*a + (1-y)*b.  Box endpoints are ranks 0, 1, 2 on each
    axis, standing for 0, the indifference point y* = b / (b - a) on the
    opponent's axis, and 1; the own axis never takes rank 1.  y* is None unless `a` and `b`
    have strictly opposite signs, which puts it strictly inside (0, 1).
    Only the integer signs decide the boxes; y* is the one `Fraction` built.
    """
    if a == 0 and b == 0:
        return None, [(0, 2, 0, 2)]
    if a >= 0 and b >= 0:
        boxes = [(2, 2, 0, 2)]
    elif a <= 0 and b <= 0:
        boxes = [(0, 0, 0, 2)]
    elif a > 0:  # prefers B below y*, A above
        return Fraction(b, b - a), [(0, 0, 0, 1), (0, 2, 1, 1), (2, 2, 1, 2)]
    else:
        return Fraction(b, b - a), [(2, 2, 0, 1), (0, 2, 1, 1), (0, 0, 1, 2)]
    if a == 0:  # indifferent exactly when the opponent plays A surely
        boxes.append((0, 2, 2, 2))
    if b == 0:
        boxes.append((0, 2, 0, 0))
    return None, boxes


def _merge(b1: tuple, b2: tuple) -> tuple | None:
    """The union if it is itself a box (shared interval on one axis, touching on the other)."""
    p_low1, p_high1, q_low1, q_high1 = b1
    p_low2, p_high2, q_low2, q_high2 = b2
    if p_low1 == p_low2 and p_high1 == p_high2 and q_low1 <= q_high2 and q_low2 <= q_high1:
        return (p_low1, p_high1, min(q_low1, q_low2), max(q_high1, q_high2))
    if q_low1 == q_low2 and q_high1 == q_high2 and p_low1 <= p_high2 and p_low2 <= p_high1:
        return (min(p_low1, p_low2), max(p_high1, p_high2), q_low1, q_high1)
    return None


def _contains_box(outer: tuple, inner: tuple) -> bool:
    return (
        outer[0] <= inner[0]
        and inner[1] <= outer[1]
        and outer[2] <= inner[2]
        and inner[3] <= outer[3]
    )


def _normalize(boxes: list[tuple]) -> list[tuple]:
    """Drop nested and repeated boxes and merge pairs whose union is a box, until
    nothing changes; sorted by (p_low, p_high, q_low, q_high)."""
    work = list(boxes)
    changed = True
    while changed:
        changed = False
        # drop boxes nested inside another
        kept: list[tuple] = []
        for box in work:
            if any(other != box and _contains_box(other, box) for other in work) or box in kept:
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
    return sorted(work)


def nash_set(game: Game) -> NashSet:
    """The complete Nash set, from the sign analysis of both advantage lines.

    The box algebra runs on endpoint ranks (see `_reaction_boxes`); the row
    player's own axis is p and the column player's is q.  Rank order is
    value order, since each indifference point lies strictly between 0 and 1,
    so every intersection, nesting test, merge and the final sort come out as
    on the values.  `Fraction`s are built only for the final components.
    """
    a, b, c, d = advantages(game)
    q_star, row_boxes = _reaction_boxes(a, b)
    p_star, col_boxes = _reaction_boxes(c, d)
    pieces = []
    for p_low, p_high, q_low, q_high in row_boxes:
        for q_low2, q_high2, p_low2, p_high2 in col_boxes:
            lo_p, hi_p = max(p_low, p_low2), min(p_high, p_high2)
            lo_q, hi_q = max(q_low, q_low2), min(q_high, q_high2)
            if lo_p <= hi_p and lo_q <= hi_q:
                pieces.append((lo_p, hi_p, lo_q, hi_q))
    ps, qs = (_ZERO, p_star, _ONE), (_ZERO, q_star, _ONE)
    # A list, not a generator: `tuple` of a generator allocates 10 slots and
    # shrinks, and each freed result then fills CPython's free list of short
    # tuples, which raised the verifier's peak memory.
    components = [
        Box(ps[p_low], ps[p_high], qs[q_low], qs[q_high])
        for p_low, p_high, q_low, q_high in _normalize(pieces)
    ]
    return NashSet(components=tuple(components))


def is_nash(game: Game, m: MarginalPair) -> bool:
    """True iff neither player gains by any pure deviation against the product joint."""
    p, q = m.row_prob_a, m.col_prob_a
    # A probability's weight on A and on B, as numerators over its denominator.
    row_support = {i for i, w in ((0, p.numerator), (1, p.denominator - p.numerator)) if w > 0}
    col_support = {i for i, w in ((0, q.numerator), (1, q.denominator - q.numerator)) if w > 0}
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
    joints = {product_joint(m) for box in ns.components for m in box.corners()}
    return tuple(sorted(joints, key=lambda dist: dist.prob))
