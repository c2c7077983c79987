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
`halfspace_rows`, built on those integers as they are.
The four CCE inequalities are also written, independently of those rows, in
`cce_holds`, on an advantage quadruple and unnormalized cell weights;
`joint_in_cce` applies it to a joint, and the verifier applies it to integer
numerators.  For two-action games the correlated and coarse-correlated sets
coincide, so this polytope serves as both.

One type per sign pattern.  Let s = `core.signs((a, b, c, d))`, the signs
of `advantages(game)`: the same 4-tuple that `graphs.br_graph` returns as
the game's best-response graph.  Both equilibrium sets take their
combinatorial type from s alone, so each is looked up in a table keyed by s
(`_nash_type`, `_cce_type`; at most 3**4 = 81 entries each), and a call does
only the magnitude arithmetic.  For the Nash set this is plain:
`_reaction_boxes` decides on signs, and only the indifference points
b / (b - a) and d / (d - c) read magnitudes.  For the CCE polytope:

- Candidates.  The deviation rows are (0, 0, a, b), (-a, -b, 0, 0),
  (0, c, 0, d) and (-c, 0, -d, 0).  The walk crosses a cycle edge only when
  the row touching it has strictly opposite signs on its two cells, which is
  a condition on s, and a candidate's coordinates are products of |a|, |b|,
  |c|, |d| along its run: positive on the run, zero off it.
- Row values.  At a candidate a deviation row is 0 if neither of its two
  cells is on the run, and a signed monomial, its coefficient there times a
  positive product, if one is.  If both are, the row is an edge of the run
  that the walk made tight, hence 0, or the last edge of a 4-run, which the
  walk leaves untested.  There the value is a product of magnitudes times
  (sgn x + sgn y), x and y being one player's advantage pair; a 4-run exists
  only when both pairs have strictly opposite signs, so it is 0 too.  A
  nonnegativity row is tight exactly off the run.  So feasibility and every
  tight set are functions of s.
- Vertices.  Distinct runs have distinct supports, except that the four
  4-runs all cover the four cells.  All four edges are tight at each of them,
  which fixes every ratio of neighbouring cells, so they are one point for
  every magnitude.  The vertices, with their supports and tight sets, are
  therefore a function of s up to their order.
- Edges and dimension.  The faces of a polytope are its sets of points tight
  on a set S of rows, and the vertices of that face are those whose tight
  sets contain S.  So the tight sets fix the face lattice, and with it the
  edges (two vertices are adjacent when no third is tight on all the rows
  they share) and the dimension (the length of the longest chain of faces
  from a vertex to the polytope).

`_cce_type` fills an entry by running the general code, the walk
`_cycle_vertex_numerators` and the tight-set adjacency test, on the
unit-magnitude rows of s, which `_rows` builds here, never through
`halfspace_rows` or `advantages`.  With k vertices the dimension is
min(k - 1, 3): on each of the 81 patterns the polytope is a simplex when
k <= 4 and is full-dimensional when k = 5.  On every pattern it is checked
against the rank of the Cramer route's vertex differences by
`verify.check_cce` (in `test_check_cce_edges_and_dimension_clean_on_quadruples`)
and against the rank of the unit vertices' differences by
`test_sign_tables_fill_from_their_own_unit_rows`.  A call then computes each vertex's coprime
numerators from the magnitudes, sorts them on integers and renumbers the
entry's edges into that order.  A pattern whose answer reads no magnitude
(pure vertices only, or Nash boxes with endpoints 0 and 1 only) keeps its
finished value in the table; values are immutable.

`is_nash` reads the raw payoffs instead: the verifier uses it as a route
independent of the advantage computation (it compares expected payoffs on
the raw tables cleared of denominators by `core.integerize`, through
`core.best_response_set`).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import NamedTuple

from .core import (
    Game,
    JointDistribution,
    MarginalPair,
    Player,
    _joint_from_weights,
    advantages,
    best_response_set,
    product_joint,
    signs,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _ends(low: Fraction, high: Fraction) -> tuple[Fraction, ...]:
    """The distinct values of an interval's two ends, in increasing order."""
    if low == high:
        return (low,)
    return (low, high) if low < high else (high, low)


class Box(NamedTuple):
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
        ps, qs = _ends(self.p_low, self.p_high), _ends(self.q_low, self.q_high)
        return tuple(MarginalPair(p, q) for p in ps for q in qs)


class NashSet(NamedTuple):
    """The complete Nash set as a normalized union of boxes."""

    components: tuple[Box, ...]

    def contains(self, m: MarginalPair) -> bool:
        return any(box.contains(m) for box in self.components)


class CcePolytope(NamedTuple):
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


def _rows(a: int, b: int, c: int, d: int) -> tuple[tuple[int, int, int, int], ...]:
    """The 8 rows of `halfspace_rows` on the advantage quadruple (a, b, c, d)."""
    return ((0, 0, a, b), (-a, -b, 0, 0), (0, c, 0, d), (-c, 0, -d, 0)) + _NONNEGATIVITY


def halfspace_rows(game: Game) -> tuple[tuple[int, int, int, int], ...]:
    """All 8 integer inequality rows r with r . sigma <= 0.

    First the four no-gain rows, for (player, deviation action) (row, A),
    (row, B), (column, A), (column, B): each entry is the player's gain at
    that cell from deviating, times the lcm of the denominators of the
    player's advantage pair (the integers of `core.advantages`, used as they
    are).  Then the four nonnegativity rows.
    """
    return _rows(*advantages(game))


# The cells in order around the cycle AA-AB-BB-BA, and for the edge from each
# cell to the next, the deviation row that touches both: (row, column of the
# first cell, column of the second).
_CYCLE = (0, 1, 3, 2)
_EDGE_ROWS = ((1, 0, 1), (2, 1, 3), (0, 3, 2), (3, 2, 0))


def _run_numerators(start: int, length: int, first, second) -> list[int]:
    """The walk's candidate on the run of `length` cells from cycle position
    `start`, as numerators in flat cell order.

    `first[k]` and `second[k]` are the absolute coefficients of the row on
    cycle edge k at its first and at its second cell.  Making an edge tight,
    u * x + v * y = 0 with u, v of strictly opposite signs, gives
    y / x = |u| / |v|, so each step scales the run so far by the second
    coefficient and appends its last weight times the first.
    """
    run = [1]
    for k in range(start, start + length - 1):
        k %= 4
        run = [w * second[k] for w in run] + [run[-1] * first[k]]
    n = [0, 0, 0, 0]
    for offset, w in enumerate(run):
        n[_CYCLE[(start + offset) % 4]] = w
    return n


def _cycle_vertex_numerators(rows: tuple) -> dict[tuple[int, ...], tuple[int, int]]:
    """Every vertex as coprime numerators n >= 0, mapped to the first run
    (start, length) that reached it; the vertex is n / sum(n).

    Only the four deviation rows are read.  A vertex's support is a run of
    consecutive cells on the cycle (a diagonal pair meets no row on both of
    its cells), and every edge inside the run must be tight, which needs
    coefficients of strictly opposite sign.  The candidates are the 4 pure
    cells and the runs of 2, 3 and 4 cells from each start, 16 in all; a run
    of 4 leaves its last edge untested.  Each is the products of the absolute
    coefficients along the run (`_run_numerators`), kept if all four
    deviation rows hold and reduced by its gcd.  Only the four 4-runs share
    a support, and the first of them starts at position 0.
    """
    dev0, dev1, dev2, dev3 = rows[:4]
    edges = [(rows[r][i], rows[r][j]) for r, i, j in _EDGE_ROWS]
    first, second = [abs(u) for u, _ in edges], [abs(v) for _, v in edges]
    found = {}
    for start in range(4):
        for length in range(1, 5):
            if length > 1:
                u, v = edges[(start + length - 2) % 4]
                if not (u < 0 < v or v < 0 < u):
                    break
            n0, n1, n2, n3 = _run_numerators(start, length, first, second)
            if (
                dev0[0] * n0 + dev0[1] * n1 + dev0[2] * n2 + dev0[3] * n3 > 0
                or dev1[0] * n0 + dev1[1] * n1 + dev1[2] * n2 + dev1[3] * n3 > 0
                or dev2[0] * n0 + dev2[1] * n1 + dev2[2] * n2 + dev2[3] * n3 > 0
                or dev3[0] * n0 + dev3[1] * n1 + dev3[2] * n2 + dev3[3] * n3 > 0
            ):
                continue
            g = math.gcd(n0, n1, n2, n3)
            found.setdefault((n0 // g, n1 // g, n2 // g, n3 // g), (start, length))
    return found


@functools.cache
def _cce_type(s: tuple[int, int, int, int]):
    """The combinatorial type of the CCE polytope for one sign pattern.

    Returns each vertex as a run (start, length), the edges as index pairs
    into that list, the dimension, and the finished `CcePolytope` when every
    vertex is a pure cell (no magnitude enters), else None.  The general
    walk and tight-set adjacency run on the unit-magnitude rows, where every
    vertex is uniform on its support; see the module docstring for why the
    type is the same for every magnitude, and for the dimension.
    """
    rows = _rows(*s)
    run_of = _cycle_vertex_numerators(rows)
    found = sorted(run_of)
    tight_sets = [
        frozenset(i for i, row in enumerate(rows) if sum(map(operator.mul, row, n)) == 0)
        for n in found
    ]
    edges = []
    for i, j in itertools.combinations(range(len(found)), 2):
        common = tight_sets[i] & tight_sets[j]
        # Bounded-polytope adjacency: no third vertex may be tight on all of `common`.
        if not any(common <= tight_sets[k] for k in range(len(found)) if k != i and k != j):
            edges.append((i, j))
    dimension = min(len(found) - 1, 3)
    runs = tuple([run_of[n] for n in found])
    finished = None
    if all(length == 1 for _, length in runs):
        # Every numerator sums to 1, so `found` is already in the order of the points.
        finished = CcePolytope(
            vertices=tuple(map(_joint_from_weights, found)), edges=tuple(edges), dimension=dimension
        )
    return runs, tuple(edges), dimension, finished


def _renumber(edges, order: list[int]) -> tuple[tuple[int, int], ...]:
    """Edges given as indices into a list, as sorted pairs of positions in
    `order`, the list's indices in their new order."""
    position = [0] * len(order)
    for new, old in enumerate(order):
        position[old] = new
    return tuple(sorted([
        (position[i], position[j]) if position[i] < position[j] else (position[j], position[i])
        for i, j in edges
    ]))


def cce_polytope(game: Game) -> CcePolytope:
    """Exact vertex enumeration of the CCE polytope in integer arithmetic.

    The combinatorial type comes from `_cce_type` on the signs of the
    advantages.  Each vertex's run is walked on the absolute advantages and
    reduced to coprime numerators n.  They are sorted on the integers
    n * (L // sum(n)), L the lcm of every sum(n): the vertex n / sum(n) is
    that over L, so the order is the order of the points.  Only then do the
    vertices become `Fraction`s, once each, and the type's edges are
    renumbered into that order.  The vertices are built from their
    numerators by `core._joint_from_weights`, without the validity check of
    `JointDistribution`; `verify.check_cce` checks that each sums to one and
    lies on the nonnegative side of every halfspace row.
    """
    adv = advantages(game)
    runs, edges, dimension, finished = _cce_type(signs(adv))
    if finished is not None:
        return finished
    a, b, c, d = map(abs, adv)
    # The absolute coefficients of each cycle edge's row at its first and
    # second cell (see `_EDGE_ROWS`).
    first, second = (a, c, b, d), (b, d, a, c)
    found = []
    for start, length in runs:
        n = _run_numerators(start, length, first, second)
        g = math.gcd(*n)
        found.append([x // g for x in n])
    scale = math.lcm(*map(sum, found))
    order = sorted(range(len(found)), key=lambda k: [x * (scale // sum(found[k])) for x in found[k]])
    return CcePolytope(
        vertices=tuple([_joint_from_weights(found[k]) for k in order]),
        edges=_renumber(edges, order),
        dimension=dimension,
    )


def _reaction_boxes(a: int, b: int) -> list[tuple[int, int, int, int]]:
    """The boxes (own_low, own_high, opp_low, opp_high) of
    best-response-consistent profiles.

    `a` and `b` are the player's integer advantage pair from
    `core.advantages`, a positive multiple of the advantage of action A
    against each opponent pure action; the advantage at opponent mix y is
    proportional to y*a + (1-y)*b.  Box endpoints are ranks 0, 1, 2 on each
    axis, standing for 0, the indifference point y* = b / (b - a) on the
    opponent's axis, and 1; the own axis never takes rank 1, and rank 1
    appears only when `a` and `b` have strictly opposite signs, which puts
    y* strictly inside (0, 1).  Only the signs decide the boxes.
    """
    if a == 0 and b == 0:
        return [(0, 2, 0, 2)]
    if a >= 0 and b >= 0:
        boxes = [(2, 2, 0, 2)]
    elif a <= 0 and b <= 0:
        boxes = [(0, 0, 0, 2)]
    elif a > 0:  # prefers B below y*, A above
        return [(0, 0, 0, 1), (0, 2, 1, 1), (2, 2, 1, 2)]
    else:
        return [(2, 2, 0, 1), (0, 2, 1, 1), (0, 0, 1, 2)]
    if a == 0:  # indifferent exactly when the opponent plays A surely
        boxes.append((0, 2, 2, 2))
    if b == 0:
        boxes.append((0, 2, 0, 0))
    return boxes


def _contains_box(outer: tuple, inner: tuple) -> bool:
    return (
        outer[0] <= inner[0]
        and inner[1] <= outer[1]
        and outer[2] <= inner[2]
        and inner[3] <= outer[3]
    )


def _normalize(boxes: list[tuple]) -> list[tuple]:
    """Drop nested boxes; sorted by (p_low, p_high, q_low, q_high).

    Two conditions hold on every one of the 81 sign patterns: each piece that
    occurs twice is also nested in a larger piece, so no repeat is left; and
    no two maximal pieces share the interval on one axis and touch on the
    other, so no two boxes left could merge into one.
    `test_sign_tables_match_per_call_code` compares the result with the
    `Fraction` model `reference_nash_set` (in `tests/reference.py`), whose
    `_normalize` relies on neither: it drops repeats and merges any two boxes
    whose union is a box.
    """
    return sorted(
        box for box in boxes if not any(other != box and _contains_box(other, box) for other in boxes)
    )


@functools.cache
def _nash_type(s: tuple[int, int, int, int]):
    """The Nash components for one sign pattern, as endpoint ranks.

    Returns the normalized rank boxes, whether any uses the p and the q
    indifference point (rank 1), and the finished `NashSet` when neither
    does, else None.  The rank-box algebra runs on the signs as advantages:
    `_reaction_boxes` decides on signs only.
    """
    sa, sb, sc, sd = s
    row_boxes, col_boxes = _reaction_boxes(sa, sb), _reaction_boxes(sc, sd)
    pieces = []
    for p_low, p_high, q_low, q_high in row_boxes:
        for q_low2, q_high2, p_low2, p_high2 in col_boxes:
            lo_p, hi_p = max(p_low, p_low2), min(p_high, p_high2)
            lo_q, hi_q = max(q_low, q_low2), min(q_high, q_high2)
            if lo_p <= hi_p and lo_q <= hi_q:
                pieces.append((lo_p, hi_p, lo_q, hi_q))
    ranks = tuple(_normalize(pieces))
    uses_p = any(1 in box[:2] for box in ranks)
    uses_q = any(1 in box[2:] for box in ranks)
    finished = None if uses_p or uses_q else _boxes(ranks, None, None)
    return ranks, uses_p, uses_q, finished


def _boxes(ranks, p_star: Fraction | None, q_star: Fraction | None) -> NashSet:
    ps, qs = (_ZERO, p_star, _ONE), (_ZERO, q_star, _ONE)
    # A list, not a generator: `tuple` of a generator allocates 10 slots and
    # shrinks, and each freed result then fills CPython's free list of short
    # tuples, which raised the verifier's peak memory.
    components = [
        Box(ps[p_low], ps[p_high], qs[q_low], qs[q_high]) for p_low, p_high, q_low, q_high in ranks
    ]
    return NashSet(components=tuple(components))


def nash_set(game: Game) -> NashSet:
    """The complete Nash set, from the sign analysis of both advantage lines.

    The box algebra runs on endpoint ranks (see `_reaction_boxes`) once per
    sign pattern, in `_nash_type`; the row player's own axis is p and the
    column player's is q.  Rank order is value order, since each
    indifference point lies strictly between 0 and 1, so every intersection,
    nesting test and the final sort come out as on the values.  A
    call builds only the indifference points its components use, and the
    `Box`es.
    """
    adv = advantages(game)
    ranks, uses_p, uses_q, finished = _nash_type(signs(adv))
    if finished is not None:
        return finished
    a, b, c, d = adv
    return _boxes(ranks, Fraction(d, d - c) if uses_p else None, Fraction(b, b - a) if uses_q else None)


def is_nash(game: Game, m: MarginalPair) -> bool:
    """True iff neither player gains by any pure deviation against the product joint."""
    p, q = m.row_prob_a, m.col_prob_a
    # Each action a player gives positive weight (numerator on A, the rest of
    # the denominator on B) must be a best response to the other's mix.
    best = best_response_set(game, Player.ROW, q)
    if (p.numerator > 0 and 0 not in best) or (p.denominator > p.numerator and 1 not in best):
        return False
    best = best_response_set(game, Player.COL, p)
    return not ((q.numerator > 0 and 0 not in best) or (q.denominator > q.numerator and 1 not in best))


def nash_product_joints(ns: NashSet) -> tuple[JointDistribution, ...]:
    """Product joints of the corner profiles of every component (dedup, sorted).

    The joints are deduplicated and sorted on their probabilities' numerators
    over the lcm of every denominator: integers in the order of the joints.
    """
    joints = [product_joint(m) for box in ns.components for m in box.corners()]
    scale = math.lcm(*[p.denominator for dist in joints for p in dist.prob])
    keyed = {tuple([p.numerator * (scale // p.denominator) for p in dist.prob]): dist for dist in joints}
    return tuple([keyed[key] for key in sorted(keyed)])
