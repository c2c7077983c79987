import itertools
import random
from fractions import Fraction as F

from twobytwo.core import (
    JointDistribution,
    MarginalPair,
    Player,
    SYMMETRY_FLAGS,
    advantages,
    game_from_flat,
    game_to_flat,
    integerize,
    joint,
    permute,
    product_joint,
    transform_affine,
)
from twobytwo.equilibria import (
    CcePolytope,
    cce_polytope,
    halfspace_rows,
    is_nash,
    joint_in_cce,
    nash_product_joints,
    nash_set,
    _cycle_vertex_numerators,
)
from twobytwo.graphs import BRGraph, br_graph
from twobytwo import equilibria, verify
from twobytwo.verify import _matrix_rank

from conftest import CELLS, SAFETY, HORSEPLAY, TRAFFIC_LIGHTS
from reference import (
    deviation_gain,
    per_call_cce_polytope,
    reference_advantages,
    reference_halfspace_rows,
    reference_nash_set,
)


def boxes(ns):
    return {(b.p_low, b.p_high, b.q_low, b.q_high) for b in ns.components}


# --- constraints ----------------------------------------------------------------


def test_advantages_are_the_integerized_fraction_pairs():
    """Each player's integer pair is its `Fraction` pair times the lcm of that
    pair's denominators, on seeded, {-1, 0, 1}, 30-digit and all-zero-player
    games; the images of `permute` and `transform_affine` carry their own values."""
    rng = random.Random(43)
    games = [verify.random_game(rng) for _ in range(300)]
    games += [game_from_flat([rng.choice((-1, 0, 1)) for _ in range(8)]) for _ in range(200)]
    games += [
        game_from_flat([F(rng.randint(-(10**30), 10**30), rng.randint(1, 10**20)) for _ in range(8)])
        for _ in range(100)
    ]
    games += [game_from_flat([0] * 4 + list(g.col)) for g in games[:20]]
    games += [game_from_flat(list(g.row) + [0] * 4) for g in games[:20]]
    games.append(game_from_flat([0] * 8))
    for n, game in enumerate(games[::7]):
        games.append(permute(game, *SYMMETRY_FLAGS[n % 8]))
        scale = F(rng.randint(1, 10**12), 7)
        games.append(transform_affine(game, (Player.ROW, Player.COL)[n % 2], scale, F(1, 3), F(-5, 11)))
    for game in games:
        ref = reference_advantages(game)
        assert advantages(game) == integerize(ref[:2]) + integerize(ref[2:]), game
        assert all(type(x) is int for x in advantages(game)), game
    # Clearing by the pair's lcm is not gcd reduction: the column pair (5/6, -35/36)
    # clears to (30, -35), whose gcd is 5.
    game = game_from_flat(["1/2", "-1/3", "-2/5", "1/7", "1/3", "-1/2", "-3/4", "2/9"])
    assert advantages(game) == (189, -100, 30, -35)


def test_cce_constraints_matching_pennies_row_to_a(mp):
    row_to_a = halfspace_rows(mp)[0]  # the row player deviating to A
    assert row_to_a == (0, 0, 2, -2)


def test_cce_constraints_all_zero(all_zero):
    for row in halfspace_rows(all_zero)[:4]:
        assert row == (0, 0, 0, 0)


def test_cce_constraints_pd_row_to_b(pd):
    row_to_b = halfspace_rows(pd)[1]  # the row player deviating to B
    assert row_to_b == (1, 1, 0, 0)


def test_constraint_coeffs_vanish_on_own_action_cells():
    # The (player, deviation action) of each no-gain row, in row order.
    labels = ((Player.ROW, 0), (Player.ROW, 1), (Player.COL, 0), (Player.COL, 1))
    rng = random.Random(2)
    for _ in range(40):
        g = verify.random_game(rng)
        for (player, deviation), row in zip(labels, halfspace_rows(g)):
            for cell, (r, c) in enumerate(CELLS):
                own = r if player is Player.ROW else c
                if own == deviation:
                    assert row[cell] == 0


def test_halfspace_rows_are_the_integerized_fraction_rows():
    """Seeded, {-1, 0, 1}, 30-digit and all-zero-player games."""
    rng = random.Random(23)
    games = [verify.random_game(rng) for _ in range(200)]
    games += [game_from_flat([rng.choice((-1, 0, 1)) for _ in range(8)]) for _ in range(200)]
    games += [
        game_from_flat([F(rng.randint(-(10**30), 10**30), rng.randint(1, 10**30)) for _ in range(8)])
        for _ in range(100)
    ]
    games += [game_from_flat(flat) for flat in ([0] * 8, [0, 0, 0, 0, 2, 0, 0, 1], [2, 0, 0, 1, 0, 0, 0, 0])]
    for game in games:
        rows = halfspace_rows(game)
        assert rows == tuple(integerize(r) for r in reference_halfspace_rows(game)), game
        assert all(type(x) is int for row in rows for x in row)


# --- polytopes ------------------------------------------------------------------


def test_cce_polytope_matching_pennies(mp):
    poly = cce_polytope(mp)
    assert poly.dimension == 0
    assert len(poly.vertices) == 1
    assert poly.vertices[0].prob == (F(1, 4),) * 4
    assert poly.edges == ()


def test_cce_polytope_all_zero_full_simplex(all_zero):
    poly = cce_polytope(all_zero)
    assert poly.dimension == 3
    assert {v.prob for v in poly.vertices} == {
        (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
    }
    assert len(poly.edges) == 6


def test_cce_polytope_pd_single_point(pd):
    poly = cce_polytope(pd)
    assert poly.dimension == 0
    assert [v.prob for v in poly.vertices] == [(0, 0, 0, 1)]


def test_cce_polytope_coordination_contains_pure_equilibria(coordination):
    vertices = {v.prob for v in cce_polytope(coordination).vertices}
    assert (1, 0, 0, 0) in vertices  # both players play A
    assert (0, 0, 0, 1) in vertices  # both players play B


def test_vertices_canonically_sorted_and_deduplicated():
    rng = random.Random(3)
    for _ in range(30):
        poly = cce_polytope(verify.random_game(rng))
        probs = [v.prob for v in poly.vertices]
        assert probs == sorted(probs)
        assert len(set(probs)) == len(probs)


def test_vertex_tightness_and_edges():
    rng = random.Random(5)
    for _ in range(40):
        g = verify.random_game(rng)
        poly = cce_polytope(g)
        rows = halfspace_rows(g)
        tight_sets = []
        for vertex in poly.vertices:
            tight = [
                k for k, row in enumerate(rows)
                if sum(vertex.prob[j] * row[j] for j in range(4)) == 0
            ]
            tight_sets.append(set(tight))
            assert _matrix_rank([rows[k] for k in tight]) >= 3
        for i, j in poly.edges:
            assert len(tight_sets[i] & tight_sets[j]) >= 2


def _reference_solve_tight(rows):
    # Fraction Gaussian elimination of 3 tight rows plus sum-to-one; None if singular.
    mat = [list(r) + [F(0)] for r in rows]
    mat.append([F(1)] * 5)
    for col in range(4):
        pivot = next((r for r in range(col, 4) if mat[r][col] != 0), None)
        if pivot is None:
            return None
        mat[col], mat[pivot] = mat[pivot], mat[col]
        inv = 1 / mat[col][col]
        mat[col] = [x * inv for x in mat[col]]
        for r in range(4):
            if r != col and mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [x - factor * y for x, y in zip(mat[r], mat[col])]
    return tuple(mat[i][4] for i in range(4))


def reference_cce_polytope(game):
    """The Fraction enumeration that the integer solve replaced, kept as the reference."""
    rows = reference_halfspace_rows(game)

    def dot(v, row):
        return sum((v[j] * row[j] for j in range(4)), F(0))

    vertices = set()
    for subset in itertools.combinations(range(8), 3):
        point = _reference_solve_tight([rows[i] for i in subset])
        if point is None:
            continue
        if all(x >= 0 for x in point) and all(dot(point, row) <= 0 for row in rows[:4]):
            vertices.add(point)
    ordered = sorted(vertices)
    tight_sets = [frozenset(i for i, row in enumerate(rows) if dot(v, row) == 0) for v in ordered]
    edges = tuple(
        (i, j)
        for i, j in itertools.combinations(range(len(ordered)), 2)
        if not any(
            tight_sets[i] & tight_sets[j] <= tight_sets[k]
            for k in range(len(ordered))
            if k not in (i, j)
        )
    )
    if len(ordered) <= 1:
        dimension = 0
    else:
        dimension = _matrix_rank(
            [tuple(v[k] - ordered[0][k] for k in range(4)) for v in ordered[1:]]
        )
    return CcePolytope(
        vertices=tuple(JointDistribution(v) for v in ordered),
        edges=edges,
        dimension=dimension,
    )


def test_cce_polytope_matches_fraction_reference():
    rng = random.Random(11)
    big = 2**62 + 7
    base = [verify.random_game(rng) for _ in range(200)]
    base += [
        game_from_flat([0] * 8),  # all-zero game
        game_from_flat([0, 0, 0, 0, 2, 0, 0, 1]),  # all-zero row player
        game_from_flat([3, -1, 3, -1, 1, -2, 0, 5]),  # row player indifferent everywhere
        game_from_flat([2, 0, 0, 1, 4, 4, -1, -1]),  # column player indifferent everywhere
        game_from_flat([big * 3, -big, big, 2**70, 1, -(2**65), 7, 0]),  # payoffs beyond 2^62
        game_from_flat([F(1, big), F(-1, big + 2), 0, F(3, 2**63), F(5, big), 0, F(-1, 3), F(2, big)]),
        game_from_flat([F(big, big + 2), F(1, 3), F(-big, 7), 0, F(2**80, 3**50), 1, 0, F(-1, 2**64)]),
    ]
    games = list(base)
    for n, game in enumerate(base[::4] + base[200:]):
        # Copies run different integer arithmetic through the same enumeration.
        games.append(transform_affine(game, (Player.ROW, Player.COL)[n % 2], F(big, 3), F(1, big), -5))
        games.append(permute(game, *SYMMETRY_FLAGS[n % 8]))
    scaled_flat = [F(x) * F(2**70 + 1, 2**63 + 3) for x in game_to_flat(base[-1])]
    games.append(game_from_flat(scaled_flat))
    for game in games:
        assert cce_polytope(game) == reference_cce_polytope(game), game


def test_cycle_walk_matches_cramer_route():
    """The cell-cycle walk and the verifier's Cramer enumeration find the same
    coprime vertex numerators on the same integer rows."""
    rng = random.Random(17)
    # Every advantage quadruple (a, b, c, d) in {-2..2}^4: ties, zero rows, all-zero.
    games = [game_from_flat((a, b, 0, 0, c, 0, d, 0)) for a, b, c, d in itertools.product(range(-2, 3), repeat=4)]
    games += [verify.random_game(rng) for _ in range(200)]
    games += [game_from_flat([rng.choice((-1, 0, 1)) for _ in range(8)]) for _ in range(300)]
    games += [game_from_flat([rng.randint(-(2**80), 2**80) for _ in range(8)]) for _ in range(100)]
    games += [
        game_from_flat([F(rng.randint(-(10**30), 10**30), rng.randint(1, 10**20)) for _ in range(8)])
        for _ in range(100)
    ]
    for game in games:
        rows = halfspace_rows(game)
        assert _cycle_vertex_numerators(rows).keys() == verify.cramer_vertex_numerators(rows), game


def reference_matrix_rank(rows):
    """Gauss-Jordan rank over `Fraction`s, the elimination the fraction-free one replaced."""
    mat = [[F(x) for x in r] for r in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        mat[rank] = [x / mat[rank][col] for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                mat[r] = [x - mat[r][col] * y for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def test_matrix_rank_matches_fraction_reference():
    rng = random.Random(4)
    for _ in range(400):
        rows = [tuple(rng.choice((0, 0, 1, -1, rng.randint(-2**70, 2**70))) for _ in range(4))
                for _ in range(rng.randint(0, 8))]
        if rows and rng.random() < 0.5:  # a combination of the others: rank-deficient
            rows.append(tuple(sum(rng.randint(-3, 3) * r[k] for r in rows) for k in range(4)))
        dens = [rng.randint(1, 2**64) for _ in rows]  # scaling a row keeps the rank
        as_fractions = [tuple(F(x, den) for x in r) for r, den in zip(rows, dens)]
        expected = reference_matrix_rank(rows)
        assert _matrix_rank(rows) == expected == reference_matrix_rank(as_fractions)
        assert _matrix_rank(as_fractions) == expected


# --- nash sets -------------------------------------------------------------------


def test_nash_set_pd_single_point(pd):
    assert boxes(nash_set(pd)) == {(0, 0, 0, 0)}


def test_nash_set_coordination_three_components(coordination):
    third = F(1, 3)
    assert boxes(nash_set(coordination)) == {
        (0, 0, 0, 0), (third, third, third, third), (1, 1, 1, 1),
    }


def test_nash_set_all_zero_full_box(all_zero):
    assert boxes(nash_set(all_zero)) == {(0, 1, 0, 1)}


def test_nash_set_safety_segment_plus_point():
    ns = nash_set(game_from_flat(SAFETY))
    assert boxes(ns) == {(0, 0, 0, F(1, 2)), (1, 1, 1, 1)}
    shapes = sorted(("point" if b.is_point else "segment") for b in ns.components)
    assert shapes == ["point", "segment"]


def test_nash_set_horseplay_zigzag():
    ns = nash_set(game_from_flat(HORSEPLAY))
    half = F(1, 2)
    assert boxes(ns) == {(0, 0, 0, half), (0, 1, half, half), (1, 1, half, 1)}
    assert all(b.is_segment for b in ns.components)


def test_nash_components_never_nested():
    rng = random.Random(7)
    for _ in range(80):
        ns = nash_set(verify.random_game(rng))
        assert ns.components, "nash set must be nonempty"
        for a in ns.components:
            for b in ns.components:
                if a is b:
                    continue
                nested = (
                    a.p_low <= b.p_low and b.p_high <= a.p_high
                    and a.q_low <= b.q_low and b.q_high <= a.q_high
                )
                assert not nested


def reference_corners(box):
    """The corners as `Box.corners` built them before: each axis's ends as a
    set of `Fraction`s, sorted."""
    ps, qs = sorted({box.p_low, box.p_high}), sorted({box.q_low, box.q_high})
    return tuple(MarginalPair(p, q) for p in ps for q in qs)


def reference_product_joint(m):
    """The product joint in `Fraction` arithmetic, as `product_joint` built it before."""
    p, q = m.row_prob_a, m.col_prob_a
    return JointDistribution((p * q, p * (1 - q), (1 - p) * q, (1 - p) * (1 - q)))


def reference_nash_product_joints(ns):
    """Product joints of the component corners, each built twice as before:
    once by the `Fraction` product, then again from its probabilities."""
    joints = {reference_product_joint(m).prob for box in ns.components for m in reference_corners(box)}
    return tuple(JointDistribution(p) for p in sorted(joints))


def test_nash_set_matches_fraction_reference():
    """The rank algebra gives the same components, in the same order, as the
    `Fraction` algebra, and the same product joints."""
    rng = random.Random(29)
    # Every advantage quadruple (a, b, c, d) in {-2..2}^4: all 81 sign patterns.
    games = [game_from_flat((a, b, 0, 0, c, 0, d, 0)) for a, b, c, d in itertools.product(range(-2, 3), repeat=4)]
    games += [verify.random_game(rng) for _ in range(2000)]
    games += [game_from_flat([rng.choice((-1, 0, 1)) for _ in range(8)]) for _ in range(500)]
    games += [
        game_from_flat([F(rng.randint(-(10**30), 10**30), rng.randint(10**19, 10**20)) for _ in range(8)])
        for _ in range(200)
    ]
    for game in games:
        ns = nash_set(game)
        assert ns == reference_nash_set(game), game
        assert nash_product_joints(ns) == reference_nash_product_joints(ns), game
        for box in ns.components:
            corners = box.corners()
            assert corners == reference_corners(box), (game, box)
            for m in corners:
                assert product_joint(m).prob == reference_product_joint(m).prob, (game, m)


# --- sign tables ---------------------------------------------------------------------


def quadruple_games(bound):
    """One game for each advantage quadruple (a, b, c, d) in {-bound..bound}^4."""
    return [
        game_from_flat((a, b, 0, 0, c, 0, d, 0))
        for a, b, c, d in itertools.product(range(-bound, bound + 1), repeat=4)
    ]


def test_sign_tables_match_per_call_code():
    """Vertices, their order, edges and dimension equal the per-call code's,
    and the Nash components the `Fraction` model's, on all 81 sign patterns
    with equal magnitudes, |a*d| = |b*c| and the rest of {-3..3}^4, and on
    seeded, 2^80 and 30-digit games; neither table outgrows the 81 patterns."""
    rng = random.Random(37)
    games = quadruple_games(3)
    games += [verify.random_game(rng) for _ in range(1000)]
    games += [game_from_flat([rng.choice((-1, 0, 1)) for _ in range(8)]) for _ in range(300)]
    games += [game_from_flat([rng.randint(-(2**80), 2**80) for _ in range(8)]) for _ in range(100)]
    games += [
        game_from_flat([F(rng.randint(-(10**30), 10**30), rng.randint(1, 10**30)) for _ in range(8)])
        for _ in range(100)
    ]
    for game in games:
        assert cce_polytope(game) == per_call_cce_polytope(game), game
        assert nash_set(game) == reference_nash_set(game), game
    assert equilibria._cce_type.cache_info().currsize <= 81
    assert equilibria._nash_type.cache_info().currsize <= 81


def test_sign_tables_fill_from_their_own_unit_rows(monkeypatch):
    """Filling every entry reads neither `halfspace_rows` nor `advantages`,
    the bindings that negative controls patch; each entry's dimension is the
    rank of its unit vertices' differences."""

    def unreachable(game):
        raise AssertionError("a table entry read a patchable binding")

    monkeypatch.setattr(equilibria, "halfspace_rows", unreachable)
    monkeypatch.setattr(equilibria, "advantages", unreachable)
    equilibria._cce_type.cache_clear()
    equilibria._nash_type.cache_clear()
    for signs in itertools.product((-1, 0, 1), repeat=4):
        runs, edges, dimension, finished = equilibria._cce_type(signs)
        # On unit magnitudes every vertex is uniform on the cells of its run.
        vertices = [
            [F(x, length) for x in equilibria._run_numerators(start, length, (1,) * 4, (1,) * 4)]
            for start, length in runs
        ]
        diffs = [[x - y for x, y in zip(v, vertices[0])] for v in vertices[1:]]
        assert dimension == reference_matrix_rank(diffs), signs
        assert (finished is None) == any(length > 1 for _, length in runs)
        equilibria._nash_type(signs)
    assert equilibria._cce_type.cache_info().currsize == equilibria._nash_type.cache_info().currsize == 81


# --- membership tests ---------------------------------------------------------------


def test_is_nash_matching_pennies_center(mp):
    assert is_nash(mp, MarginalPair(F(1, 2), F(1, 2)))
    assert not is_nash(mp, MarginalPair(F(1, 2), F(1, 3)))


def test_is_nash_pd_mutual_cooperation_fails(pd):
    assert not is_nash(pd, MarginalPair(F(1), F(1)))
    assert is_nash(pd, MarginalPair(F(0), F(0)))


def test_is_nash_coordination_mixed(coordination):
    assert is_nash(coordination, MarginalPair(F(1, 3), F(1, 3)))


def test_traffic_lights_structure():
    tl = game_from_flat(TRAFFIC_LIGHTS)
    tenth = F(1, 10)
    assert boxes(nash_set(tl)) == {
        (0, 0, 1, 1), (tenth, tenth, tenth, tenth), (1, 1, 0, 0),
    }
    # the sensible correlated solution: 50/50 on the off-diagonal
    assert joint_in_cce(tl, joint((0, F(1, 2), F(1, 2), 0)))
    # and its mixed equilibrium joint
    assert joint_in_cce(tl, product_joint(MarginalPair(tenth, tenth)))


def test_joint_in_cce_matching_pennies_uniform(mp):
    assert joint_in_cce(mp, joint((F(1, 4),) * 4))
    assert not joint_in_cce(mp, joint((1, 0, 0, 0)))


def test_joint_in_cce_pd_point_mass_aa(pd):
    assert not joint_in_cce(pd, joint((1, 0, 0, 0)))


def test_joint_in_cce_agrees_with_deviation_gains():
    rng = random.Random(11)
    for _ in range(60):
        g = verify.random_game(rng)
        dist = verify.random_joint(rng)
        direct = all(
            deviation_gain(g, p, a, dist) <= 0 for p in Player for a in (0, 1)
        )
        assert joint_in_cce(g, dist) == direct


# --- cross-module invariants ----------------------------------------------------------


def test_ne_subset_of_cce():
    rng = random.Random(13)
    for _ in range(50):
        g = verify.random_game(rng)
        for dist in nash_product_joints(nash_set(g)):
            assert joint_in_cce(g, dist)


def test_equilibria_invariant_under_affine_transform():
    rng = random.Random(17)
    for _ in range(25):
        g = verify.random_game(rng)
        assert not verify.check_affine_invariance(g, rng)


def test_equilibria_equivariant_under_symmetries():
    rng = random.Random(19)
    for _ in range(12):
        g = verify.random_game(rng)
        assert not verify.check_permute_equivariance(g)


def test_cyclic_games_have_unique_interior_equilibrium():
    """Strict best-response 4-cycles: one mixed NE, zero-dimensional CCE set."""
    rng = random.Random(23)
    count = 0
    while count < 25:
        g = verify.random_game(rng)
        graph = br_graph(g)
        if 0 in graph:
            continue
        if graph not in (BRGraph(1, -1, -1, 1), BRGraph(-1, 1, 1, -1)):
            continue
        count += 1
        ns = nash_set(g)
        assert len(ns.components) == 1
        box = ns.components[0]
        assert box.is_point
        assert 0 < box.p_low < 1 and 0 < box.q_low < 1
        assert cce_polytope(g).dimension == 0
