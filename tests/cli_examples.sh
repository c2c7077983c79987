#!/usr/bin/env bash
# The README's CLI examples, run as real processes through __main__.py, with
# pins on their output; a non-zero exit from any of them fails the script.
# Run from the repository root: bash tests/cli_examples.sh
# Scratch files go to $RUNNER_TEMP, a fresh temporary directory when unset.
set -eu
RUNNER_TEMP="${RUNNER_TEMP:-$(mktemp -d)}"
export PYTHONPATH=src
python -m twobytwo census
# One pin for each CCE vertex count: the prisoner's dilemma has 1 vertex
# (dimension 0), the next game 2 (one edge), and the one after 4,
# two of them on runs of 2 cells (a tetrahedron: dimension 3, 6 edges).
python -m twobytwo analyze -1 -3 0 -2 -1 0 -3 -2 > "$RUNNER_TEMP/pd.txt"
grep -qx 'cce_dimension 0' "$RUNNER_TEMP/pd.txt"
python -m twobytwo analyze -1 -1 0 0 -1 0 0 0 > "$RUNNER_TEMP/segment.txt"
grep -qx 'cce_dimension 1' "$RUNNER_TEMP/segment.txt"
test "$(grep '^cce_edge ' "$RUNNER_TEMP/segment.txt")" = "cce_edge 0 1"
python -m twobytwo analyze -1 1 0 0 0 0 0 0 > "$RUNNER_TEMP/tetra.txt"
test "$(grep -c '^cce_vertex ' "$RUNNER_TEMP/tetra.txt")" -eq 4
test "$(grep '^cce_vertex ' "$RUNNER_TEMP/tetra.txt" | grep -c '1/2')" -eq 2
grep -qx 'cce_dimension 3' "$RUNNER_TEMP/tetra.txt"
test "$(grep -c '^cce_edge ' "$RUNNER_TEMP/tetra.txt")" -eq 6
# CCE vertices on runs of 4 cells (coordination: 5 vertices) and on
# all-zero deviation rows (the all-zero game: the 4 pure cells).
python -m twobytwo analyze 2 0 0 1 2 0 0 1 > "$RUNNER_TEMP/coord.txt"
test "$(grep -c '^cce_vertex ' "$RUNNER_TEMP/coord.txt")" -eq 5
grep -qx 'cce_dimension 3' "$RUNNER_TEMP/coord.txt"
# Edges and dimension come from the table of the game's sign pattern:
# coordination's bipyramid lacks only edge 2 3, and a game whose CCE
# set is a triangle has dimension 2 and three edges.
test "$(grep '^cce_edge ' "$RUNNER_TEMP/coord.txt" | paste -sd, -)" = "cce_edge 0 1,cce_edge 0 2,cce_edge 0 3,cce_edge 0 4,cce_edge 1 2,cce_edge 1 3,cce_edge 1 4,cce_edge 2 4,cce_edge 3 4"
python -m twobytwo analyze -1 0 0 0 -1 0 0 0 > "$RUNNER_TEMP/triangle.txt"
grep -qx 'cce_dimension 2' "$RUNNER_TEMP/triangle.txt"
test "$(grep '^cce_edge ' "$RUNNER_TEMP/triangle.txt" | paste -sd, -)" = "cce_edge 0 1,cce_edge 0 2,cce_edge 1 2"
python -m twobytwo analyze 0 0 0 0 0 0 0 0 > "$RUNNER_TEMP/zero.txt"
test "$(grep -c '^cce_vertex ' "$RUNNER_TEMP/zero.txt")" -eq 4
grep -qx 'cce_dimension 3' "$RUNNER_TEMP/zero.txt"
# Nash components with an interior indifference point on each axis
# (coordination's mixed point; a zigzag of three segments against a
# player indifferent everywhere) and the full square of the all-zero game.
test "$(grep -c '^nash_component ' "$RUNNER_TEMP/coord.txt")" -eq 3
grep -qx 'nash_component 1/3 1/3 1/3 1/3' "$RUNNER_TEMP/coord.txt"
grep -qx 'nash_component 0 1 0 1' "$RUNNER_TEMP/zero.txt"
# An L of two segments: the corner point where they meet is a nested
# piece that is dropped, and the two segments stay apart.
python -m twobytwo analyze 0 1 0 0 0 0 1 0 > "$RUNNER_TEMP/ell.txt"
test "$(grep '^nash_component ' "$RUNNER_TEMP/ell.txt")" = "$(printf 'nash_component 0 1 1 1\nnash_component 1 1 0 1')"
python -m twobytwo analyze 1 -1 -1 1 0 0 0 0 > "$RUNNER_TEMP/zigzag.txt"
test "$(grep '^nash_component ' "$RUNNER_TEMP/zigzag.txt")" = "$(printf 'nash_component 0 0 0 1/2\nnash_component 0 1 1/2 1/2\nnash_component 1 1 1/2 1')"
# Payoffs with distinct denominators: the column player's advantage pair
# (5/6, -35/36) clears to (30, -35) in the CCE rows and reduces to the
# embedding direction (6, -7), so clearing and gcd reduction are told apart.
python -m twobytwo analyze 1/2 -1/3 -2/5 1/7 1/3 -1/2 -3/4 2/9 > "$RUNNER_TEMP/cleared.txt"
grep -qx 'nash_component 7/13 7/13 100/289 100/289' "$RUNNER_TEMP/cleared.txt"
grep -qx 'cce_vertex 700/3757 1323/3757 600/3757 1134/3757' "$RUNNER_TEMP/cleared.txt"
grep -qx 'embedding_row 189 -100' "$RUNNER_TEMP/cleared.txt"
grep -qx 'embedding_col 6 -7' "$RUNNER_TEMP/cleared.txt"
test "$(python -m twobytwo verify --seed 0 --trials 100)" = "PASS 100/100"
test "$(python -m twobytwo verify --seed 7 --trials 100)" = "PASS 100/100"
test "$(python -m twobytwo verify --seed 42 --trials 100)" = "PASS 100/100"
# 300 more games through the grid oracle, and one timing line per check,
# named and in the order the checks run.
python -m twobytwo verify --seed 11 --trials 300 --timings 2> "$RUNNER_TEMP/timings.txt"
test "$(grep -c '^timing ' "$RUNNER_TEMP/timings.txt")" -eq 6
test "$(grep '^timing ' "$RUNNER_TEMP/timings.txt" | cut -d' ' -f2 | paste -sd' ' -)" = "check_ne_grid check_ne_samples check_cce check_affine_invariance check_permute_equivariance check_embedding_consistency"
python -m twobytwo render --kind polytope --format svg 2 0 0 1 2 0 0 1 -o "$RUNNER_TEMP/fig.svg"
python -m twobytwo render --kind brgraph --format tikz 1 -1 -1 1 -1 1 1 -1 -o "$RUNNER_TEMP/mp.tex"
printf '12.5 300\n200 45\n90 180\n' > "$RUNNER_TEMP/points.dat"
printf '0 1 2\n3 4 5\n' > "$RUNNER_TEMP/heat.dat"
python -m twobytwo render --kind embedding --points "$RUNNER_TEMP/points.dat" --matrix "$RUNNER_TEMP/heat.dat" -o "$RUNNER_TEMP/emb.svg"
python -m twobytwo render --kind embedding --points "$RUNNER_TEMP/points.dat" --matrix "$RUNNER_TEMP/heat.dat" -o "$RUNNER_TEMP/emb.tex"
# Three usage errors, each of which must exit with exactly 2: a non-finite
# point, a point file given to a kind other than embedding, and a point
# written in non-ASCII (Arabic-Indic) digits.
printf 'nan 0\n' > "$RUNNER_TEMP/nan.dat"
code=0; python -m twobytwo render --kind embedding --points "$RUNNER_TEMP/nan.dat" -o "$RUNNER_TEMP/nan.svg" || code=$?; test "$code" -eq 2
code=0; python -m twobytwo render --kind joint .4 .3 .1 .2 --points "$RUNNER_TEMP/points.dat" -o "$RUNNER_TEMP/joint.svg" || code=$?; test "$code" -eq 2
printf '\331\241\331\242 \331\243\n' > "$RUNNER_TEMP/digits.dat"
code=0; python -m twobytwo render --kind embedding --points "$RUNNER_TEMP/digits.dat" -o "$RUNNER_TEMP/digits.svg" || code=$?; test "$code" -eq 2
