#!/usr/bin/env bash
# The README's CLI examples, run as real processes through __main__.py, with
# pins on their output; a non-zero exit from any of them fails the script.
# Run from the repository root: bash tests/cli_examples.sh
# Scratch files go to $RUNNER_TEMP, or to a fresh temporary directory, removed
# on exit, when it is unset.
set -eu
if [ -z "${RUNNER_TEMP:-}" ]; then
  RUNNER_TEMP="$(mktemp -d)"
  trap 'rm -rf -- "$RUNNER_TEMP"' EXIT
fi
export PYTHONPATH=src
# The six census counts, the paper's taxonomy: 576 strict ordinal games, 144
# and 78 of them up to relabelling actions and players, and 15 classes of the
# 81 best-response graphs.
python -m twobytwo census > "$RUNNER_TEMP/census.txt"
test "$(cat "$RUNNER_TEMP/census.txt")" = "$(printf '%s\n' \
  'strict_ordinal_total 576' \
  'strict_ordinal_up_to_strategy 144' \
  'strict_ordinal_up_to_strategy_and_player 78' \
  'partial_ordinal_classes 726' \
  'br_graphs 81' \
  'br_classes 15')"
# Literals with `_` between digits, and a minus sign before one, on every
# supported Python.
python -m twobytwo analyze 1_000 -1_0 0 0 0 0 0 0 > "$RUNNER_TEMP/underscore.txt"
test "$(head -n 1 "$RUNNER_TEMP/underscore.txt")" = "game 1000 -10 0 0 0 0 0 0"
# One pin for each CCE vertex count: the prisoner's dilemma has 1 vertex
# (dimension 0), the next game 2 (one edge), and the one after 4,
# two of them on runs of 2 cells (a tetrahedron: dimension 3, 6 edges).
python -m twobytwo analyze -1 -3 0 -2 -1 0 -3 -2 > "$RUNNER_TEMP/pd.txt"
grep -qx 'cce_dimension 0' "$RUNNER_TEMP/pd.txt"
python -m twobytwo analyze -1 -1 0 0 -1 0 0 0 > "$RUNNER_TEMP/segment.txt"
grep -qx 'cce_dimension 1' "$RUNNER_TEMP/segment.txt"
test "$(grep '^cce_edge ' "$RUNNER_TEMP/segment.txt")" = "cce_edge 0 1"
# The best-response graph is the signs of the four advantages, written
# A (positive), B (negative) and - (zero), and its class follows from it.
grep -qx 'br_graph B B B B' "$RUNNER_TEMP/pd.txt"
grep -qx 'br_class 1 class-1' "$RUNNER_TEMP/pd.txt"
grep -qx 'br_graph B B B -' "$RUNNER_TEMP/segment.txt"
grep -qx 'br_class 4 class-4' "$RUNNER_TEMP/segment.txt"
python -m twobytwo analyze -1 1 0 0 0 0 0 0 > "$RUNNER_TEMP/tetra.txt"
test "$(grep -c '^cce_vertex ' "$RUNNER_TEMP/tetra.txt")" -eq 4
test "$(grep '^cce_vertex ' "$RUNNER_TEMP/tetra.txt" | grep -c '1/2')" -eq 2
grep -qx 'cce_dimension 3' "$RUNNER_TEMP/tetra.txt"
test "$(grep -c '^cce_edge ' "$RUNNER_TEMP/tetra.txt")" -eq 6
# CCE vertices on runs of 4 cells (coordination: 5 vertices) and on
# all-zero deviation rows (the all-zero game: the 4 pure cells).
python -m twobytwo analyze 2 0 0 1 2 0 0 1 > "$RUNNER_TEMP/coord.txt"
grep -qx 'br_graph A B A B' "$RUNNER_TEMP/coord.txt"
grep -qx 'br_class 6 coordination' "$RUNNER_TEMP/coord.txt"
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
grep -qx 'br_graph - - - -' "$RUNNER_TEMP/zero.txt"
grep -qx 'br_class 15 zero' "$RUNNER_TEMP/zero.txt"
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
grep -qx 'br_graph A B - -' "$RUNNER_TEMP/zigzag.txt"
grep -qx 'br_class 10 horseplay' "$RUNNER_TEMP/zigzag.txt"
test "$(grep '^nash_component ' "$RUNNER_TEMP/zigzag.txt")" = "$(printf 'nash_component 0 0 0 1/2\nnash_component 0 1 1/2 1/2\nnash_component 1 1 1/2 1')"
# Payoffs with distinct denominators: the column player's advantage pair
# (5/6, -35/36) clears to (30, -35) in the CCE rows and reduces to the
# embedding direction (6, -7), so clearing and gcd reduction are told apart.
python -m twobytwo analyze 1/2 -1/3 -2/5 1/7 1/3 -1/2 -3/4 2/9 > "$RUNNER_TEMP/cleared.txt"
grep -qx 'nash_component 7/13 7/13 100/289 100/289' "$RUNNER_TEMP/cleared.txt"
grep -qx 'cce_vertex 700/3757 1323/3757 600/3757 1134/3757' "$RUNNER_TEMP/cleared.txt"
grep -qx 'embedding_row 189 -100' "$RUNNER_TEMP/cleared.txt"
grep -qx 'embedding_col 6 -7' "$RUNNER_TEMP/cleared.txt"
# A safety game: the column player is indifferent against row action B.
python -m twobytwo analyze 1 -1 -1 1 1 -1 0 0 > "$RUNNER_TEMP/safety.txt"
grep -qx 'br_graph A B A -' "$RUNNER_TEMP/safety.txt"
grep -qx 'br_class 7 safety' "$RUNNER_TEMP/safety.txt"
# Matching pennies: a strict best-response 4-cycle.
python -m twobytwo analyze 1 -1 -1 1 -1 1 1 -1 > "$RUNNER_TEMP/mp.txt"
grep -qx 'br_graph A B B A' "$RUNNER_TEMP/mp.txt"
grep -qx 'br_class 8 cyclic' "$RUNNER_TEMP/mp.txt"
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
# Every other figure kind in the README's table, once each.
python -m twobytwo render --kind ordgraph 2 0 0 1 2 0 0 1 -o "$RUNNER_TEMP/ord.svg"
python -m twobytwo render --kind payoffs 2 0 0 1 2 0 0 1 -o "$RUNNER_TEMP/payoffs.tex"
python -m twobytwo render --kind joint .4 .3 .1 .2 -o "$RUNNER_TEMP/cells.svg"
python -m twobytwo render --kind rowcond .4 .3 .1 .2 -o "$RUNNER_TEMP/rowcond.tex"
python -m twobytwo render --kind colcond .4 .3 .1 .2 -o "$RUNNER_TEMP/colcond.svg"
python -m twobytwo render --kind marginal .4 .3 .1 .2 -o "$RUNNER_TEMP/marginal.tex"
python -m twobytwo render --kind jointmarginal .4 .3 .1 .2 -o "$RUNNER_TEMP/jointmarginal.svg"
printf '12.5 300\n200 45\n90 180\n' > "$RUNNER_TEMP/points.dat"
printf '0 1 2\n3 4 5\n' > "$RUNNER_TEMP/heat.dat"
python -m twobytwo render --kind embedding --points "$RUNNER_TEMP/points.dat" --matrix "$RUNNER_TEMP/heat.dat" -o "$RUNNER_TEMP/emb.svg"
python -m twobytwo render --kind embedding --points "$RUNNER_TEMP/points.dat" --matrix "$RUNNER_TEMP/heat.dat" -o "$RUNNER_TEMP/emb.tex"
# The same data files with CRLF line ends draw the same figures, byte for byte.
sed 's/$/\r/' "$RUNNER_TEMP/points.dat" > "$RUNNER_TEMP/points-crlf.dat"
sed 's/$/\r/' "$RUNNER_TEMP/heat.dat" > "$RUNNER_TEMP/heat-crlf.dat"
test "$(wc -c < "$RUNNER_TEMP/points-crlf.dat")" -eq "$(($(wc -c < "$RUNNER_TEMP/points.dat") + 3))"
python -m twobytwo render --kind embedding --points "$RUNNER_TEMP/points-crlf.dat" --matrix "$RUNNER_TEMP/heat-crlf.dat" -o "$RUNNER_TEMP/emb-crlf.svg"
python -m twobytwo render --kind embedding --points "$RUNNER_TEMP/points-crlf.dat" --matrix "$RUNNER_TEMP/heat-crlf.dat" -o "$RUNNER_TEMP/emb-crlf.tex"
cmp "$RUNNER_TEMP/emb.svg" "$RUNNER_TEMP/emb-crlf.svg"
cmp "$RUNNER_TEMP/emb.tex" "$RUNNER_TEMP/emb-crlf.tex"
# Four usage errors, each of which must exit with exactly 2: a non-finite
# point, a point file given to a kind other than embedding, a point written
# in non-ASCII (Arabic-Indic) digits, and a point file that is not UTF-8,
# whose path:line the message names.
printf 'nan 0\n' > "$RUNNER_TEMP/nan.dat"
code=0; python -m twobytwo render --kind embedding --points "$RUNNER_TEMP/nan.dat" -o "$RUNNER_TEMP/nan.svg" || code=$?; test "$code" -eq 2
code=0; python -m twobytwo render --kind joint .4 .3 .1 .2 --points "$RUNNER_TEMP/points.dat" -o "$RUNNER_TEMP/joint.svg" || code=$?; test "$code" -eq 2
printf '\331\241\331\242 \331\243\n' > "$RUNNER_TEMP/digits.dat"
code=0; python -m twobytwo render --kind embedding --points "$RUNNER_TEMP/digits.dat" -o "$RUNNER_TEMP/digits.svg" || code=$?; test "$code" -eq 2
printf '1 2\n3 \3774\n' > "$RUNNER_TEMP/latin1.dat"
code=0; python -m twobytwo render --kind embedding --points "$RUNNER_TEMP/latin1.dat" -o "$RUNNER_TEMP/latin1.svg" 2> "$RUNNER_TEMP/latin1.err" || code=$?; test "$code" -eq 2
grep -qF "$RUNNER_TEMP/latin1.dat:2: non-numeric value" "$RUNNER_TEMP/latin1.err"
