#!/usr/bin/env python3
"""Count the shares of game classes and literal forms that the games are drawn with.

    PYTHONPATH=src python3 perfbench/game_mix.py [draws] [solved]

Classifies seeded draws of `twobytwo.verify.random_game` (the verify
generator) and of the benchmark's `game_values`, and counts the CCE vertices
of the first `solved` benchmark games, so that the shares quoted in
perfbench/README.md can be measured again.
"""

from __future__ import annotations

import random
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import game_values, literal  # noqa: E402

SEED = 20241017


def game_class(v) -> str:
    """Strict games by their number of pure equilibria, or a tied advantage."""
    adv = (v[0] - v[2], v[1] - v[3], v[4] - v[5], v[6] - v[7])
    if not all(adv):
        return "tied advantage"
    pure = sum(1 for i in (0, 1) for j in (0, 1)
               if v[2 * i + j] > v[2 * (1 - i) + j] and v[4 + 2 * i + j] > v[4 + 2 * i + (1 - j)])
    return {1: "generic, one pure NE", 2: "coordination shape, two pure NE",
            0: "matching-pennies shape, no pure NE"}[pure]


def literal_form(text: str) -> str:
    if "/" in text:
        return "beyond 2**62" if abs(int(text.split("/")[0])) > 1 << 62 else "n/d"
    if "." in text:
        return "decimal"
    return "beyond 2**62" if abs(int(text)) > 1 << 62 else "integer"


def shares(counter: Counter) -> str:
    total = sum(counter.values())
    return ", ".join(f"{key} {count / total:.1%}" for key, count in counter.most_common())


def main() -> int:
    draws = int(sys.argv[1]) if len(sys.argv) > 1 else 200_000
    solved = int(sys.argv[2]) if len(sys.argv) > 2 else 3_000
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    from twobytwo.core import game_from_flat, game_to_flat
    from twobytwo.equilibria import cce_polytope
    from twobytwo.verify import random_game

    rng = random.Random(SEED)
    verify_classes = Counter(game_class(game_to_flat(random_game(rng))) for _ in range(draws))
    rng = random.Random(SEED)
    classes, forms, vertices = Counter(), Counter(), Counter()
    for k in range(draws):
        values = game_values(rng)
        classes[game_class(values)] += 1
        forms.update(literal_form(literal(x)) for x in values)
        if k < solved:
            vertices[len(cce_polytope(game_from_flat(values)).vertices)] += 1
    print(f"verify generator, {draws} games: {shares(verify_classes)}")
    print(f"benchmark games, {draws} games: {shares(classes)}")
    print(f"benchmark literals, {8 * draws} payoffs: {shares(forms)}")
    print(f"benchmark games, first {solved}, by CCE vertex count: {shares(vertices)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
