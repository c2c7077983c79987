from __future__ import annotations

import pytest

from twobytwo.core import game_from_flat
from twobytwo.render.canvas import Circle, Heatmap

# Canonical test vectors, flat order: row player row-major, then column player.
PRISONERS_DILEMMA = (-1, -3, 0, -2, -1, 0, -3, -2)
MATCHING_PENNIES = (1, -1, -1, 1, -1, 1, 1, -1)
COORDINATION = (2, 0, 0, 1, 2, 0, 0, 1)
ANTICOORDINATION = (0, 1, 1, 0, 0, 1, 1, 0)
SAFETY = (1, -1, -1, 1, 1, -1, 0, 0)
HORSEPLAY = (1, -1, -1, 1, 0, 0, 0, 0)
ALL_ZERO = (0,) * 8
# Anticoordination instance with two off-diagonal pure equilibria, a mixed
# equilibrium at marginals (1/10, 1/10), and the 50/50 off-diagonal joint
# inside the CCE set.
TRAFFIC_LIGHTS = (-9, 1, 0, 0, -9, 0, 1, 0)

# (row action, column action) of each joint-action cell, in flat order.
CELLS = ((0, 0), (0, 1), (1, 0), (1, 1))


def count_drawn(scene, tag: str) -> int:
    """The number of drawn elements of `scene` with this tag: each cell of a
    `Heatmap` and each centre of a `Circle` counts one."""
    total = 0
    for prim in scene.prims:
        if getattr(prim, "tag", "") == tag:
            if isinstance(prim, Heatmap):
                total += len(prim.fills)
            elif isinstance(prim, Circle):
                total += len(prim.centers)
            else:
                total += 1
    return total


def tagged(scene, tag: str) -> list:
    """The primitives of `scene` with this tag, in insertion order."""
    return [p for p in scene.prims if getattr(p, "tag", "") == tag]


@pytest.fixture
def pd():
    return game_from_flat(PRISONERS_DILEMMA)


@pytest.fixture
def mp():
    return game_from_flat(MATCHING_PENNIES)


@pytest.fixture
def coordination():
    return game_from_flat(COORDINATION)


@pytest.fixture
def all_zero():
    return game_from_flat(ALL_ZERO)
