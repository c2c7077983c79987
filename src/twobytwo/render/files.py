"""Plain-text data files for embedding figures.

Point files are two whitespace-separated numeric columns, one point per line;
heatmap files are a whitespace-separated numeric matrix, one row per line.
Values are plotting data, so floats are fine here, but they must be finite
and ASCII, as payoff literals are: `float` alone would also take any Unicode
decimal digit.
"""

from __future__ import annotations

import math
import os


def _finite(path, lineno: int, fields: list[str]) -> tuple[float, ...]:
    if not "".join(fields).isascii():  # joined: one call per line, cheaper than one per field
        raise ValueError(f"{path}:{lineno}: non-numeric value")
    try:
        values = tuple(map(float, fields))
    except ValueError as exc:
        raise ValueError(f"{path}:{lineno}: non-numeric value") from exc
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{path}:{lineno}: non-finite value")
    return values


def load_points(path: str | os.PathLike) -> tuple[tuple[float, float], ...]:
    points = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            fields = line.split()
            if not fields:
                continue
            if len(fields) != 2:
                raise ValueError(f"{path}:{lineno}: expected 2 columns, got {len(fields)}")
            points.append(_finite(path, lineno, fields))
    return tuple(points)


def save_points(path: str | os.PathLike, points) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for x, y in points:
            fh.write(f"{x!r} {y!r}\n")


def load_matrix(path: str | os.PathLike) -> tuple[tuple[float, ...], ...]:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            fields = line.split()
            if not fields:
                continue
            rows.append(_finite(path, lineno, fields))
    if not rows:
        raise ValueError(f"{path}: empty matrix")
    if any(len(row) != len(rows[0]) for row in rows):
        raise ValueError(f"{path}: rows have unequal lengths")
    return tuple(rows)


def save_matrix(path: str | os.PathLike, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")
