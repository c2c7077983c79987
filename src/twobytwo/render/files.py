"""Plain-text data files for embedding figures.

Point files are two whitespace-separated numeric columns, one point per line;
heatmap files are a whitespace-separated numeric matrix, one row per line.
Files are UTF-8 text with `\\n`, `\\r\\n` or `\\r` line ends.  Values are
plotting data, so floats are fine here, but they must be finite and ASCII, as
payoff literals are: `float` alone would also take any Unicode decimal digit.
"""

from __future__ import annotations

import math
import os


def _load(path, columns: int | None) -> tuple[tuple[float, ...], ...]:
    """The values of every nonblank line: `columns` to a line, or any one count if None.

    The file is read and checked whole.  Its lines are walked only when that
    fails: to name the first bad line as `path:line`, or, when every line is
    good, to report a matrix file as empty or ragged.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text, undecodable = data.decode("utf-8"), False
    except UnicodeDecodeError as exc:  # the text up to the line that holds the bad byte
        text, undecodable = data[:exc.start].decode("utf-8"), True
    # The line ends of text-mode reading; str.splitlines() would also split at \x0c, \x1c, ...
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    counts = set(map(len, map(str.split, lines))) - {0}
    if not undecodable and (counts <= {columns} if columns else len(counts) == 1):
        fields = text.split()
        if "".join(fields).isascii():  # `float` takes any Unicode digit
            try:
                values = list(map(float, fields))
            except ValueError:
                pass
            else:
                if all(map(math.isfinite, values)):
                    return tuple(zip(*[iter(values)] * (columns or counts.pop())))
    for lineno, line in enumerate(lines, start=1):
        fields = line.split()
        if undecodable and lineno == len(lines):
            raise ValueError(f"{path}:{lineno}: non-numeric value")
        if columns and fields and len(fields) != columns:
            raise ValueError(f"{path}:{lineno}: expected {columns} columns, got {len(fields)}")
        try:
            values = list(map(float, fields)) if "".join(fields).isascii() else None
        except ValueError:
            values = None
        if values is None:
            raise ValueError(f"{path}:{lineno}: non-numeric value")
        if not all(map(math.isfinite, values)):
            raise ValueError(f"{path}:{lineno}: non-finite value")
    raise ValueError(f"{path}: empty matrix" if not counts else f"{path}: rows have unequal lengths")


def load_points(path: str | os.PathLike) -> tuple[tuple[float, float], ...]:
    return _load(path, 2)


def save_points(path: str | os.PathLike, points) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for x, y in points:
            fh.write(f"{x!r} {y!r}\n")


def load_matrix(path: str | os.PathLike) -> tuple[tuple[float, ...], ...]:
    return _load(path, None)


def save_matrix(path: str | os.PathLike, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")
