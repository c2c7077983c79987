"""The benchmark's three workloads: seeded CLI argument lists and output checks.

Every operation is one `twobytwo` CLI command.  Operation `i` of a workload is
a pure function of the workload seed and `i`, so a seed always gives the same
inputs and the recorded digests of the default seed stay comparable.  The
checks here are independent of the library: they re-derive what they need
from the raw payoffs with `fractions.Fraction`, and never import `twobytwo`.
"""

from __future__ import annotations

import random
import re
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

GAME_KINDS = ("ordgraph", "brgraph", "payoffs", "polytope")
JOINT_KINDS = ("joint", "rowcond", "colcond", "marginal", "jointmarginal")
STYLE_FLAGS = ("--no-axes-labels", "--no-tick-labels", "--no-best-response-names")
# Point counts and heatmap shapes of the data files each run prepares.  The
# values are seeded; the sizes are fixed so that the cost of embedding ops,
# which set the tail latency, does not change with the seed.
DATA_SIZES = ((200, (12, 16)), (300, (20, 24)), (450, (28, 32)), (600, (36, 40)))

_NON_FINITE = re.compile(r"(?<![A-Za-z])(nan|inf)(?![A-Za-z])", re.IGNORECASE)
_BIG = 1 << 62


def _rng(seed: int, workload: str, i: int) -> random.Random:
    # String seeds hash with SHA-512, so they do not depend on PYTHONHASHSEED.
    return random.Random(f"{workload}:{seed}:{i}")


# --- game and joint generators ------------------------------------------------------


def _from_advantages(rng: random.Random, a: int, b: int, c: int, d: int) -> list[int]:
    """Integer payoffs whose row advantages are (a, b) and column advantages (c, d)."""
    r2, r3, c1, c3 = (rng.randint(-9, 9) for _ in range(4))
    return [r2 + a, r3 + b, r2, r3, c1 + c, c1, c3 + d, c3]


def verify_like_game(rng: random.Random) -> list[Fraction]:
    """Flat payoffs drawn as `twobytwo.verify.random_game` draws them, call for call.

    Over 200,000 draws (see perfbench/README.md) these are 69.9% generic
    strict games with one pure equilibrium, 23.4% strict games with two pure
    equilibria or none (coordination, anti-coordination, matching pennies)
    and 6.7% games with a tied advantage.
    """
    return [Fraction(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(8)]


def _shape_game(rng: random.Random) -> list[int]:
    """A degenerate shape the verify generator practically never draws."""
    kind = rng.randrange(3)
    if kind == 0:  # an all-zero player: Nash continua
        v = [rng.randint(-9, 9) for _ in range(8)]
        zero = rng.choice((0, 4))
        v[zero:zero + 4] = [0, 0, 0, 0]
        return v
    if kind == 1:  # a player indifferent everywhere, with nonzero payoffs
        adv = [rng.randint(-9, 9) for _ in range(4)]
        k = rng.choice((0, 2))
        adv[k:k + 2] = [0, 0]
        return _from_advantages(rng, *adv)
    return [0] * 8  # both players all-zero: the whole simplex, a 3-D polytope


# Shares of games that leave the verify generator's distribution, each so that
# a run meets the case dozens of times: degenerate shapes it draws with
# probability below 1e-5, and a player scaled beyond 2**62, which it never draws.
SHAPE_SHARE = 0.03
BIG_SHARE = 0.03


def game_values(rng: random.Random) -> list[Fraction]:
    """A seeded game: the verify generator's draw, with two small coverage shares.

    `SHAPE_SHARE` of the games are degenerate shapes (an all-zero player, a
    player indifferent everywhere, the all-zero game); in `BIG_SHARE` one
    player's payoffs are scaled by a positive constant beyond 2**62, which
    keeps every equilibrium and gives numerators beyond 2**62.
    """
    if rng.random() < SHAPE_SHARE:
        values = [Fraction(v) for v in _shape_game(rng)]
    else:
        values = verify_like_game(rng)
    if rng.random() < BIG_SHARE:
        scale = Fraction(_BIG + rng.randrange(1, 1 << 20, 2), rng.choice((1, 3)))
        start = rng.choice((0, 4))
        values[start:start + 4] = [v * scale for v in values[start:start + 4]]
    return values


def literal(value: Fraction) -> str:
    """The value as a CLI literal: an integer, an exact decimal if it has one, else `n/d`.

    Decimals between -1 and 1 drop the leading zero, as in `.4` and `-.25`.
    """
    den = value.denominator
    if den == 1:
        return str(value.numerator)
    places = next((k for k in range(1, 4) if (10**k) % den == 0), None)
    if places is None:
        return f"{value.numerator}/{den}"
    digits = str(abs(value.numerator) * (10**places // den)).rjust(places + 1, "0")
    whole, frac = digits[:-places], digits[-places:]
    return ("-" if value < 0 else "") + f"{whole.lstrip('0')}.{frac}"


def joint_literals(rng: random.Random) -> list[str]:
    """A joint distribution drawn as `twobytwo.verify.random_joint` draws it."""
    weights = [rng.randint(0, 20) for _ in range(4)]
    if not any(weights):
        weights[rng.randrange(4)] = 1
    total = sum(weights)
    return [literal(Fraction(w, total)) for w in weights]


# --- independent output checks -------------------------------------------------------


def _deviation_gains(v, dist) -> list[Fraction]:
    """The four no-regret sums of the raw payoffs under joint `dist` (AA, AB, BA, BB)."""
    gains = []
    for dev in (0, 1):  # row player always switches to `dev`
        gains.append(sum(dist[2 * i + j] * (v[2 * dev + j] - v[2 * i + j]) for i in (0, 1) for j in (0, 1)))
    for dev in (0, 1):  # column player always switches to `dev`
        gains.append(sum(dist[2 * i + j] * (v[4 + 2 * i + dev] - v[4 + 2 * i + j]) for i in (0, 1) for j in (0, 1)))
    return gains


def check_analyze(values: list[Fraction], report: str) -> str | None:
    """Validate an `analyze` report against the payoffs it was asked about."""
    fields: dict[str, list[list[str]]] = {}
    for line in report.splitlines():
        key, *rest = line.split()
        fields.setdefault(key, []).append(rest)
    required = ("game", "br_graph", "br_class", "ordinal_row", "ordinal_col",
                "nash_component", "cce_dimension", "cce_vertex", "embedding_row", "embedding_col")
    missing = [key for key in required if key not in fields]
    if missing:
        return f"report lacks {missing}"
    if [Fraction(t) for t in fields["game"][0]] != values:
        return "game line does not echo the input payoffs"

    v = values
    adv = (v[0] - v[2], v[1] - v[3], v[4] - v[5], v[6] - v[7])
    expected_br = ["-" if x == 0 else ("A" if x > 0 else "B") for x in adv]
    if fields["br_graph"][0] != expected_br:
        return f"br_graph {fields['br_graph'][0]} != {expected_br}"

    for bounds in fields["nash_component"]:
        p_lo, p_hi, q_lo, q_hi = (Fraction(t) for t in bounds)
        if not (0 <= p_lo <= p_hi <= 1 and 0 <= q_lo <= q_hi <= 1):
            return f"nash_component {bounds} is not a box in the unit square"
        for p in (p_lo, p_hi):
            for q in (q_lo, q_hi):
                dist = (p * q, p * (1 - q), (1 - p) * q, (1 - p) * (1 - q))
                if any(g > 0 for g in _deviation_gains(v, dist)):
                    return f"nash_component corner ({p}, {q}) is not an equilibrium"

    vertices = [tuple(Fraction(t) for t in vertex) for vertex in fields["cce_vertex"]]
    if len(set(vertices)) != len(vertices):
        return "repeated cce_vertex"
    for vertex in vertices:
        if len(vertex) != 4 or min(vertex) < 0 or sum(vertex) != 1:
            return f"cce_vertex {vertex} is not a distribution"
        if any(g > 0 for g in _deviation_gains(v, vertex)):
            return f"cce_vertex {vertex} violates a deviation constraint"
    dimension = int(fields["cce_dimension"][0][0])
    if not 0 <= dimension <= 3 or (dimension == 0) != (len(vertices) == 1):
        return f"cce_dimension {dimension} with {len(vertices)} vertices"
    for edge in fields.get("cce_edge", []):
        if not all(0 <= int(k) < len(vertices) for k in edge):
            return f"cce_edge {edge} names a missing vertex"
    return None


def check_figure(path: Path, fmt: str) -> tuple[str | None, bytes]:
    data = path.read_bytes()
    text = data.decode("utf-8")
    if fmt == "svg":
        try:
            root = ET.fromstring(data)
        except ET.ParseError as exc:
            return f"SVG does not parse: {exc}", data
        if not root.tag.endswith("svg"):
            return f"SVG root is <{root.tag}>", data
        if _NON_FINITE.search(text):
            return "SVG contains nan or inf", data
    elif not (text.startswith("\\begin{tikzpicture}") and text.rstrip().endswith("\\end{tikzpicture}")):
        return "TikZ does not open and close tikzpicture", data
    return None, data


# --- workloads -----------------------------------------------------------------------


class AnalyzeMix:
    """`analyze` on seeded, distinct games; the polytope layer dominates."""

    name = "analyze-mix"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def op(self, i: int):
        rng = _rng(self.seed, self.name, i)
        values = game_values(rng)
        argv = ["analyze", *map(literal, values)]

        def check(stdout: str) -> tuple[str | None, bytes]:
            try:
                problem = check_analyze(values, stdout)
            except (ValueError, IndexError, ZeroDivisionError) as exc:
                problem = f"malformed report: {exc!r}"
            return problem, stdout.encode("utf-8")

        return argv, check


class VerifySuite:
    """`verify --trials 1` over consecutive seeds: one verifier trial per op."""

    name = "verify-suite"

    def __init__(self, seed: int, workdir: Path):
        self.base = seed * 1_000_000

    def op(self, i: int):
        argv = ["verify", "--seed", str(self.base + i), "--trials", "1"]

        def check(stdout: str) -> tuple[str | None, bytes]:
            return (None if stdout == "PASS 1/1\n" else f"verify printed {stdout!r}"), stdout.encode()

        return argv, check


class Figures:
    """`render` of all 10 kinds in both formats, plus embedding files with heatmaps."""

    name = "figures"
    kinds = GAME_KINDS + JOINT_KINDS + ("embedding",)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        rng = _rng(seed, self.name, -1000)
        self.points = []
        self.matrices = []
        for k, (count, (rows, cols)) in enumerate(DATA_SIZES):
            path = workdir / f"points{k}.dat"
            path.write_text("".join(
                f"{rng.uniform(0, 360):.3f} {rng.uniform(0, 360):.3f}\n" for _ in range(count)
            ))
            self.points.append(path)
            path = workdir / f"heat{k}.dat"
            path.write_text("".join(
                " ".join(f"{rng.uniform(-5, 5):.4f}" for _ in range(cols)) + "\n" for _ in range(rows)
            ))
            self.matrices.append(path)

    def op(self, i: int):
        rng = _rng(self.seed, self.name, i)
        kind = rng.choice(self.kinds)
        fmt = rng.choice(("svg", "tikz"))
        out = self.workdir / ("figure.svg" if fmt == "svg" else "figure.tex")
        out.unlink(missing_ok=True)  # so a render that writes nothing cannot pass on a stale file
        argv = ["render", "--kind", kind]
        if rng.random() < 0.5:
            argv += ["--format", fmt]
        argv += [flag for flag in STYLE_FLAGS if rng.random() < 0.15]
        if kind in JOINT_KINDS:
            argv += joint_literals(rng)
        elif kind in GAME_KINDS or rng.random() < 0.5:
            argv += [literal(x) for x in game_values(rng)]
        if kind == "embedding":
            k = rng.randrange(len(DATA_SIZES))
            argv += ["--points", str(self.points[k]), "--matrix", str(self.matrices[k])]
        argv += ["-o", str(out)]

        def check(stdout: str) -> tuple[str | None, bytes]:
            if stdout:
                return f"render printed {stdout!r}", b""
            try:
                return check_figure(out, fmt)
            except (OSError, ValueError) as exc:
                return f"unreadable figure: {exc!r}", b""

        return argv, check


WORKLOADS = {w.name: w for w in (AnalyzeMix, VerifySuite, Figures)}
