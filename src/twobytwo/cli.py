"""Command-line surface: analyze games, render figures, run the census and verifier.

Exit codes: 0 success, 1 analysis/verification failure, 2 usage error.
Output is line-oriented `key value` text with rationals serialized exactly
(`num/den`, plain integers without a denominator), so reports are stable,
diff-friendly, and parse back through the input grammar.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .core import (
    NEGATIVE_LITERAL_START,
    Game,
    JointDistribution,
    Player,
    as_rational,
    format_rational,
    game_from_flat,
    game_to_flat,
    joint,
)
from .embedding import embed
from .equilibria import cce_polytope, nash_set
from .graphs import br_class, br_graph, census, format_ordinal_levels, ordinal_graph
from .render import (
    EmbeddingFigureData,
    FigureKind,
    FigureSpec,
    StyleOptions,
    UnsupportedFigureError,
    angle_pairs,
    load_matrix,
    load_points,
    render_figure,
)
from .render.figures import FORMATS, _BUILDERS

EXIT_OK = 0
EXIT_FAILURE = 1

#: The `br_graph` report line's letter for each edge's sign.
_PREFERENCE_LETTERS = {1: "A", -1: "B", 0: "-"}


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that takes every token `core.NEGATIVE_LITERAL_START`
    matches ("-1", "-.5", "-1/2", "-1e2", "-1_0") as a positional literal;
    `as_rational` alone decides whether it is valid."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = NEGATIVE_LITERAL_START


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every later `main` call.

    Parsing does not change it: each `parse_args` call fills a fresh namespace,
    and nothing else writes to the parser.
    """
    parser = _Parser(prog="twobytwo", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    analyze = commands.add_parser("analyze", help="full report: graphs, classes, equilibria, embedding")
    analyze.add_argument("payoffs", nargs="*", help="8 payoff literals, row player row-major first")

    render = commands.add_parser("render", help="emit one figure as TikZ or SVG")
    render.add_argument("payoffs", nargs="*", help="payoff or probability literals (arity depends on --kind)")
    render.add_argument("--kind", required=True, choices=sorted(k.value for k in FigureKind))
    render.add_argument("--format", choices=FORMATS, default=None)
    render.add_argument("-o", "--output", required=True, metavar="PATH")
    render.add_argument("--points", metavar="PATH", help="two-column point file (embedding only)")
    render.add_argument("--matrix", metavar="PATH", help="heatmap matrix file (embedding only)")
    render.add_argument("--no-axes-labels", action="store_true")
    render.add_argument("--no-tick-labels", action="store_true")
    render.add_argument("--no-best-response-names", action="store_true")

    commands.add_parser("census", help="print the exhaustive classification counts")

    verify = commands.add_parser("verify", help="run the randomized oracle suites")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--trials", type=int, default=100)
    verify.add_argument(
        "--timings", action="store_true",
        help="write 'timing <check> <calls> <total_ms>' to stderr for each check",
    )
    return parser


def _parse_rationals(parser: argparse.ArgumentParser, tokens, count: int, what: str):
    if len(tokens) != count:
        parser.error(f"expected {count} {what} values, got {len(tokens)}")
    values = []
    for token in tokens:
        try:
            values.append(as_rational(token))
        except ValueError:
            parser.error(f"invalid {what} literal '{token}'")
    return values


def _analysis_report(game: Game) -> str:
    lines = ["game " + " ".join(format_rational(v) for v in game_to_flat(game))]

    prefs = " ".join(_PREFERENCE_LETTERS[f] for f in br_graph(game))
    lines.append(f"br_graph {prefs}")
    cls = br_class(game)
    lines.append(f"br_class {cls.index} {cls.name}")

    lines.append("ordinal_row " + format_ordinal_levels(ordinal_graph(game, Player.ROW)))
    lines.append("ordinal_col " + format_ordinal_levels(ordinal_graph(game, Player.COL)))

    for box in nash_set(game).components:
        bounds = (box.p_low, box.p_high, box.q_low, box.q_high)
        lines.append("nash_component " + " ".join(format_rational(v) for v in bounds))

    poly = cce_polytope(game)
    lines.append(f"cce_dimension {poly.dimension}")
    for vertex in poly.vertices:
        lines.append("cce_vertex " + " ".join(format_rational(v) for v in vertex.prob))
    for i, j in poly.edges:
        lines.append(f"cce_edge {i} {j}")

    point = embed(game)
    for label, direction, angle in (
        ("row", point.row_direction, point.row_angle_degrees),
        ("col", point.col_direction, point.col_angle_degrees),
    ):
        if direction is None:
            lines.append(f"embedding_{label} trivial")
        else:
            lines.append(f"embedding_{label} {direction[0]} {direction[1]}")
            lines.append(f"embedding_{label}_angle {angle:.6g}")
    return "\n".join(lines) + "\n"


def _cmd_analyze(parser, args) -> int:
    values = _parse_rationals(parser, args.payoffs, 8, "payoff")
    sys.stdout.write(_analysis_report(game_from_flat(values)))
    return EXIT_OK


def _style_from_flags(args) -> StyleOptions:
    return StyleOptions(
        show_axes_labels=not args.no_axes_labels,
        show_tick_labels=not args.no_tick_labels,
        show_best_response_names=not args.no_best_response_names,
    )


def _render_payload(parser, args):
    """The payload of the type `--kind` draws, from its literals and files."""
    _, payload_type = _BUILDERS[FigureKind(args.kind)]
    if payload_type is not EmbeddingFigureData and (args.points or args.matrix):
        parser.error("--points/--matrix are only valid with --kind embedding")
    if payload_type is Game:
        return game_from_flat(_parse_rationals(parser, args.payoffs, 8, "payoff"))
    if payload_type is JointDistribution:
        values = _parse_rationals(parser, args.payoffs, 4, "probability")
        try:
            return joint(values)
        except ValueError as exc:
            parser.error(str(exc))
    # embedding: an optional game plus optional point/heatmap files
    pairs = ()
    if args.payoffs:
        game = game_from_flat(_parse_rationals(parser, args.payoffs, 8, "payoff"))
        pairs = angle_pairs([embed(game)])
    try:
        if args.points:
            pairs += load_points(args.points)
        heatmap = load_matrix(args.matrix) if args.matrix else None
        return EmbeddingFigureData(points=pairs, heatmap=heatmap)
    except (OSError, ValueError) as exc:
        parser.error(str(exc))


def _cmd_render(parser, args) -> int:
    payload = _render_payload(parser, args)
    fmt = args.format
    if fmt is None:
        fmt = "tikz" if args.output.endswith((".tex", ".tikz")) else "svg"
    try:
        text = render_figure(FigureSpec(FigureKind(args.kind), payload, _style_from_flags(args)), fmt)
    except UnsupportedFigureError as exc:
        parser.error(str(exc))
    try:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        sys.stderr.write(f"error: cannot write {args.output}: {exc}\n")
        return EXIT_FAILURE
    return EXIT_OK


def _cmd_census(parser, args) -> int:
    for key, value in census().as_pairs():
        sys.stdout.write(f"{key} {value}\n")
    return EXIT_OK


def _cmd_verify(parser, args) -> int:
    from . import verify as verify_mod

    if args.trials < 1:
        parser.error(f"--trials must be at least 1, got {args.trials}")
    report = verify_mod.run(seed=args.seed, trials=args.trials)
    if args.timings:
        for check, (calls, total_ns) in report.timings.items():
            sys.stderr.write(f"timing {check} {calls} {total_ns / 1e6:.3f}\n")
    if report.ok:
        sys.stdout.write(f"PASS {report.trials}/{report.trials}\n")
        return EXIT_OK
    for failure in report.failures:
        sys.stdout.write(f"FAIL {failure.flat()}\n")
        for message in failure.messages:
            sys.stdout.write(f"  {message}\n")
    sys.stdout.write(f"PASS {report.passed}/{report.trials}\n")
    return EXIT_FAILURE


_COMMANDS = {
    "analyze": _cmd_analyze,
    "render": _cmd_render,
    "census": _cmd_census,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    return _COMMANDS[args.command](parser, args)


if __name__ == "__main__":
    sys.exit(main())
