import os
import random
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import pytest

from twobytwo import verify
from twobytwo.cli import _analysis_report, main
from twobytwo.core import MAX_LITERAL_DIGITS, as_rational, format_rational, game_from_flat, joint
from twobytwo.embedding import embed
from twobytwo.equilibria import NashSet
from twobytwo.render import (
    EmbeddingFigureData,
    FigureKind,
    FigureSpec,
    angle_pairs,
    render_embedding,
    render_figure,
)


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- analyze -------------------------------------------------------------------


def test_analyze_prisoners_dilemma(capsys):
    code, out, _ = run_cli(capsys, "analyze", "-1", "-3", "0", "-2", "-1", "0", "-3", "-2")
    assert code == 0
    assert "game -1 -3 0 -2 -1 0 -3 -2" in out
    assert "nash_component 0 0 0 0" in out
    assert out.count("nash_component") == 1
    assert "cce_vertex 0 0 0 1" in out
    assert "cce_dimension 0" in out


def test_analyze_all_zero(capsys):
    code, out, _ = run_cli(capsys, "analyze", *(["0"] * 8))
    assert code == 0
    assert "nash_component 0 1 0 1" in out
    assert out.count("cce_vertex") == 4
    assert "cce_dimension 3" in out
    assert "embedding_row trivial" in out
    assert "embedding_col trivial" in out


def test_analyze_coordination_three_components(capsys):
    code, out, _ = run_cli(capsys, "analyze", "2", "0", "0", "1", "2", "0", "0", "1")
    assert code == 0
    assert out.count("nash_component") == 3
    assert "br_class 6 coordination" in out
    assert "embedding_row 2 -1" in out


def test_analyze_accepts_fraction_and_decimal_literals(capsys):
    code, out, _ = run_cli(capsys, "analyze", "-1/2", "0.25", "-.5", "1", "0", "0", "0", "0")
    assert code == 0
    assert out.startswith("game -1/2 1/4 -1/2 1 0 0 0 0\n")
    # a minus sign before an exponent or underscore literal is not an option
    code, out, _ = run_cli(capsys, "analyze", "-1e2", "-1_0", *["0"] * 6)
    assert code == 0
    assert out.startswith("game -100 -10 0 0 0 0 0 0\n")


def test_dash_token_without_ascii_digit_is_an_option(capsys):
    # "-" then a non-ASCII digit, a vulgar fraction or a word is not a literal
    for token in ("-\u0661\u0662", "-\u00bd", "-nan"):
        code, out, err = run_cli(capsys, "analyze", token, *["0"] * 7)
        assert (code, out) == (2, "")
        assert f"unrecognized arguments: {token}" in err


def test_analyze_wrong_arity_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "analyze", "1", "2", "3")
    assert code == 2
    assert "expected 8" in err


def test_analyze_bad_literal_names_token(capsys):
    code, _, err = run_cli(capsys, "analyze", "1", "2", "bogus", "4", "5", "6", "7", "8")
    assert code == 2
    assert "bogus" in err
    # Arabic-Indic digits, surrounding whitespace and a vulgar fraction as well
    for token in ("-1x", "\u0661", " 1", "1 ", "\u0663/\u0664", "\u00bd"):
        code, _, err = run_cli(capsys, "analyze", token, *["0"] * 7)
        assert code == 2
        assert f"invalid payoff literal '{token}'" in err


def test_analyze_deterministic(capsys):
    args = ("analyze", "1", "-1", "-1", "1", "-1", "1", "1", "-1")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def _digits(n):
    return random.Random(n).randrange(10 ** (n - 1), 10**n)


def test_analyze_directions_beyond_float_range(tmp_path, capsys):
    rng = random.Random(1)
    payoffs = [f"{rng.randrange(10**79, 10**80)}/{rng.randrange(10**79, 10**80)}" for _ in range(8)]
    code, out, _ = run_cli(capsys, "analyze", *payoffs)
    assert code == 0
    fields = dict(line.split(" ", 1) for line in out.splitlines() if line.startswith("embedding"))
    x, y = map(int, fields["embedding_row"].split())
    assert max(abs(x), abs(y)) > 2**1024  # beyond float range
    assert 0 <= float(fields["embedding_row_angle"]) < 360
    out_path = tmp_path / "emb.svg"
    assert run_cli(capsys, "render", "--kind", "embedding", *payoffs, "-o", str(out_path))[0] == 0
    assert "nan" not in out_path.read_text(encoding="utf-8")


def test_analyze_rejects_huge_exponent_before_parsing(capsys):
    for token in ("1e2000000", "-1e2000000"):
        code, _, err = run_cli(capsys, "analyze", token, *["0"] * 7)
        assert code == 2 and f"invalid payoff literal '{token}'" in err


def test_analyze_rejects_literal_too_long_to_print(capsys):
    # 1e5000 has 5001 digits: over the bound, and over CPython's 4300-digit
    # limit for printing the integer back in the report.
    for token in ("1e5000", "1" * (MAX_LITERAL_DIGITS + 1), "1/" + "3" * MAX_LITERAL_DIGITS):
        code, _, err = run_cli(capsys, "analyze", token, *["0"] * 7)
        assert code == 2 and token in err


def test_analyze_largest_accepted_literals(capsys):
    size = MAX_LITERAL_DIGITS
    dens = [_digits(size - 1) + k for k in (0, 2, 4, 6)]
    decs = [_digits(size), _digits(size) + 8]
    payoffs = [
        f"9/{dens[0]}", f"-.{decs[0]}", f"7/{dens[1]}", str(_digits(size)),
        f"9/{dens[2]}", f"-8/{dens[3]}", f"-.{decs[1]}", f"1e{size - 1}",
    ]
    assert all(as_rational(p) for p in payoffs)
    code, out, _ = run_cli(capsys, "analyze", *payoffs)
    assert code == 0
    numbers = [
        part.lstrip("-")
        for line in out.splitlines()
        for token in line.split()[1:]
        for part in token.split("/")
    ]
    # Report numbers grow to about 8x the literal size; these come close.
    assert 6 * size < max(map(len, numbers)) < 4300
    game = [Fraction(t) for t in out.splitlines()[0].split()[1:]]
    assert game == [as_rational(p) for p in payoffs]


def test_report_rationals_parse_back(capsys):
    _, out, _ = run_cli(capsys, "analyze", "2/3", "0", ".4", "1", "2", "0", "0", "1")
    for line in out.splitlines():
        key, *fields = line.split()
        if key in ("game", "nash_component", "cce_vertex"):
            for token in fields:
                assert format_rational(as_rational(token)) == token


# --- render --------------------------------------------------------------------


def test_render_polytope_svg(tmp_path, capsys):
    out_path = tmp_path / "fig.svg"
    code, _, _ = run_cli(
        capsys, "render", "--kind", "polytope", "--format", "svg",
        "2", "0", "0", "1", "2", "0", "0", "1", "-o", str(out_path),
    )
    assert code == 0
    ET.fromstring(out_path.read_text(encoding="utf-8"))


def test_render_byte_identical_reruns(tmp_path, capsys):
    a, b = tmp_path / "a.tex", tmp_path / "b.tex"
    args = ("render", "--kind", "brgraph", "--format", "tikz",
            "1", "-1", "-1", "1", "-1", "1", "1", "-1")
    assert run_cli(capsys, *args, "-o", str(a))[0] == 0
    assert run_cli(capsys, *args, "-o", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_render_joint_kind_takes_four_values(tmp_path, capsys):
    out_path = tmp_path / "j.svg"
    code, _, _ = run_cli(capsys, "render", "--kind", "joint", ".4", ".3", ".1", ".2",
                         "-o", str(out_path))
    assert code == 0
    code, _, err = run_cli(capsys, "render", "--kind", "joint", ".4", ".3",
                           "-o", str(out_path))
    assert code == 2 and "expected 4" in err


def test_render_joint_rejects_non_distribution(tmp_path, capsys):
    code, _, err = run_cli(capsys, "render", "--kind", "joint", "1", "1", "0", "0",
                           "-o", str(tmp_path / "x.svg"))
    assert code == 2 and "sum to 1" in err
    # the probabilities are echoed as rationals, not as Python reprs
    code, _, err = run_cli(capsys, "render", "--kind", "joint", "1", "1/2", ".5", "1",
                           "-o", str(tmp_path / "x.svg"))
    assert code == 2 and "joint probabilities must sum to 1, got 1 1/2 1/2 1\n" in err
    code, _, err = run_cli(capsys, "render", "--kind", "joint", "-1", "1", "1", "0",
                           "-o", str(tmp_path / "x.svg"))
    assert code == 2 and "negative joint probability in -1 1 1 0\n" in err


def test_render_unknown_kind_usage_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "render", "--kind", "mystery", "0", "0", "0", "0",
                           "-o", str(tmp_path / "x.svg"))
    assert code == 2
    assert "--kind" in err


def test_render_embedding_from_files(tmp_path, capsys):
    points = tmp_path / "pts.dat"
    points.write_text("200 100\n30.5 330\n", encoding="utf-8")
    heat = tmp_path / "heat.dat"
    heat.write_text("1 2\n3 4\n", encoding="utf-8")
    out_path = tmp_path / "emb.svg"
    code, _, _ = run_cli(capsys, "render", "--kind", "embedding",
                         "--points", str(points), "--matrix", str(heat),
                         "-o", str(out_path))
    assert code == 0
    svg = out_path.read_text(encoding="utf-8")
    assert svg.count('class="embed-point"') == 2
    assert svg.count('class="heatmap-cell"') == 4


def test_render_embedding_with_game_point(tmp_path, capsys):
    out_path = tmp_path / "emb.svg"
    code, _, _ = run_cli(capsys, "render", "--kind", "embedding",
                         "2", "0", "0", "1", "2", "0", "0", "1", "-o", str(out_path))
    assert code == 0
    assert out_path.read_text(encoding="utf-8").count('class="embed-point"') == 1


def test_render_embedding_heatmap_span_beyond_float_range(tmp_path, capsys):
    # The largest minus the smallest value overflows to inf; the figure still renders.
    heat = tmp_path / "heat.dat"
    heat.write_text("1e308 -1e308\n0 1\n", encoding="utf-8")
    for suffix in ("svg", "tex"):
        out_path = tmp_path / f"emb.{suffix}"
        code, _, err = run_cli(capsys, "render", "--kind", "embedding",
                               "--matrix", str(heat), "-o", str(out_path))
        assert (code, err) == (0, "")
        text = out_path.read_text(encoding="utf-8")
        if suffix == "svg":
            svg = ET.fromstring(text)
            cells = [e for e in svg.iter() if e.get("class") == "heatmap-cell"]
            # 1e308 is darkest, -1e308 lightest, and 0 and 1 sit halfway
            assert [c.get("fill") for c in cells] == ["#800080", "#ffffff", "#c080c0", "#c080c0"]
        else:
            assert text.count("rectangle") == 5  # four cells and the frame


def test_render_points_flag_outside_embedding_rejected(tmp_path, capsys):
    pts = tmp_path / "pts.dat"
    pts.write_text("1 2\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "render", "--kind", "polytope", *(["0"] * 8),
                           "--points", str(pts), "-o", str(tmp_path / "x.svg"))
    assert code == 2 and "embedding" in err


GAME_LITERALS = ("2", "0", "0", "1", "2", "0", "1/2", "-1")
JOINT_LITERALS = (".4", ".3", ".1", ".2")
GAME, JOINT = game_from_flat(GAME_LITERALS), joint(JOINT_LITERALS)

# Every figure kind with the literals `render` takes for it and the payload they stand
# for.  Neither player of GAME is trivial, so the embedding payload holds one point.
KIND_CASES = {
    FigureKind.ORD_GRAPH: (GAME_LITERALS, GAME),
    FigureKind.BR_GRAPH: (GAME_LITERALS, GAME),
    FigureKind.PAYOFF_TABLE: (GAME_LITERALS, GAME),
    FigureKind.POLYTOPE: (GAME_LITERALS, GAME),
    FigureKind.JOINT: (JOINT_LITERALS, JOINT),
    FigureKind.ROW_COND: (JOINT_LITERALS, JOINT),
    FigureKind.COL_COND: (JOINT_LITERALS, JOINT),
    FigureKind.MARGINAL: (JOINT_LITERALS, JOINT),
    FigureKind.JOINT_MARGINAL: (JOINT_LITERALS, JOINT),
    FigureKind.EMBEDDING: (GAME_LITERALS, EmbeddingFigureData(points=angle_pairs([embed(GAME)]))),
}


@pytest.mark.parametrize("format", ["svg", "tikz"])
@pytest.mark.parametrize("kind", list(FigureKind))
def test_render_every_kind_matches_library(kind, format, tmp_path, capsys):
    literals, payload = KIND_CASES[kind]
    out_path = tmp_path / "fig.out"
    code, out, err = run_cli(capsys, "render", "--kind", kind.value, "--format", format,
                             *literals, "-o", str(out_path))
    assert (code, out, err) == (0, "", "")
    assert out_path.read_text(encoding="utf-8") == render_figure(FigureSpec(kind, payload), format)
    if kind is not FigureKind.EMBEDDING:
        pts = tmp_path / "pts.dat"
        pts.write_text("1 2\n", encoding="utf-8")
        for flag in ("--points", "--matrix"):
            code, _, err = run_cli(capsys, "render", "--kind", kind.value, *literals,
                                   flag, str(pts), "-o", str(tmp_path / "x.svg"))
            assert code == 2 and "--points/--matrix are only valid with --kind embedding" in err


def test_render_ragged_matrix_usage_error(tmp_path, capsys):
    heat = tmp_path / "heat.dat"
    heat.write_text("1 2\n3\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "render", "--kind", "embedding",
                           "--matrix", str(heat), "-o", str(tmp_path / "x.svg"))
    assert code == 2 and "unequal" in err


def test_render_non_finite_matrix_cell_usage_error(tmp_path, capsys):
    heat = tmp_path / "heat.dat"
    heat.write_text("1 2\n3 nan\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "render", "--kind", "embedding",
                           "--matrix", str(heat), "-o", str(tmp_path / "x.svg"))
    assert code == 2 and f"{heat}:2" in err


def test_render_non_finite_points_usage_error(tmp_path, capsys):
    pts = tmp_path / "pts.dat"
    pts.write_text("10 20\n\nnan inf\n", encoding="utf-8")
    out_path = tmp_path / "x.svg"
    code, _, err = run_cli(capsys, "render", "--kind", "embedding",
                           "--points", str(pts), "-o", str(out_path))
    assert code == 2 and f"{pts}:3" in err
    assert not out_path.exists()


def test_render_non_utf8_data_file_usage_error(tmp_path, capsys):
    data = tmp_path / "bad.dat"
    data.write_bytes(b"1 2\n3 \xff4\n")
    for flag in ("--points", "--matrix"):
        code, _, err = run_cli(capsys, "render", "--kind", "embedding",
                               flag, str(data), "-o", str(tmp_path / "x.svg"))
        assert code == 2 and f"{data}:2: non-numeric value" in err
        assert "codec" not in err


def test_render_style_toggles(tmp_path, capsys):
    plain, bare = tmp_path / "a.svg", tmp_path / "b.svg"
    base = ("render", "--kind", "embedding", "2", "0", "0", "1", "2", "0", "0", "1")
    run_cli(capsys, *base, "-o", str(plain))
    run_cli(capsys, *base, "--no-axes-labels", "--no-tick-labels",
            "--no-best-response-names", "-o", str(bare))
    full_svg = plain.read_text(encoding="utf-8")
    bare_svg = bare.read_text(encoding="utf-8")
    assert 'class="axis-label"' in full_svg and 'class="axis-label"' not in bare_svg
    assert 'class="class-name"' in full_svg and 'class="class-name"' not in bare_svg


def test_render_format_inferred_from_extension(tmp_path, capsys):
    out_path = tmp_path / "fig.tex"
    code, _, _ = run_cli(capsys, "render", "--kind", "joint", ".4", ".3", ".1", ".2",
                         "-o", str(out_path))
    assert code == 0
    assert out_path.read_text(encoding="utf-8").startswith(r"\begin{tikzpicture}")


def test_render_unwritable_output_fails(tmp_path, capsys):
    code, _, err = run_cli(capsys, "render", "--kind", "joint", ".4", ".3", ".1", ".2",
                           "-o", str(tmp_path / "missing" / "fig.svg"))
    assert code == 1
    assert "cannot write" in err


# --- census --------------------------------------------------------------------


def test_census_output(capsys):
    code, out, _ = run_cli(capsys, "census")
    assert code == 0
    assert "strict_ordinal_total 576" in out
    assert "strict_ordinal_up_to_strategy 144" in out
    assert "strict_ordinal_up_to_strategy_and_player 78" in out
    assert "partial_ordinal_classes 726" in out
    assert "br_graphs 81" in out
    assert "br_classes 15" in out


# --- verify --------------------------------------------------------------------


def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--seed", "7", "--trials", "3")
    assert code == 0
    assert out == "PASS 3/3\n"


def test_verify_timings_go_to_stderr_only(capsys):
    code, out, err = run_cli(capsys, "verify", "--seed", "7", "--trials", "3")
    assert (code, err) == (0, "")
    timed_code, timed_out, timed_err = run_cli(capsys, "verify", "--seed", "7", "--trials", "3", "--timings")
    assert (timed_code, timed_out) == (code, out)
    lines = [line.split() for line in timed_err.splitlines()]
    assert [fields[1] for fields in lines] == list(verify.run(seed=7, trials=1).timings)
    for tag, _, calls, total_ms in lines:
        assert tag == "timing" and calls == "3" and float(total_ms) >= 0


def test_verify_timings_keep_negative_controls(capsys, monkeypatch):
    real_joint, real_is_nash, real_nash_set = verify.joint_in_cce, verify.is_nash, verify.nash_set

    def drop_first(game):
        ns = real_nash_set(game)
        return NashSet(components=ns.components[1:]) if len(ns.components) > 1 else ns

    for name, broken, seed in (
        ("joint_in_cce", lambda g, s: not real_joint(g, s), "1"),
        ("is_nash", lambda g, m: not real_is_nash(g, m), "1"),
        ("nash_set", drop_first, "3"),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(verify, name, broken)
            code, out, _ = run_cli(capsys, "verify", "--seed", seed, "--trials", "4")
            timed_code, timed_out, timed_err = run_cli(
                capsys, "verify", "--seed", seed, "--trials", "4", "--timings"
            )
        assert code == timed_code == 1, name
        assert out == timed_out and "FAIL" in out, name
        assert len(timed_err.splitlines()) == 6


def test_verify_zero_trials_usage_error(capsys):
    code, _, err = run_cli(capsys, "verify", "--trials", "0")
    assert code == 2
    assert "--trials" in err


def test_verify_broken_build_fails_with_counterexample(capsys, monkeypatch):
    real = verify.joint_in_cce
    monkeypatch.setattr(verify, "joint_in_cce", lambda g, s: not real(g, s))
    code, out, _ = run_cli(capsys, "verify", "--seed", "1", "--trials", "2")
    assert code == 1
    assert "FAIL" in out
    flat = out.splitlines()[0].split()[1:]
    assert len(flat) == 8
    for token in flat:
        as_rational(token)


# --- one parser per process ------------------------------------------------------
# `main` builds its parser once and reuses it, so each pair below runs two
# commands back to back in this process and checks that the first one leaves
# nothing behind for the second.

COORDINATION_ARGS = ("2", "0", "0", "1", "2", "0", "0", "1")


def test_parser_reuse_style_flags_do_not_carry_over(tmp_path, capsys):
    bare, plain = tmp_path / "bare.svg", tmp_path / "plain.svg"
    base = ("render", "--kind", "embedding", *COORDINATION_ARGS)
    assert run_cli(capsys, *base, "--no-axes-labels", "-o", str(bare))[0] == 0
    assert run_cli(capsys, *base, "-o", str(plain))[0] == 0
    default = render_embedding([embed(game_from_flat(COORDINATION_ARGS))], format="svg")
    assert bare.read_text(encoding="utf-8") != default
    assert plain.read_text(encoding="utf-8") == default


def test_parser_reuse_usage_error_does_not_carry_over(capsys):
    code, out, err = run_cli(capsys, "analyze", "1", "2")
    assert (code, out) == (2, "") and "expected 8 payoff values, got 2" in err
    code, out, err = run_cli(capsys, "analyze", *COORDINATION_ARGS)
    assert (code, out, err) == (0, _analysis_report(game_from_flat(COORDINATION_ARGS)), "")


def test_parser_reuse_timings_flag_does_not_carry_over(capsys):
    code, out, err = run_cli(capsys, "verify", "--seed", "7", "--trials", "1", "--timings")
    assert (code, out) == (0, "PASS 1/1\n") and err.startswith("timing ")
    assert run_cli(capsys, "verify", "--seed", "7", "--trials", "1") == (0, "PASS 1/1\n", "")


def test_cli_examples_script(tmp_path):
    """The CLI examples and pins that CI runs, as the same script: every pin
    holds and each usage error exits with 2, so the script exits 0."""
    env = dict(
        os.environ,
        PYTHONPATH="src",
        RUNNER_TEMP=str(tmp_path),
        PATH=os.pathsep.join((os.path.dirname(sys.executable), os.environ.get("PATH", ""))),
    )
    result = subprocess.run(
        ["bash", "tests/cli_examples.sh"],
        cwd=Path(__file__).resolve().parent.parent,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_cli_examples_script_runs_every_readme_command():
    """Every subcommand in the README's CLI block and every kind in its figure
    table is run by the script; commands are compared, not lines, since the
    script writes to its own file names."""
    root = Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text()
    script = (root / "tests" / "cli_examples.sh").read_text()
    cli_section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    cli_block = cli_section.split("```\n", 2)[1]
    readme_commands = set(re.findall(r"^twobytwo (\w+)", cli_block, re.MULTILINE))
    kinds_table = cli_section.split("\n### Figure kinds\n", 1)[1]
    readme_kinds = set(re.findall(r"^\| `(\w+)`", kinds_table, re.MULTILINE))
    assert readme_commands == {"analyze", "census", "verify", "render"}
    assert readme_kinds == {kind.value for kind in FigureKind}
    assert readme_commands <= set(re.findall(r"python -m twobytwo (\w+)", script))
    assert readme_kinds <= set(re.findall(r"--kind (\w+)", script))
