"""Self-test of the benchmark: every workload at tiny size, untraced and traced.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
from workloads import WORKLOADS, check_analyze, check_figure, joint_literals, verify_like_game  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SECONDS = 0.3
GOLDEN_OPS = 30  # recorded ops of the default seed checked after each run here

# Calls per op that the seed commit's code makes on every op, whatever the game.
EXACT_CALLS = {
    "analyze-mix": {"equilibria.cce_polytope.calls": 1, "equilibria.nash_set.calls": 1,
                    "kernels.grid_oracle.calls": 0},
    "verify-suite": {"equilibria.cce_polytope.calls": 12, "equilibria.nash_set.calls": 14,
                     "kernels.grid_oracle.calls": 1},
}


def _units(section: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in BENCH[section]}


def test_benchmark_json_names_known_workloads():
    assert {w["name"] for w in BENCH["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_run_reports_end_to_end_metrics(name):
    result = harness.run_workload(name, harness.DEFAULT_SEED, SECONDS, trace=False, setup_repeats=1,
                                  golden_ops=GOLDEN_OPS)
    tally = result["tally"]
    assert tally.failed == 0, tally.errors
    assert {k: unit for k, (_, unit) in result["metrics"].items()} == _units("end_to_end")
    assert all(value > 0 for value, _ in result["metrics"].values())
    if name != "verify-suite":  # verify output is checked as the literal "PASS 1/1"
        assert tally.digests_checked == result["ops"] + GOLDEN_OPS


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_reports_per_layer_metrics(name):
    result = harness.run_workload(name, harness.DEFAULT_SEED, SECONDS, trace=True, golden_ops=GOLDEN_OPS)
    tally, metrics = result["tally"], result["metrics"]
    assert tally.failed == 0, tally.errors
    assert {k: unit for k, (_, unit) in metrics.items()} == _units("per_layer")
    assert result["tracer"].missing == []
    for metric, calls in EXACT_CALLS.get(name, {}).items():
        assert metrics[metric][0] == calls, metric
    # Leaving the tracer restores every binding site.
    import twobytwo.equilibria
    import twobytwo.verify

    assert twobytwo.verify.cce_polytope is twobytwo.equilibria.cce_polytope
    assert not hasattr(twobytwo.equilibria.cce_polytope, "__wrapped__")


def test_run_at_any_seed_checks_recorded_digests(monkeypatch):
    recorded = harness.load_golden("figures")
    changed = [recorded[0][::-1], *recorded[1:]]
    monkeypatch.setattr(harness, "load_golden", lambda name: changed)
    result = harness.run_workload("figures", 7, 0.05, trace=False, setup_repeats=1, golden_ops=3)
    tally = result["tally"]
    assert tally.digests_checked == 3
    assert tally.failed == 1 and "digest differs" in tally.errors[0]


def test_games_and_joints_are_drawn_as_the_verifier_draws_them():
    from twobytwo.core import game_to_flat
    from twobytwo.verify import random_game, random_joint

    ours, theirs = random.Random(11), random.Random(11)
    for _ in range(50):
        assert verify_like_game(ours) == list(game_to_flat(random_game(theirs)))
        assert [Fraction(x) for x in joint_literals(ours)] == list(random_joint(theirs).prob)


def test_checks_reject_wrong_outputs(tmp_path):
    values = [Fraction(v) for v in (2, 0, 0, 1, 2, 0, 0, 1)]
    report = harness.call_cli(harness.import_cli(), ["analyze", *map(str, values)])[1]
    assert check_analyze(values, report) is None
    wrong_vertex = report.replace("cce_vertex 0 0 0 1", "cce_vertex 0 1 0 0")
    assert "violates" in check_analyze(values, wrong_vertex)
    assert "echo" in check_analyze([Fraction(3)] + values[1:], report)
    _, check = WORKLOADS["analyze-mix"](harness.DEFAULT_SEED, tmp_path).op(0)
    assert "malformed" in check("game x\n\n")[0]

    svg = tmp_path / "f.svg"
    svg.write_text('<svg xmlns="http://www.w3.org/2000/svg"><circle cx="nan"/></svg>')
    assert "nan" in check_figure(svg, "svg")[0]
    tikz = tmp_path / "f.tex"
    tikz.write_text("\\begin{tikzpicture}\n\\draw (0,0) -- (1,1);\n")
    assert "tikzpicture" in check_figure(tikz, "tikz")[0]


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", "analyze-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
