"""Command lines on which `cli.main` must behave exactly as the reference route:
`_parser().parse_args(argv)`, the top-level argparse pass, then the command.

`tests/test_cli.py` runs the corpus under pytest.  Interpreters without pytest
run it as a plain script from the repository root, which prints one line per
command line and exits 1 on any difference:

    PYTHONPATH=src python tests/dispatch_corpus.py
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import sys
import tempfile

from twobytwo.cli import _COMMANDS, _parser, main

GAME = ("2", "0", "0", "1", "2", "0", "0", "1")
NEGATIVE_GAME = ("-1", "-3", "0", "-2", "-1", "0", "-3", "-2")
JOINT = (".4", ".3", ".1", ".2")

CORPUS = (
    # each subcommand, run to completion
    ("analyze", *GAME),
    ("analyze", *NEGATIVE_GAME),
    ("analyze", "1_0", "-.5", "2/3", "-1e2", "+4", "0", "1.", "-1/2"),
    ("render", "--kind", "polytope", "-o", "out.svg", *GAME),
    ("render", "--kind", "joint", "--format", "tikz", "-o", "out.tex", *JOINT),
    ("render", "--kind", "embedding", "--no-axes-labels", "-o", "out.svg", *NEGATIVE_GAME),
    ("census",),
    ("verify", "--seed", "7", "--trials", "2"),
    ("verify", "--trials", "1", "--timings"),
    # help after a command, and at the top level
    ("analyze", "-h"),
    ("render", "--help"),
    ("census", "-h"),
    ("verify", "-h", "--seed", "x"),
    ("-h",),
    ("--help", "analyze"),
    # abbreviations: a unique prefix, an ambiguous one, a prefix of help
    ("render", "--kin", "brgraph", "-o", "out.svg", *GAME),
    ("render", "--no", "--kind", "brgraph", "-o", "out.svg", *GAME),
    ("verify", "--tri", "1", "--s", "3"),
    ("analyze", "--he"),
    # unknown options and extra tokens
    ("analyze", "--bogus", *GAME),
    ("analyze", *GAME, "-x"),
    ("render", "--kind", "polytope", "-o", "out.svg", "--wide", *GAME),
    ("census", "extra"),
    ("census", "--", "extra"),
    ("verify", "--trials", "1", "7"),
    ("verify", "--seed", "-1", "--trials", "1", "--", "-2"),
    # "--" before literals
    ("analyze", "--", *NEGATIVE_GAME),
    ("analyze", "--", "--", *GAME[1:]),
    ("render", "--kind", "ordgraph", "-o", "out.svg", "--", *NEGATIVE_GAME),
    ("render", "--", "--kind", "ordgraph", "-o", "out.svg", *GAME),
    # missing required options and values
    ("render", "-o", "out.svg", *GAME),
    ("render", "--kind", "polytope", *GAME),
    ("render", "--kind", "polytope", "-o"),
    ("render", "--kind", "unknown", "-o", "out.svg", *GAME),
    ("verify", "--seed"),
    ("verify", "--trials", "0"),
    # bad literals, arity and payloads
    ("analyze", "1", "2"),
    ("analyze", "-1x", *GAME[1:]),
    ("analyze", "1/0", *GAME[1:]),
    ("render", "--kind", "joint", "-o", "out.svg", ".5", ".5", ".5", "-.5"),
    ("render", "--kind", "polytope", "--points", "p.txt", "-o", "out.svg", *GAME),
    # no command, an unknown one, a leading "--", an option first
    (),
    ("analyse", *GAME),
    ("--", "census"),
    ("--seed", "1", "verify"),
    ("-1", "census"),
    ("ANALYZE",),
)

# `verify --timings` writes measured times, which differ from run to run.
_TIMING = re.compile(r"^(timing \S+ \d+) \S+$", re.MULTILINE)


def reference_main(argv) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    return _COMMANDS[args.command](parser, args)


def outcome(route, argv) -> tuple:
    """(exit code, stdout, stderr, {file: bytes}) of `route(argv)`, run in a
    fresh working directory that holds only what the command wrote; the
    times of `timing` lines are masked."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = route(list(argv))
                except SystemExit as exc:  # usage errors and help
                    code = exc.code
            files = {}
            for name in sorted(os.listdir(scratch)):
                with open(name, "rb") as fh:
                    files[name] = fh.read()
        finally:
            os.chdir(cwd)
    return code, out.getvalue(), _TIMING.sub(r"\1", err.getvalue()), files


if __name__ == "__main__":
    mismatches = 0
    for argv in CORPUS:
        main_outcome, reference = outcome(main, argv), outcome(reference_main, argv)
        mismatches += main_outcome != reference
        verdict = "same" if main_outcome == reference else "DIFFERENT"
        print(f"{verdict} exit {main_outcome[0]}: {' '.join(argv)}")
    print(f"{sys.version.split()[0]}: {len(CORPUS) - mismatches}/{len(CORPUS)} command lines the same")
    sys.exit(1 if mismatches else 0)
