"""Closed-loop measurement of one workload: one client, one process, no threads.

An operation is one in-process call of `twobytwo.cli.main(argv)` with stdout
captured, checked after its timer stops.  The untraced run gives the
end-to-end metrics; the traced run gives the per-layer metrics and the
tracing overhead, measured by running each operation once untraced and once
traced, back to back.  After either run, whatever its seed, the recorded
operations of the default seed run untimed and must match `digests.json`.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from tracing import Tracer, layer_metrics
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DIGESTS = Path(__file__).with_name("digests.json")
DEFAULT_SEED = 0
SETUP_REPEATS = 7  # set-ups per run, spread over its timed part
WARMUP_OPS = 2
WARMUP_BASE = 900_000  # op indices for warm-up, far from any measured op

_CHILD = "import sys\nfrom twobytwo.cli import main\nsys.exit(main(sys.argv[1:]))"


def source_present() -> bool:
    return (SRC / "twobytwo" / "cli.py").is_file()


def import_cli():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import twobytwo.cli
    import twobytwo.verify  # noqa: F401  (`cli` imports it lazily; the tracer must find it loaded)

    return twobytwo.cli


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


@dataclass
class Tally:
    latencies: list[float] = field(default_factory=list)
    starts: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    digests_checked: int = 0
    errors: list[str] = field(default_factory=list)

    def clear_times(self) -> None:
        self.latencies.clear()
        self.starts.clear()

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


def call_cli(cli, argv):
    """Run one CLI command in process: (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception:  # an op that raises is a failed op, not the end of the run
            code = None
            err.write(traceback.format_exc())
        elapsed = perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


def run_op(cli, workload, i: int, tally: Tally, golden=(), tracer=None) -> float:
    """Run and check op `i`; return its latency in seconds."""
    argv, check = workload.op(i)
    if tracer is not None:
        tracer.op = i
    code, out, err, elapsed = call_cli(cli, argv)
    tally.attempted += 1
    problem = f"exit code {code}: {err.strip()[-500:]}" if code != 0 else None
    if problem is None:
        problem, output = check(out)
        if problem is None and 0 <= i < len(golden):
            tally.digests_checked += 1
            if digest(output) != golden[i]:
                problem = "output digest differs from the one recorded for the default seed"
    if problem:
        tally.fail(f"op {i} {' '.join(argv)}: {problem}")
    return elapsed


def run_ops(cli, workload, indices, tally: Tally, deadline=None, golden=()) -> None:
    """Run ops in turn, keeping their start times and latencies, until `deadline`."""
    for i in indices:
        elapsed = run_op(cli, workload, i, tally, golden)
        tally.starts.append(perf_counter() - elapsed)
        tally.latencies.append(elapsed)
        if deadline is not None and perf_counter() >= deadline:
            return


def check_golden(cli, name: str, workdir: Path, tally: Tally, count: int | None = None) -> None:
    """Run the first `count` (default: all) recorded ops of the default seed untimed, against their digests."""
    golden = load_golden(name)[:count]
    if golden:
        workload = WORKLOADS[name](DEFAULT_SEED, workdir)
        for i in range(len(golden)):
            run_op(cli, workload, i, tally, golden)


def measure_setup(workload, tally: Tally) -> float:
    """Wall time of a fresh interpreter importing the CLI and finishing op 0."""
    argv, check = workload.op(0)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-c", _CHILD, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    elapsed = perf_counter() - start
    tally.attempted += 1
    problem = f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}" if proc.returncode else check(proc.stdout)[0]
    if problem:
        tally.fail(f"set-up op {' '.join(argv)}: {problem}")
    return elapsed


def load_golden(name: str) -> list[str]:
    """Digests of the first outputs of the default seed; none for `verify-suite`, whose output is fixed text."""
    return json.loads(DIGESTS.read_text()).get(name, [])


def git_sha(root: Path) -> str | None:
    """The checked-out commit, read from `.git` directly (no git process, no parent dirs)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        packed = (git / "packed-refs").read_text()
    except OSError:
        return None
    return next((line.split()[0] for line in packed.splitlines() if line.endswith(" " + ref)), None)


def metadata(name: str, seed: int, seconds: float, trace: bool) -> dict:
    kernels = sys.modules.get("twobytwo.kernels")
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "backend": getattr(kernels, "BACKEND", None),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(ROOT),
    }


def _end_to_end(cli, workload, seconds, golden, tally, setup_repeats) -> dict:
    _warm_up(cli, workload, tally)
    # One set-up before each equal share of the timed ops: the host's speed
    # changes every few seconds, and set-ups taken in a row would all meet
    # the same state.
    setup, indices = [], itertools.count()
    for _ in range(setup_repeats):
        setup.append(measure_setup(workload, tally))
        run_ops(cli, workload, indices, tally, perf_counter() + seconds / setup_repeats, golden)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    latencies = tally.latencies
    p95 = statistics.quantiles(latencies, n=20)[-1] if len(latencies) > 1 else latencies[0]
    return {
        "metrics": {
            "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
            "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "latency_p95_ms": (p95 * 1e3, "ms"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        },
        "ops": len(latencies),
        "p95_samples_beyond": sum(1 for x in latencies if x > p95),
    }


def _traced(cli, workload, seconds, tally) -> dict:
    """Run each op untraced and traced, back to back, in alternating order.

    The per-layer metrics come from the traced runs.  The tracing overhead is
    the geometric mean of two medians of traced/untraced latency ratios, one
    per order, so that neither a second run's warm state nor a change of host
    speed between blocks of ops biases it.
    """
    _warm_up(cli, workload, tally)
    tracer = Tracer()
    ratios: tuple[list[float], list[float]] = ([], [])
    deadline = perf_counter() + seconds
    for i in itertools.count():
        traced_first = i % 2
        elapsed = {}
        for traced in ((True, False) if traced_first else (False, True)):
            if traced:
                with tracer:
                    elapsed[traced] = run_op(cli, workload, i, tally, tracer=tracer)
            else:
                elapsed[traced] = run_op(cli, workload, i, tally)
        ratios[traced_first].append(elapsed[True] / elapsed[False])
        if perf_counter() >= deadline and all(ratios):
            break
    ops = i + 1
    overhead_pct = (math.sqrt(statistics.median(ratios[0]) * statistics.median(ratios[1])) - 1) * 100
    return {
        "metrics": layer_metrics(tracer.layer_table(), tracer.counters, ops, overhead_pct),
        "ops": ops,
        "tracer": tracer,
    }


def _warm_up(cli, workload, tally) -> None:
    run_ops(cli, workload, range(WARMUP_BASE, WARMUP_BASE + WARMUP_OPS), tally)
    tally.clear_times()


def run_workload(name: str, seed: int, seconds: float, trace: bool, setup_repeats: int = SETUP_REPEATS,
                 golden_ops: int | None = None) -> dict:
    """Measure one workload: metrics as {name: (value, unit)}, the op tally and run details.

    `golden_ops` limits the untimed digest check to the first recorded ops.
    """
    cli = import_cli()
    tally = Tally()
    result = {"meta": metadata(name, seed, seconds, trace), "tally": tally}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        workload = WORKLOADS[name](seed, Path(workdir) / "run")
        if trace:
            result.update(_traced(cli, workload, seconds, tally))
        else:
            golden = load_golden(name) if seed == DEFAULT_SEED else ()
            result.update(_end_to_end(cli, workload, seconds, golden, tally, setup_repeats))
        check_golden(cli, name, Path(workdir) / "golden", tally, golden_ops)
    return result


def output_digests(name: str, count: int) -> list[str]:
    """Digests of the first `count` outputs of the default seed; every op must pass its check."""
    cli = import_cli()
    digests = []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        workload = WORKLOADS[name](DEFAULT_SEED, Path(workdir))
        for i in range(count):
            argv, check = workload.op(i)
            code, out, err, _ = call_cli(cli, argv)
            problem = f"exit code {code}: {err}" if code != 0 else None
            problem, output = (problem, b"") if problem else check(out)
            if problem:
                raise RuntimeError(f"op {i} {' '.join(argv)}: {problem}")
            digests.append(digest(output))
    return digests
