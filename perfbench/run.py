#!/usr/bin/env python3
"""Benchmark the twobytwo CLI end to end and layer by layer.

    python3 perfbench/run.py --workload analyze-mix --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the program is imported from `src/`.
`--workload all` runs the three workloads in turn.  With `--trace 0` the run
reports the end-to-end metrics; with `--trace 1` it reports the per-layer
metrics and writes every span to `.perfbench/results/`.  The last line of
standard output is one JSON object: correct, attempted, failed and metrics.
See perfbench/README.md for the workloads and what each metric predicts.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RESULTS = harness.ROOT / ".perfbench" / "results"


def _print_table(result: dict) -> None:
    meta, tally = result["meta"], result["tally"]
    print("# " + " ".join(f"{k}={v}" for k, v in meta.items()))
    for name, (value, unit) in result["metrics"].items():
        note = ""
        if name == "latency_p95_ms":
            note = f"  ({result['ops']} samples, {result['p95_samples_beyond']} beyond)"
        print(f"{meta['workload']:13s} {name:48s} {value:14.6g} {unit}{note}")
    print(f"{meta['workload']:13s} {'failed_frac':48s} {tally.failed / tally.attempted:14.6g} "
          f"({tally.failed} of {tally.attempted} ops; {tally.digests_checked} digests checked)")


def _write_files(result: dict) -> None:
    meta, tally = result["meta"], result["tally"]
    stem = f"{meta['workload']}-seed{meta['seed']}-trace{int(meta['trace'])}"
    RESULTS.mkdir(parents=True, exist_ok=True)
    record = {
        "meta": meta,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
        "ops": result["ops"],
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_frac": tally.failed / tally.attempted,
        "digests_checked": tally.digests_checked,
        "errors": tally.errors,
        "op_start_s": tally.starts,
        "op_latency_s": tally.latencies,
    }
    if "p95_samples_beyond" in result:
        record["p95_samples_beyond"] = result["p95_samples_beyond"]
    tracer = result.get("tracer")
    if tracer is not None:
        record["layers"] = tracer.layer_table()
        record["counters"] = dict(tracer.counters)
        record["missing_layers"] = tracer.missing
        with open(RESULTS / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["name", "tag", "start_ns", "end_ns", "parent", "op"]) + "\n")
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not harness.source_present():
        print(f"error: no twobytwo source under {harness.SRC}; run from a source checkout", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = harness.run_workload(name, args.seed, args.seconds, bool(args.trace))
        _print_table(result)
        _write_files(result)
        for error in result["tally"].errors:
            print(f"FAILED {error}", file=sys.stderr)
        tally = result["tally"]
        print(json.dumps({
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
        }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
