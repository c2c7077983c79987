#!/usr/bin/env python3
"""Record the output digests that the benchmark compares for the default seed.

    python3 perfbench/record_digests.py

Run it only at a commit whose outputs are known good: the digests pin
`analyze` reports and rendered figure bytes, which must stay byte-identical.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402

COUNT = 400  # ops per workload; later ops of the default seed are checked but not pinned


def main() -> int:
    digests = {name: harness.output_digests(name, COUNT) for name in ("analyze-mix", "figures")}
    harness.DIGESTS.write_text(json.dumps(digests, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
