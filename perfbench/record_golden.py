"""Record golden.json: the sha256 of every invocation's output for the golden seeds.

Seed 7 is the benchmark's default seed and seed 11 a held-out one. Outputs of
invocations that take no seed (catalog, classify, oracle) are the same for
every seed, so their digests are checked on every run. Re-record only when a
change is meant to alter CLI output, and say so in CHANGES.md.

Run from the checkout root: `python3 perfbench/record_golden.py`.
"""

from __future__ import annotations

import json
import os
import sys

import tracer
import workloads as wl

GOLDEN_SEEDS = (7, 11)


def main() -> int:
    os.chdir(tracer.ROOT)
    digests: dict[str, str] = {}
    for workload in wl.WORKLOADS:
        for seed in GOLDEN_SEEDS:
            result = tracer.run_pass(workload, seed, golden={})
            if result["errors"]:
                print("\n".join(result["errors"]), file=sys.stderr)
                return 1
            digests.update(result["digests"])
    wl.GOLDEN_PATH.write_text(json.dumps(dict(sorted(digests.items())), indent=1) + "\n")
    print(f"recorded {len(digests)} digests in {wl.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
