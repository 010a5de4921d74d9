"""Regenerate the committed digest table, ``digests.json``.

Run from the root of a checkout after a deliberate change to what the
model computes:

    python3 perfbench/digest_table.py

For every seed and scale in ``TABLES`` it runs a cold sweep pass and then
a warm report pass over the same store, checks that the two agree on
every result they both digest, and writes the union of their digests
under ``scale=<scale>/seed=<seed>``.  The whole file is rewritten, so no
table outlives a model change.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from run import DIGEST_TABLE, PASS_SCRIPT, child_env

#: seeds 0-31 at the benchmark's scale (the baselines use seeds 1-20),
#: and the self-tests' seed and scale
TABLES = [(1.0, seed) for seed in range(32)] + [(0.05, 17)]


def digests(scale: float, seed: int) -> dict[str, str]:
    merged: dict[str, str] = {}
    with tempfile.TemporaryDirectory() as work:
        for workload in ("paper_cold", "warm_report"):
            out = Path(work, f"{workload}.json")
            subprocess.run(
                [sys.executable, str(PASS_SCRIPT), "--workload", workload,
                 "--seed", str(seed), "--scale", repr(scale), "--store",
                 str(Path(work, "store")), "--out", str(out)],
                env=child_env(), stdout=subprocess.DEVNULL, check=True)
            for key, value in json.loads(out.read_text())["digests"].items():
                if merged.setdefault(key, value) != value:
                    raise SystemExit(f"seed {seed}: the passes disagree on "
                                     f"{key}")
    return merged


def main() -> int:
    table = {}
    for scale, seed in TABLES:
        key = f"scale={scale:g}/seed={seed}"
        table[key] = digests(scale, seed)
        print(key, len(table[key]), flush=True)
    DIGEST_TABLE.write_text(json.dumps(table, indent=1, sort_keys=True)
                            + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
