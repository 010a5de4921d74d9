"""Record a baseline: every workload on several seeds, plus one traced run.

Run from the root of a checkout:

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

For each workload of ``BENCHMARK.json`` it runs ``run.py`` once per seed
with tracing off, and writes each end-to-end metric's median, first and
third quartile (``statistics.quantiles(values, n=4)``), spread (the
distance between the quartiles as a share of the median) and the value
of each seed, in seed order.  One traced run per workload on the first
seed gives each layer's busy time as a share of the traced pass's wall
time.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import quantiles

RUN = Path(__file__).resolve().parent / "run.py"


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    return json.loads(completed.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, middle, q3 = quantiles(values, n=4)
    return {"median": middle, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / middle if middle else 0.0,
            "values": values}


def layer_shares(metrics: dict) -> dict[str, float]:
    """Each layer's self time as a share of the traced pass's wall time;
    ``other`` is interpreter start, imports and unattributed time."""
    busy = {name.split(".")[0]: metric["value"]
            for name, metric in metrics.items()
            if name.count(".") == 1 and name.endswith(".busy_s")}
    busy["pipeline"] = metrics["pipeline.write_s"]["value"] \
        + metrics["pipeline.read_s"]["value"]
    wall = metrics["trace.wall_s"]["value"]
    busy["other"] = wall - sum(busy.values())
    return {layer: round(seconds / wall, 4)
            for layer, seconds in sorted(busy.items())}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    document = {"run_seconds": spec["run_seconds"], "seeds": args.seeds,
                "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [bench(workload, seed, spec["run_seconds"], 0)
                for seed in args.seeds]
        traced = bench(workload, args.seeds[0], spec["run_seconds"], 1)
        document["workloads"][workload] = {
            "all_correct": all(run["correct"] for run in runs + [traced]),
            "metrics": {
                metric["name"]: {"unit": metric["unit"], **summary(
                    [run["metrics"][metric["name"]]["value"]
                     for run in runs])}
                for metric in spec["end_to_end"]},
            "layer_shares": layer_shares(traced["metrics"]),
        }
        print(workload, json.dumps(document["workloads"][workload]),
              flush=True)
    args.out.write_text(json.dumps(document, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
