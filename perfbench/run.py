"""Host-time benchmark of the study, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper_cold --seed 17 --seconds 40 \\
        --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``paper_cold``  -- ``SweepRunner.run_all`` on an empty store: the
  11 workloads x 3 BOOM presets study, as ``repro-cli sweep``;
* ``warm_report`` -- ``generate_report`` over a store that set-up filled
  with every result, as ``repro-cli report``.

``--seed`` is passed only as ``FlowSettings.seed``; scale is 1.0 and every
other setting is a default.  Each pass runs ``passes.py`` in a fresh
interpreter, one pass at a time, and passes repeat until they have run
for ``--seconds`` (at least three passes in all).  With ``--trace 0``
the last line of standard output is a JSON object with the end-to-end
metrics (medians over the passes); with ``--trace 1`` each untraced pass
is followed by a traced one, and the per-layer metrics are medians over
the traced passes.  Each pass's times go to standard error.

Correctness: every pass digests what it produced -- each
``ExperimentResult.to_json()``, each SimPoint selection, each figure,
table and takeaway section of the report.  Each digest must equal the
committed table in ``digests.json`` for the seed and the digests earlier
passes of the same seed produced in this work directory, whichever
workload or tracing mode made them.  An operation (one result, one
selection, one report) that raises or mismatches counts as failed.  A
seed the committed table does not cover is only checked for agreement
between passes, and the run says on standard error that it is
unverified.  ``digest_table.py`` regenerates the table after a
deliberate model change.  Every metric named in ``BENCHMARK.json`` must
be reported and no other; otherwise the run fails without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
PASS_SCRIPT = HERE / "passes.py"
DIGEST_TABLE = HERE / "digests.json"
MIN_PASSES = 3
#: the interpreter start + ``import repro.cli`` set-up check is repeated
#: this many times and the median reported; the store ``warm_report``
#: reads is filled once, since each fill costs a whole cold sweep
IMPORT_REPEATS = 9
#: a pass that runs longer than this is killed and counts as failed
PASS_TIMEOUT_S = 150


class BenchmarkError(Exception):
    """The benchmark cannot produce a valid result line."""


def child_env() -> dict[str, str]:
    """The caller's environment with ``./src`` importable and no
    ``REPRO_*`` switches (tracing, faults, checks), which would change
    what a pass does."""
    env = {name: value for name, value in os.environ.items()
           if not name.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path("src").resolve()), env.get("PYTHONPATH")]))
    return env


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def timed_child(argv: list[str]) -> tuple[float, float, int]:
    """Run one child to completion: (wall s, user+sys CPU s, exit code)."""
    cpu = children_cpu_s()
    started = perf_counter()
    try:
        code = subprocess.run(argv, env=child_env(), stdout=subprocess.DEVNULL,
                              timeout=PASS_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        code = -1
    return perf_counter() - started, children_cpu_s() - cpu, code


class Digests:
    """The reference digests one run is checked against.

    Every pass must agree with the committed table for its seed and scale
    and with what earlier passes of the same seed produced in this work
    directory, whichever workload or tracing mode made them.  A seed the
    committed table does not cover is unverified: only the agreement
    between passes is checked.
    """

    def __init__(self, work: Path, scale: float, seed: int) -> None:
        table = json.loads(DIGEST_TABLE.read_text())
        self.committed = table.get(f"scale={scale:g}/seed={seed}")
        self.path = work / "digests" / f"scale={scale:g}-seed={seed}.json"
        self.seen = json.loads(self.path.read_text()) \
            if self.path.exists() else {}

    def failures(self, produced: dict[str, str], attempted: int) -> int:
        """Operations of one pass that raised or mismatched."""
        new = {key: value for key, value in produced.items()
               if key not in self.seen}
        if new:
            self.seen.update(new)
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.write_text(json.dumps(self.seen, indent=1,
                                            sort_keys=True))
        references = [self.seen] if self.committed is None \
            else [self.seen, self.committed]
        ok = sum(1 for key, value in produced.items()
                 if not key.startswith("report/")
                 and all(ref.get(key) == value for ref in references))
        # the report is one operation: every section must be there and match
        report = report_sections(produced)
        if report and all(report == report_sections(ref)
                          for ref in references):
            ok += 1
        return max(attempted - ok, 0)


def report_sections(digests: dict[str, str]) -> dict[str, str]:
    return {key: value for key, value in digests.items()
            if key.startswith("report/")}


def run_pass(args, store: Path, work: Path, trace: bool = False) -> dict:
    out = work / "pass.json"
    out.unlink(missing_ok=True)
    argv = [sys.executable, str(PASS_SCRIPT), "--workload", args.workload,
            "--seed", str(args.seed), "--scale", repr(args.scale),
            "--store", str(store), "--out", str(out)]
    if trace:
        argv.append("--trace")
    wall, cpu, code = timed_child(argv)
    document = json.loads(out.read_text()) \
        if code == 0 and out.exists() else None
    print(f"{args.workload} pass{' traced' if trace else ''}: wall "
          f"{wall:.3f} s, cpu {cpu:.3f} s, exit {code}", file=sys.stderr)
    return {"wall_s": wall, "cpu_s": cpu, "document": document}


def import_check() -> float:
    wall, _, code = timed_child([sys.executable, "-c", "import repro.cli"])
    if code != 0:
        raise BenchmarkError("cannot import repro from ./src")
    return wall


def fill_store(args, store: Path, work: Path) -> float:
    """Set-up of ``warm_report``: a cold serial sweep into ``store``."""
    argv = [sys.executable, str(PASS_SCRIPT), "--workload", "paper_cold",
            "--seed", str(args.seed), "--scale", repr(args.scale),
            "--store", str(store), "--out", str(work / "fill.json")]
    wall, _, code = timed_child(argv)
    if code != 0:
        raise BenchmarkError(f"filling the store failed (exit {code})")
    return wall


def setup(args, work: Path, store: Path) -> float:
    """Fresh work directory, the import check and, for ``warm_report``,
    the store filled with every result; returns the set-up time in
    seconds."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    seconds = median(import_check() for _ in range(IMPORT_REPEATS))
    if args.workload == "warm_report":
        seconds += fill_store(args, store, work)
    print(f"{args.workload} set-up: {seconds:.3f} s", file=sys.stderr)
    return seconds


def run_passes(args, work: Path, store: Path) -> tuple[list, list]:
    """Passes until they have run for ``--seconds``, at least
    ``MIN_PASSES``; with ``--trace 1`` each untraced pass is followed by a
    traced one.  Cold workloads start every pass on an empty store."""
    cold = args.workload != "warm_report"
    passes: list[dict] = []
    traced: list[dict] = []
    while True:
        for trace in (False, True) if args.trace else (False,):
            if cold:
                shutil.rmtree(store, ignore_errors=True)
            (traced if trace else passes).append(
                run_pass(args, store, work, trace))
        if len(passes + traced) >= MIN_PASSES and sum(
                p["wall_s"] for p in passes + traced) >= args.seconds:
            return passes, traced


def count_operations(passes: list[dict], digests: Digests) -> tuple[int, int]:
    """(attempted, failed) over all passes; a crashed pass fails all the
    operations a complete pass attempts."""
    complete = [p["document"]["attempted"] for p in passes if p["document"]]
    expected = max(complete, default=1)
    attempted = failed = 0
    for measured in passes:
        document = measured["document"]
        if document is None:
            attempted += expected
            failed += expected
        else:
            attempted += document["attempted"]
            failed += digests.failures(document["digests"],
                                       document["attempted"])
    return attempted, failed


def measure(args, spec: dict) -> dict:
    work = args.workdir / args.workload
    store = work / "store"
    digests = Digests(args.workdir, args.scale, args.seed)
    if digests.committed is None:
        print(f"seed {args.seed} at scale {args.scale:g} is unverified: "
              f"{DIGEST_TABLE.name} has no table for it, so only the "
              f"agreement between passes is checked", file=sys.stderr)
    setup_s = setup(args, work, store)
    passes, traced = run_passes(args, work, store)
    attempted, failed = count_operations(passes + traced, digests)
    if args.trace:
        if any(p["document"] is None for p in traced):
            raise BenchmarkError("a traced pass crashed")
        documents = [p["document"] for p in traced]
        values = {name: median(document["layers"][name]
                               for document in documents)
                  for name in documents[0]["layers"]}
        values["cli.import_s"] = median(document["import_s"]
                                        for document in documents)
        values["trace.wall_s"] = median(p["wall_s"] for p in traced)
        # paired, so that drift of the host between passes cancels
        values["trace.overhead_s"] = median(
            on["wall_s"] - off["wall_s"] for off, on in zip(passes, traced))
        named = spec["per_layer"]
    else:
        values = {
            "wall_s": median(p["wall_s"] for p in passes),
            "cpu_s": median(p["cpu_s"] for p in passes),
            "setup_s": setup_s,
            "peak_rss_mb": median([p["document"]["peak_rss_mb"]
                                   for p in passes if p["document"]] or [0]),
            "ok_frac": (attempted - failed) / attempted,
        }
        named = spec["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in named}
    if set(values) != set(units):
        missing = sorted(set(units) - set(values))
        unnamed = sorted(set(values) - set(units))
        raise BenchmarkError(f"metrics missing {missing}, unnamed {unnamed}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": values[name], "unit": units[name]}
                        for name in units}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload scale (1.0 is the benchmark; "
                             "smaller scales are for the self-tests)")
    parser.add_argument("--workdir", type=Path,
                        default=Path(".perfbench_work"))
    args = parser.parse_args(argv)
    args.workdir = args.workdir.resolve()
    try:
        spec = json.loads(Path("BENCHMARK.json").read_text())
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchmarkError(f"unknown workload {args.workload!r}")
        if not Path("src", "repro").is_dir():
            raise BenchmarkError("no ./src/repro: run from a checkout root")
        result = measure(args, spec)
    except (BenchmarkError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
