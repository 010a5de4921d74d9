"""One benchmark pass: a single workload in a fresh interpreter.

``run.py`` starts this file once per pass, the way a user starts
``repro-cli``: the pass pays for interpreter start, ``repro`` imports and
program assembly.  It writes one JSON document to ``--out`` with the
digests of everything the pass produced (checked by ``run.py``; an
operation that raised has none), the number of operations attempted, the
pass's peak RSS and, with ``--trace``, the per-layer metrics of the spans
recorded around each layer's public functions.

    python3 perfbench/passes.py --workload paper_cold --seed 17 \\
        --store .perfbench_work/store --out pass.json [--trace]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

import spans

#: report sections whose text is deterministic and digested; the
#: pipeline-cache section carries host timings and is left out
DIGESTED_SECTIONS = ("Table II", "Figs.", "Fig.", "Key takeaways")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def result_digests(results) -> dict[str, str]:
    return {f"result/{workload}/{config}": sha256(result.to_json())
            for (workload, config), result in results.items()}


def report_digests(report: str) -> dict[str, str]:
    """Digest each figure/table/takeaway section of a study report."""
    digests = {}
    for section in report.split("\n## ")[1:]:
        title, _, body = section.partition("\n")
        if title.startswith(DIGESTED_SECTIONS):
            digests[f"report/{title.split(' —')[0]}"] = sha256(body)
    return digests


def suite() -> tuple[list[str], tuple]:
    """The study's workload names and presets (imported after timing)."""
    from repro.uarch.config import ALL_CONFIGS
    from repro.workloads.suite import workload_names

    return workload_names(), ALL_CONFIGS


def paper_cold(settings, store: Path):
    """``repro-cli sweep``: every workload on every preset, serially."""
    from repro.flow import SweepRunner
    from repro.pipeline.stages import selection_to_dict

    runner = SweepRunner(settings, cache_dir=store)
    results = runner.run_all()
    names, configs = suite()

    def summarize():
        # selections are still in the store's memory after the sweep
        selections = {
            f"selection/{name}": sha256(json.dumps(selection_to_dict(
                runner.pipeline.selection(name)), sort_keys=True))
            for name in names if runner.pipeline.workload_prepared(name)}
        return ({**result_digests(results), **selections},
                len(names) * len(configs) + len(names))
    return summarize


def warm_report(settings, store: Path):
    """``repro-cli report`` over a store that holds every result."""
    from repro.flow import SweepRunner
    from repro.flow.report import generate_report

    runner = SweepRunner(settings, cache_dir=store)
    report = generate_report(runner)
    names, configs = suite()

    def summarize():
        results = {(name, config.name): runner.pipeline.peek_result(name,
                                                                    config)
                   for name in names for config in configs}
        results = {key: value for key, value in results.items()
                   if value is not None}
        return ({**result_digests(results), **report_digests(report)},
                len(names) * len(configs) + 1)
    return summarize


#: every workload is one user-visible command run through the public API
WORKLOADS = {"paper_cold": paper_cold, "warm_report": warm_report}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--store", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    started = perf_counter()
    import repro.cli  # noqa: F401  (what every CLI call imports)
    import_s = perf_counter() - started
    from repro.flow import FlowSettings

    settings = FlowSettings(scale=args.scale, seed=args.seed)
    recorder = spans.install(args.store) if args.trace \
        else spans.NullRecorder()
    with recorder.span("pass", "run"):
        summarize = WORKLOADS[args.workload](settings, args.store)
    if args.trace:
        recorder.uninstall()
    digests, attempted = summarize()
    document = {"digests": digests, "attempted": attempted,
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "import_s": import_s}
    if args.trace:
        document["layers"] = spans.layer_metrics(recorder.spans)
    args.out.write_text(json.dumps(document, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
