"""Spans around each layer's public functions, for the traced pass.

:func:`install` wraps the functions ``ExperimentPipeline`` calls into
each layer -- ``build_program`` (workloads), ``compute_profile``
(profiling), ``compute_selection`` (simpoint), ``compute_checkpoints``
and checkpoint save/load (checkpoint), ``simulate_checkpoint`` (uarch),
``power_runs_from_raw`` (power), ``ArtifactStore`` fetch/peek
(pipeline), the report's table/figure/takeaway functions (analysis) and
``SweepRunner.run_all`` (flow).  Each call becomes one span (name, layer,
start, end, parent, counts), kept in memory until the pass ends.

:func:`layer_metrics` turns the spans into the per-layer metrics.  A
layer's busy time is the self time of its spans: each span's duration
minus the part its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
from pathlib import Path
from time import perf_counter

#: the presets whose detailed-simulation time is reported separately
PRESETS = ("MediumBOOM", "LargeBOOM", "MegaBOOM")

#: layers whose busy time is reported as ``<layer>.busy_s``
BUSY_LAYERS = ("workloads", "profiling", "simpoint", "checkpoint", "uarch",
               "power", "analysis", "flow")

#: counts summed from span attributes, reported as ``<layer>.<count>``
COUNTS = ("workloads.programs", "profiling.instr", "simpoint.intervals",
          "checkpoint.count", "checkpoint.instr", "uarch.instr",
          "uarch.cycles", "power.reports")

#: report functions timed as the analysis layer
ANALYSIS = ("table_ii", "component_power_series", "fig8_issue_slots",
            "fig9_component_share", "fig10_ipc", "fig11_perf_per_watt",
            "check_all")


class NullRecorder:
    """Stands in for :class:`Recorder` when tracing is off."""

    def span(self, name: str, layer: str):
        return contextlib.nullcontext()


class Recorder:
    """In-memory spans of one pass, plus the patches that feed them."""

    def __init__(self, store_root: Path) -> None:
        from repro.pipeline import ArtifactStore

        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._patches: list[tuple[object, str, object]] = []
        #: the benchmark's on-disk store, to count computes of artifacts
        #: that were already there
        self.disk = ArtifactStore(store_root)

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        record = {"id": len(self.spans), "name": name, "layer": layer,
                  "parent": self._stack[-1]["id"] if self._stack else None,
                  "start": perf_counter(), "end": None, "attrs": {}}
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            self._stack.pop()

    def in_layer(self, layer: str) -> bool:
        return bool(self._stack) and self._stack[-1]["layer"] == layer

    def patch(self, owner: object, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)


def _traced(recorder: Recorder, layer: str, fn, measure=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with recorder.span(fn.__name__, layer) as span:
            value = fn(*args, **kwargs)
            if measure is not None:
                span["attrs"].update(measure(args, value))
        return value
    return wrapper


def _artifact_bytes(path: Path | None) -> int:
    if path is None or not path.exists():
        return 0
    if path.is_file():
        return path.stat().st_size
    return sum(item.stat().st_size for item in path.rglob("*")
               if item.is_file())


def _resident(store, stage: str, fingerprint: str) -> bool:
    """Whether the store serves this artifact from memory, not disk."""
    return (stage, fingerprint) in getattr(store, "_memory", {})


def _traced_fetch(recorder: Recorder, fn, path_of: str):
    """Span one load-or-compute: a hit reads, a miss computes and writes."""
    @functools.wraps(fn)
    def wrapper(store, stage, fingerprint, compute, *args, **kwargs):
        resident = _resident(store, stage, fingerprint)
        with recorder.span(f"pipeline.{stage}", "pipeline") as span:
            attrs = span["attrs"]

            def counted():
                attrs["miss"] = True
                attrs["recompute"] = (store.root != recorder.disk.root
                                      and recorder.disk.has(stage,
                                                            fingerprint))
                return compute()

            value = fn(store, stage, fingerprint, counted, *args, **kwargs)
            attrs["bytes"] = 0 if resident else _artifact_bytes(
                getattr(store, path_of)(stage, fingerprint))
        return value
    return wrapper


def _traced_peek(recorder: Recorder, fn):
    """Span a cache probe made outside a fetch; a fetch's own probe is
    part of the fetch's span."""
    @functools.wraps(fn)
    def wrapper(store, stage, fingerprint, *args, **kwargs):
        if recorder.in_layer("pipeline"):
            return fn(store, stage, fingerprint, *args, **kwargs)
        resident = _resident(store, stage, fingerprint)
        with recorder.span(f"pipeline.{stage}", "pipeline") as span:
            value = fn(store, stage, fingerprint, *args, **kwargs)
            # an absent artifact is not a lookup, as in StageStats
            span["attrs"]["probe"] = value is None
            span["attrs"]["bytes"] = 0 if resident or value is None else \
                _artifact_bytes(store.json_path(stage, fingerprint))
        return value
    return wrapper


def install(store_root: Path) -> Recorder:
    """Wrap every layer's public functions; returns the live recorder."""
    from repro.flow import report
    from repro.flow.sweep import SweepRunner
    from repro.pipeline import ArtifactStore, stages

    recorder = Recorder(store_root)
    layers = {
        "build_program": ("workloads", lambda a, v: {"programs": 1}),
        "compute_profile": ("profiling",
                            lambda a, v: {"instr": v.total_instructions}),
        "compute_selection": ("simpoint",
                              lambda a, v: {"intervals": a[0].num_intervals}),
        "compute_checkpoints": ("checkpoint", lambda a, v: {
            "count": len(v),
            "instr": max((c.instruction_index for c in v), default=0)}),
        "save_checkpoints": ("checkpoint", None),
        "load_checkpoints": ("checkpoint", None),
        "simulate_checkpoint": ("uarch", lambda a, v: {
            "preset": a[0].name,
            "instr": v["warmup_instructions"] + v["measured_instructions"],
            "cycles": v["stats"]["cycles"]}),
        "power_runs_from_raw": ("power", lambda a, v: {"reports": len(v)}),
    }
    for name, (layer, measure) in layers.items():
        recorder.patch(stages, name, _traced(
            recorder, layer, getattr(stages, name), measure))
    for name in ANALYSIS:
        recorder.patch(report, name,
                       _traced(recorder, "analysis", getattr(report, name)))
    recorder.patch(SweepRunner, "run_all",
                   _traced(recorder, "flow", SweepRunner.run_all))
    recorder.patch(ArtifactStore, "fetch_json", _traced_fetch(
        recorder, ArtifactStore.fetch_json, "json_path"))
    recorder.patch(ArtifactStore, "fetch_dir", _traced_fetch(
        recorder, ArtifactStore.fetch_dir, "dir_path"))
    recorder.patch(ArtifactStore, "peek_json",
                   _traced_peek(recorder, ArtifactStore.peek_json))
    return recorder


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its children cover."""
    own = [span["end"] - span["start"] for span in spans]
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= span["end"] - span["start"]
    return own


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """The per-layer metrics of one traced pass (units in BENCHMARK.json)."""
    metrics = {name: 0 for name in COUNTS}
    metrics.update({f"{layer}.busy_s": 0.0 for layer in BUSY_LAYERS})
    metrics.update({f"uarch.{preset}.busy_s": 0.0 for preset in PRESETS})
    pipeline = {"write_s": 0.0, "read_s": 0.0, "bytes_written": 0,
                "bytes_read": 0, "hits": 0, "misses": 0, "recomputes": 0}
    for span, seconds in zip(spans, self_times(spans)):
        layer, attrs = span["layer"], span["attrs"]
        if layer == "pipeline":
            side = "written" if attrs.get("miss") else "read"
            pipeline["write_s" if side == "written" else "read_s"] += seconds
            pipeline[f"bytes_{side}"] += attrs["bytes"]
            if not attrs.get("probe"):
                pipeline["misses" if attrs.get("miss") else "hits"] += 1
            pipeline["recomputes"] += bool(attrs.get("recompute"))
            continue
        if layer in BUSY_LAYERS:
            metrics[f"{layer}.busy_s"] += seconds
        if layer == "uarch":
            metrics[f"uarch.{attrs['preset']}.busy_s"] += seconds
        for name, value in attrs.items():
            if f"{layer}.{name}" in metrics:
                metrics[f"{layer}.{name}"] += value
    for layer in ("profiling", "uarch"):
        seconds = metrics[f"{layer}.busy_s"]
        metrics[f"{layer}.kips"] = \
            metrics[f"{layer}.instr"] / seconds / 1000 if seconds else 0.0
    lookups = pipeline["hits"] + pipeline["misses"]
    metrics.update({
        "pipeline.write_s": pipeline["write_s"],
        "pipeline.read_s": pipeline["read_s"],
        "pipeline.bytes_written": pipeline["bytes_written"],
        "pipeline.bytes_read": pipeline["bytes_read"],
        "pipeline.hit_ratio": pipeline["hits"] / lookups if lookups else 1.0,
        "pipeline.recomputes": pipeline["recomputes"],
    })
    return metrics
