"""Sweeps: all workloads x all configurations, at stage granularity.

The figure/table benchmarks all consume the same full sweep.  Work is
scheduled per pipeline *stage* (see :mod:`repro.pipeline.stages`), not
per experiment: BBV profiling, SimPoint selection and checkpoint
creation are computed exactly once per workload and shared by every
configuration x predictor combination, with every stage's output cached
in a content-addressed :class:`~repro.pipeline.artifacts.ArtifactStore`.
Detailed simulation is checkpoint-major: each workload's checkpoints are
replayed once for all of its configs
(:meth:`~repro.pipeline.stages.ExperimentPipeline.simulate_workload`),
with failures isolated per (workload, config) pair.  Delete the cache
directory (or use ``repro-cli cache``) to force recomputation.

Pass ``jobs > 1`` to :meth:`SweepRunner.run_all` to fan the work out
across processes in two waves — first the per-workload stages, then the
detailed stages, one task per workload (split into config groups when
there are fewer workloads than workers; a group that fails as a whole
runs again one config per task).  Every stage is fully seeded,
so the parallel path is bit-identical to the serial one.

Execution is *supervised* (:mod:`repro.flow.scheduler`): a crashed or
OOM-killed worker re-spawns the pool and re-enqueues only the lost
tasks, transient faults (I/O errors, corrupt artifacts) retry with
capped exponential backoff, hung tasks are abandoned after a per-task
timeout, and deterministic model failures are recorded in the manifest
while the rest of the sweep completes.  Results persist incrementally,
so a killed sweep resumes from its last completed experiment
(``repro-cli sweep --resume``).  The artifact store is the record of
finished pairs; ``<cache>/sweep_state.json`` carries the sweep's status
and failures, and is written only when the sweep starts, when it
records a failure, and when it ends.

Each ``run_all`` produces a :class:`~repro.pipeline.manifest.RunManifest`
(``SweepRunner.last_manifest``) with per-stage execution counts, cache
hits/misses, wall-clock timings, and the fault record (failures,
timeouts, retries); with a disk cache it is also written to
``<cache>/run_manifest.json``.
"""

from __future__ import annotations

import dataclasses
import json
import logging
from pathlib import Path
from time import perf_counter, sleep as _sleep
from typing import TYPE_CHECKING, Callable, Iterable

from repro.errors import (
    PERMANENT,
    TRANSIENT,
    DiskSpaceError,
    SweepInterrupted,
    classify_failure,
)
from repro.flow.experiment import FlowSettings
from repro.flow.guardrails import ResourceGuard
from repro.flow.interrupt import InterruptGuard
from repro.flow.results import ExperimentResult
from repro.flow.scheduler import (
    RetryPolicy,
    ScheduleOutcome,
    SupervisedScheduler,
    Task,
)
from repro.obs.metrics import get_metrics
from repro.obs.session import TraceSession
from repro.obs.tracer import tracing_requested
from repro.pipeline.artifacts import (
    ArtifactStore,
    MODEL_VERSION,
    atomic_write_text,
)
from repro.pipeline.faults import FaultInjector
from repro.pipeline.locking import FileLock, owner_token, release_held
from repro.pipeline.manifest import RunManifest, TaskRecord
from repro.pipeline.stages import RESULT_STAGE, ExperimentPipeline
from repro.uarch.config import ALL_CONFIGS, BoomConfig
from repro.workloads.suite import workload_names

if TYPE_CHECKING:
    from repro.obs.progress import ProgressMonitor

__all__ = ["DEFAULT_CACHE_DIR", "MODEL_VERSION", "SweepRunner",
           "MANIFEST_NAME", "SWEEP_STATE_NAME"]

logger = logging.getLogger("repro.flow.sweep")

DEFAULT_CACHE_DIR = Path(".repro_cache")

MANIFEST_NAME = "run_manifest.json"
SWEEP_STATE_NAME = "sweep_state.json"


def _pair_key(workload: str, config: BoomConfig) -> str:
    return f"{workload}/{config.name}"


def _by_workload(pairs: list[tuple[str, BoomConfig]]) \
        -> dict[str, list[BoomConfig]]:
    """Pairs grouped by workload, in order of first appearance."""
    grouped: dict[str, list[BoomConfig]] = {}
    for workload, config in pairs:
        grouped.setdefault(workload, []).append(config)
    return grouped


def _unrun(pairs: list[tuple[str, BoomConfig]], kind: str,
           error: str) -> list[TaskRecord]:
    """Records for pairs the sweep will not attempt."""
    return [TaskRecord(key=_pair_key(workload, config), kind=kind,
                       error=error, attempts=0)
            for workload, config in pairs]


def _settle(runs: dict[str, Callable[[], ExperimentResult]],
            policy: RetryPolicy, errors: dict[str, Exception]) \
        -> dict[str, tuple[ExperimentResult | None, TaskRecord | None,
                           int]]:
    """Each pair's remaining stages, keyed by pair key, in rounds.

    Every unsettled pair makes one attempt per round; its error from the
    shared detailed pass (popped from ``errors``) stands as its first
    attempt.  A transient failure is retried in the next round, after
    backoff, for that pair alone (a batch of one), so the retries of
    several pairs interleave as tasks in a queue would.  Returns, per
    key, the result or the failure record, and the retries made.
    """
    settled: dict[str, tuple] = {}
    todo = list(runs)
    attempt = 0
    while todo:
        attempt += 1
        retry = []
        for key in todo:
            try:
                error = errors.pop(key, None)
                if error is not None:
                    raise error
                settled[key] = (runs[key](), None, attempt - 1)
            except SweepInterrupted:
                raise  # never a per-experiment failure record
            except Exception as exc:
                kind = classify_failure(exc)
                text = f"{type(exc).__name__}: {exc}"
                if kind == TRANSIENT and attempt < policy.max_attempts:
                    logger.warning("experiment %s attempt %d failed (%s); "
                                   "retrying", key, attempt, text)
                    retry.append(key)
                    continue
                settled[key] = (None, TaskRecord(
                    key=key, kind=kind, error=text, attempts=attempt),
                    attempt - 1)
        if retry:
            _sleep(policy.backoff(attempt))
        todo = retry
    return settled


def _pass_errors(pipeline: ExperimentPipeline, workload: str,
                 configs: list[BoomConfig]) -> dict[str, Exception]:
    """The workload's shared detailed pass; its errors by pair key."""
    errors = pipeline.simulate_workload(workload, configs)
    return {_pair_key(workload, config): errors[config.name]
            for config in configs if config.name in errors}


def _split_failed(wave: ScheduleOutcome,
                  groups: dict[str, tuple[str, list[BoomConfig]]],
                  results: dict[tuple[str, str], ExperimentResult]) \
        -> dict[str, tuple[str, list[BoomConfig]]]:
    """Rewrite a detailed wave's group-keyed records per pair.

    A group task that failed as a whole (a crash, a hang, a fault
    outside any one config's stages) cannot tell which config was at
    fault: unless the wave was aborted, its unfinished configs are
    returned as groups of one, to run again, and its record is dropped.
    Every other record is kept for each unfinished pair of its group.
    """
    rerun: dict[str, tuple[str, list[BoomConfig]]] = {}
    for records in (wave.failures, wave.timeouts):
        kept = []
        for record in records:
            if record.key not in groups:  # a pair's own record
                kept.append(record)
                continue
            workload, group = groups[record.key]
            left = [config for config in group
                    if (workload, config.name) not in results]
            if len(left) > 1 and not wave.aborted and record.kind in (
                    PERMANENT, TRANSIENT, "timeout"):
                for config in left:
                    rerun[_pair_key(workload, config)] = (workload, [config])
            else:
                kept.extend(dataclasses.replace(
                    record, key=_pair_key(workload, config))
                    for config in left)
        records[:] = kept
    retries: dict[str, int] = {}
    for key, count in wave.retries.items():
        workload, group = groups[key]
        for config in group:
            retries[_pair_key(workload, config)] = count
    wave.retries = retries
    return rerun


def _prepare_worker(task: tuple) -> tuple:
    """Process-pool worker: materialize one workload's shared stages."""
    workload, settings, root = task
    faults = FaultInjector.from_settings(settings, root)
    if faults is not None:
        faults.inject("worker.prepare", workload)
    store = ArtifactStore(root, faults=faults)
    pipeline = ExperimentPipeline(store, settings)
    pipeline.prepare_workload(workload)
    inline = None
    if root is None:
        # No shared disk: ship the live artifacts back to the parent.
        inline = (pipeline.selection(workload),
                  pipeline.checkpoints(workload))
    return store.stats_dict(), inline


def _experiment_worker(task: tuple) -> tuple:
    """Process-pool worker: one workload's detailed stages for a group of
    its configs, sharing one checkpoint-major detailed pass.

    Failures are isolated per config, as in the serial sweep: each
    config's ``worker.experiment`` fault fires next to its own stages,
    and a transient failure is retried for that config alone.  Returns,
    per config, its result or failure record and its retry count.
    """
    workload, configs, settings, root, inline, policy = task
    faults = FaultInjector.from_settings(settings, root)
    store = ArtifactStore(root, faults=faults)
    pipeline = ExperimentPipeline(store, settings)
    if inline is not None:
        selection, checkpoints = inline
        pipeline.adopt_workload(workload, selection=selection,
                                checkpoints=checkpoints)
    runs = {}
    for config in configs:
        def run(key=_pair_key(workload, config), config=config) \
                -> ExperimentResult:
            if faults is not None:
                faults.inject("worker.experiment", key)
            return pipeline.result(workload, config)

        runs[_pair_key(workload, config)] = run
    settled = _settle(runs, policy,
                      _pass_errors(pipeline, workload, list(configs)))
    outcomes = []
    for key in runs:
        result, record, retries = settled[key]
        outcomes.append((None if result is None else result.to_dict(),
                         record, retries))
    return outcomes, store.stats_dict()


class SweepRunner:
    """Runs and caches (workload, configuration) experiments."""

    def __init__(self, settings: FlowSettings | None = None,
                 cache_dir: Path | str | None = DEFAULT_CACHE_DIR) -> None:
        self.settings = settings if settings is not None else FlowSettings()
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.store = ArtifactStore(
            self.cache_dir,
            faults=FaultInjector.from_settings(self.settings,
                                               self.cache_dir))
        self.pipeline = ExperimentPipeline(self.store, self.settings)
        self.last_manifest: RunManifest | None = None
        #: obs run directory of the current/last traced run (the job
        #: server attaches its heartbeat taps here)
        self.obs_run_dir: Path | None = None
        self.resumed_completed = 0

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------

    def run(self, workload: str, config: BoomConfig) -> ExperimentResult:
        """One experiment, via the stage cache when available."""
        return self.pipeline.result(workload, config)

    def run_all(self, configs: Iterable[BoomConfig] = ALL_CONFIGS,
                workloads: list[str] | None = None,
                jobs: int = 1, *,
                policy: RetryPolicy | None = None,
                timeout: float | None = None,
                fail_fast: bool = False,
                resume: bool = False,
                trace: bool = False,
                progress: bool = False,
                deadline: float | None = None,
                max_rss_mb: float | None = None,
                min_free_mb: float | None = None) \
            -> dict[tuple[str, str], ExperimentResult]:
        """The full study: every workload on every configuration.

        ``configs`` is any iterable of :class:`BoomConfig` — the three
        paper presets by default, but equally a generated design-space
        lattice (:mod:`repro.uarch.space`).  Results, sweep state and
        the returned map are keyed by config *name*, so names must be
        unique within one sweep (generated points embed their content
        hash in the name, guaranteeing this).

        Each workload's uncached configs share one checkpoint-major
        detailed pass; a config that fails in it fails only its own
        pair.  With ``jobs > 1``, uncached work runs in a process pool
        at stage granularity: one task per workload for the shared
        stages, then one task per workload (or per config group, when
        there are fewer workloads than workers) for the detailed
        stages; a group task that fails as a whole (a crash, a hang)
        runs its unfinished configs again one per task, so only the
        culprit's pair is recorded.  Execution is supervised —
        worker crashes respawn the pool and re-enqueue only the lost
        tasks, transient faults retry with backoff (``policy``), tasks
        hung past ``timeout`` seconds are abandoned, and permanent model
        failures are recorded in the run manifest while the remaining
        experiments complete (unless ``fail_fast``).

        ``resume=True`` picks an interrupted sweep back up: completed
        experiments are served from the incrementally-persisted artifact
        store, and experiments that already failed *permanently* are
        carried forward instead of being recomputed (transient and
        fail-fast-skipped ones are re-attempted).

        ``trace=True`` (or ``REPRO_TRACE=1``) records a structured trace
        of the run — pipeline-stage spans, scheduler lifecycle events,
        artifact cache events, simulator heartbeats — under
        ``<cache>/obs/<run_id>/`` and merges it into ``trace.json`` when
        the sweep finishes (``repro-cli trace`` renders it).
        ``progress=True`` additionally tails the heartbeats live and
        prints per-workload progress to stderr.  Tracing never alters
        artifacts or fingerprints; it requires a cache directory.

        The three resource guardrails degrade a sweep gracefully
        instead of wedging or corrupting it: ``deadline`` bounds the
        whole campaign's wall clock (leftover work is recorded with
        kind ``deadline``), ``max_rss_mb`` arms a watchdog that
        terminates workers past the RSS ceiling (the task retries
        within its budget), and ``min_free_mb`` refuses to start tasks
        once free disk under the cache falls below the reserve floor
        (kind ``disk-full``).  Any recorded guardrail event leaves the
        manifest degraded, which ``repro-cli sweep`` turns into exit 3.
        """
        started = perf_counter()
        before = self.store.stats_snapshot()
        policy = policy if policy is not None else RetryPolicy()
        configs = tuple(configs)
        names = [config.name for config in configs]
        duplicates = sorted({name for name in names
                             if names.count(name) > 1})
        if duplicates:
            raise ValueError(
                f"sweep configs must have unique names, got duplicates: "
                f"{', '.join(duplicates)}")
        if workloads is None:
            workloads = workload_names()
        pairs = [(workload, config) for config in configs
                 for workload in workloads]
        sweep_id = self._sweep_id(pairs)
        outcome = ScheduleOutcome()
        self.resumed_completed = 0
        pending_pairs = self._apply_resume(pairs, sweep_id, resume, outcome)
        guard = ResourceGuard(
            self.cache_dir, min_free_mb=min_free_mb,
            max_rss_mb=max_rss_mb, deadline=deadline,
            faults=self.store.faults).start()
        session, monitor = self._start_observability(trace, progress)
        self._state = {
            "sweep_id": sweep_id,
            "total": len(pairs),
            "completed": [],
            "failures": [record.to_dict() for record in outcome.failures],
            "status": "running",
            "owner": owner_token(),
        }
        results: dict[tuple[str, str], ExperimentResult] = {}
        interrupted: SweepInterrupted | None = None
        try:
            with InterruptGuard():
                # the state file is written only once the guard is
                # live: "sweep_state.json exists" implies a signal now
                # settles cleanly instead of killing us mid-write
                self._write_state()
                if jobs > 1:
                    self._run_parallel(pending_pairs, jobs, results,
                                       outcome, policy=policy,
                                       timeout=timeout,
                                       fail_fast=fail_fast, guard=guard)
                else:
                    self._run_serial(pending_pairs, results, outcome,
                                     policy=policy, fail_fast=fail_fast,
                                     guard=guard)
        except SweepInterrupted as exc:
            interrupted = exc
        except KeyboardInterrupt:
            # guard not installed (worker thread) or a raw Ctrl-C that
            # beat the handler: settle the same way
            interrupted = SweepInterrupted("SIGINT")
        finally:
            trace_path = self._finish_observability(session, monitor)
        manifest = RunManifest.delta(
            before, self.store.stats_snapshot(),
            wall_seconds=perf_counter() - started, jobs=jobs,
            experiments=len(pairs), failures=outcome.failures,
            timeouts=outcome.timeouts, retries=outcome.retries,
            tasks=outcome.executions, trace=trace_path)
        manifest.metrics = self._metrics_snapshot(manifest, session)
        self.last_manifest = manifest
        self._state["failures"] = [record.to_dict()
                                   for record in outcome.failures]
        if interrupted is not None:
            self._state["status"] = "interrupted"
        else:
            self._state["status"] = "aborted" if outcome.aborted \
                else "complete"
        self._write_state()
        self._write_manifest(manifest)
        if interrupted is not None:
            self._settle_interrupt(interrupted)
            raise interrupted
        return results

    def _settle_interrupt(self, exc: SweepInterrupted) -> None:
        """Leave nothing for ``repro-cli recover`` to repair.

        The state file already says ``interrupted``; what remains is
        the in-flight bookkeeping: open journal intents are aborted
        (artifact writes are atomic, so nothing torn can sit at a final
        path), this process's held leases are released, and leases of
        already-terminated pool workers are reclaimed.
        """
        aborted = self.store.journal.abort_open()
        released = release_held()
        released += self.store.claims.release_dead()
        logger.warning(
            "sweep interrupted by %s: state marked interrupted, "
            "%d journal intent(s) aborted, %d lease(s) released",
            exc.signal_name, aborted, released)

    def progress(self) -> dict:
        """Snapshot of the running (or last) sweep, safe to read from
        another thread — the job server's status endpoint polls this."""
        state = getattr(self, "_state", None)
        if state is None:
            return {"status": "idle", "total": 0, "completed": 0,
                    "failures": 0}
        return {"status": state.get("status", "unknown"),
                "total": state.get("total", 0),
                "completed": len(state.get("completed", ())),
                "failures": len(state.get("failures", ()))}

    # ------------------------------------------------------------------
    # observability session plumbing
    # ------------------------------------------------------------------

    def _start_observability(self, trace: bool, progress: bool) \
            -> tuple[TraceSession | None, ProgressMonitor | None]:
        """Open the trace session (and live monitor) for this run."""
        if not (trace or progress or tracing_requested()):
            return None, None
        if self.cache_dir is None:
            logger.warning("tracing requested but the sweep has no cache "
                           "directory; trace disabled")
            return None, None
        session = TraceSession(self.cache_dir, label="sweep").start()
        self.obs_run_dir = session.run_dir
        monitor = None
        if progress:
            from repro.obs.progress import ProgressMonitor

            monitor = ProgressMonitor(session.run_dir).start()
        return session, monitor

    def _finish_observability(self, session: TraceSession | None,
                              monitor: ProgressMonitor | None) -> str:
        """Stop the monitor, merge the trace; returns the trace path."""
        if monitor is not None:
            monitor.stop()
        if session is None:
            return ""
        merged = session.finish()
        return str(merged) if merged is not None else ""

    def _metrics_snapshot(self, manifest: RunManifest,
                          session: TraceSession | None) -> dict:
        """The metrics registry, enriched with run-level aggregates."""
        registry = get_metrics()
        registry.gauge("cache.hit_rate").set(manifest.hit_rate)
        if session is not None and session.trace_path is not None:
            from repro.obs.render import worker_utilization

            try:
                trace = json.loads(session.trace_path.read_text())
                for pid, fraction in worker_utilization(trace).items():
                    registry.gauge(
                        f"worker.utilization.{pid}").set(fraction)
            except (OSError, ValueError):
                pass
        return registry.snapshot()

    # ------------------------------------------------------------------
    # serial supervised execution
    # ------------------------------------------------------------------

    def _run_serial(self, pairs: list[tuple[str, BoomConfig]],
                    results: dict[tuple[str, str], ExperimentResult],
                    outcome: ScheduleOutcome, *, policy: RetryPolicy,
                    fail_fast: bool,
                    guard: ResourceGuard | None = None) -> None:
        """One workload at a time: a shared detailed pass over its
        configs, then each pair's remaining stages.  A pair's first
        attempt carries its error from the pass; a transient failure is
        retried for that pair alone (a batch of one)."""
        grouped = _by_workload(pairs)
        pairs = [(workload, config)
                 for workload, configs in grouped.items()
                 for config in configs]
        simulated = None
        first_errors: dict[str, Exception] = {}
        for index, (workload, config) in enumerate(pairs):
            key = _pair_key(workload, config)
            if guard is not None and guard.expired():
                outcome.timeouts.extend(_unrun(
                    pairs[index:], "deadline",
                    f"abandoned: {guard.deadline:g}s sweep deadline "
                    f"exceeded"))
                return
            if guard is not None:
                try:
                    guard.preflight_disk(key)
                except DiskSpaceError as exc:
                    outcome.failures.extend(_unrun(
                        pairs[index:], "disk-full", str(exc)))
                    return
            if workload != simulated:
                simulated = workload
                first_errors = _pass_errors(self.pipeline, workload,
                                            grouped[workload])
            result, record, retries = _settle(
                {key: lambda: self.run(workload, config)}, policy,
                first_errors)[key]
            if retries:
                outcome.retries[key] = retries
            if record is None:
                results[(workload, config.name)] = result
                self._state["completed"].append(key)
                continue
            outcome.failures.append(record)
            self._record_failures(outcome)
            if fail_fast:
                outcome.aborted = True
                outcome.failures.extend(_unrun(
                    pairs[index + 1:], "skipped",
                    f"skipped: fail-fast abort after {key!r} failed"))
                return

    # ------------------------------------------------------------------
    # parallel supervised scheduling
    # ------------------------------------------------------------------

    def _run_parallel(self, pairs: list[tuple[str, BoomConfig]], jobs: int,
                      results: dict[tuple[str, str], ExperimentResult],
                      outcome: ScheduleOutcome, *, policy: RetryPolicy,
                      timeout: float | None, fail_fast: bool,
                      guard: ResourceGuard | None = None) -> None:
        pipeline = self.pipeline
        pending: list[tuple[str, BoomConfig]] = []
        for workload, config in pairs:
            cached = pipeline.peek_result(workload, config)
            if cached is not None:
                results[(workload, config.name)] = cached
                self._state["completed"].append(_pair_key(workload, config))
            else:
                pending.append((workload, config))
        if not pending:
            return

        root = str(self.cache_dir) if self.cache_dir is not None else None
        seen: set[str] = set()
        needed: list[str] = []
        for workload, _ in pending:
            if workload in seen:
                continue
            seen.add(workload)
            if not pipeline.workload_prepared(workload):
                needed.append(workload)

        scheduler = SupervisedScheduler(
            max_workers=jobs, policy=policy, timeout=timeout,
            fail_fast=fail_fast, guard=guard)

        inline: dict[str, tuple] = {}

        def adopt_prepared(task: Task, payload: tuple) -> None:
            workload = task.payload[0]
            stats, shipped = payload
            self.store.merge_stats(stats)
            if shipped is not None:
                inline[workload] = shipped
                pipeline.adopt_workload(workload, selection=shipped[0],
                                        checkpoints=shipped[1])

        prepare_wave = scheduler.run(
            [Task(key=f"prepare:{workload}", fn=_prepare_worker,
                  payload=(workload, self.settings, root))
             for workload in needed],
            on_result=adopt_prepared)
        outcome.absorb(prepare_wave)
        self._record_failures(outcome)

        # a workload whose shared stages permanently failed poisons all
        # of its experiments: record them as skipped instead of letting
        # every worker re-fail on the same deterministic error
        bad_workloads = {
            record.key.split(":", 1)[1]: record
            for record in prepare_wave.failures
            if record.key.startswith("prepare:")}
        runnable: list[tuple[str, BoomConfig]] = []
        for workload, config in pending:
            record = bad_workloads.get(workload)
            if record is None:
                runnable.append((workload, config))
            else:
                outcome.failures.append(TaskRecord(
                    key=_pair_key(workload, config), kind="skipped",
                    error=f"skipped: workload preparation failed "
                          f"({record.error})", attempts=0))
        if outcome.aborted:
            # fail-fast tripped during workload preparation: account for
            # the experiments that will now never run
            recorded = {record.key for record in outcome.failures}
            for workload, config in runnable:
                key = _pair_key(workload, config)
                if key not in recorded:
                    outcome.failures.append(TaskRecord(
                        key=key, kind="skipped",
                        error="skipped: fail-fast abort during workload "
                              "preparation", attempts=0))
            return
        if not runnable:
            return

        # Detailed waves: each workload's configs share one
        # checkpoint-major pass; a workload is split into config groups
        # only when there are fewer workloads than workers.  A group
        # that fails as a whole runs again one config per task.
        grouped = _by_workload(runnable)
        split = -(-jobs // len(grouped))
        groups: dict[str, tuple[str, list[BoomConfig]]] = {}
        for workload, configs in grouped.items():
            size = -(-len(configs) // split)
            for start in range(0, len(configs), size):
                group = configs[start:start + size]
                # the pair key when the group is one config
                key = f"{workload}/{'+'.join(c.name for c in group)}"
                groups[key] = (workload, group)

        def adopt_results(task: Task, payload: tuple) -> list[TaskRecord]:
            workload, group = groups[task.key]
            settled, stats = payload
            self.store.merge_stats(stats)
            records = []
            for config, (done, record, retries) in zip(group, settled):
                key = _pair_key(workload, config)
                if retries:
                    outcome.retries[key] = \
                        outcome.retries.get(key, 0) + retries
                if record is not None:
                    records.append(record)
                    continue
                result = ExperimentResult.from_dict(done)
                pipeline.adopt_result(workload, config, result)
                results[(workload, config.name)] = result
                self._state["completed"].append(key)
            return records

        todo = groups
        while todo:
            wave = scheduler.run(
                [Task(key=key, fn=_experiment_worker,
                      payload=(workload, tuple(group), self.settings, root,
                               inline.get(workload), policy))
                 for key, (workload, group) in todo.items()],
                on_result=adopt_results)
            todo = _split_failed(wave, groups, results)
            groups.update(todo)
            outcome.absorb(wave)
            self._record_failures(outcome)

    # ------------------------------------------------------------------
    # sweep state (incremental progress + resume)
    # ------------------------------------------------------------------

    def _sweep_id(self, pairs: list[tuple[str, BoomConfig]]) -> str:
        """Content address of this sweep's *work plan*.

        Covers every fingerprint-relevant setting and the exact pair
        set, but deliberately not the fault-injection knobs — a resumed
        run with faults disabled must still match the state its faulty
        predecessor recorded.
        """
        settings = self.settings
        return self.store.fingerprint("sweep", {
            "scale": settings.scale,
            "seed": settings.seed,
            "warmup": settings.warmup,
            "bic_threshold": settings.bic_threshold,
            "max_k": settings.max_k,
            "coverage": settings.coverage,
            "pairs": sorted(_pair_key(workload, config)
                            for workload, config in pairs),
            "model": MODEL_VERSION,
        })

    def _state_path(self) -> Path | None:
        if self.cache_dir is None:
            return None
        return self.cache_dir / SWEEP_STATE_NAME

    def _load_state(self, sweep_id: str) -> dict | None:
        path = self._state_path()
        if path is None or not path.exists():
            return None
        try:
            state = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(state, dict) or state.get("sweep_id") != sweep_id:
            return None
        return state

    def _apply_resume(self, pairs: list[tuple[str, BoomConfig]],
                      sweep_id: str, resume: bool,
                      outcome: ScheduleOutcome) \
            -> list[tuple[str, BoomConfig]]:
        """Carry a prior interrupted run's permanent failures forward.

        Completed experiments need no special handling — their results
        sit in the artifact store and resolve as cache hits — but
        known-permanent failures are deterministic and would only fail
        again, so with ``resume`` they are recorded without re-running.
        """
        if not resume:
            return pairs
        state = self._load_state(sweep_id)
        if state is None:
            logger.info("no resumable sweep state; starting fresh")
            return pairs
        store, pipeline = self.store, self.pipeline
        self.resumed_completed = sum(
            store.has(RESULT_STAGE,
                      pipeline.result_fingerprint(workload, config))
            for workload, config in pairs)
        carried = {record["key"]: record
                   for record in state.get("failures", [])
                   if record.get("kind") == PERMANENT}
        if not carried:
            return pairs
        remaining: list[tuple[str, BoomConfig]] = []
        for workload, config in pairs:
            record = carried.get(_pair_key(workload, config))
            if record is None:
                remaining.append((workload, config))
            else:
                outcome.failures.append(TaskRecord(
                    key=record["key"], kind=PERMANENT,
                    error=f"(carried from interrupted run) "
                          f"{record['error']}",
                    attempts=record.get("attempts", 1)))
        return remaining

    def _record_failures(self, outcome: ScheduleOutcome) -> None:
        """Persist failures the state file does not hold yet, so a
        permanent one is on disk (for ``--resume``) before the next pair
        starts, even if the sweep is then killed."""
        if len(outcome.failures) == len(self._state["failures"]):
            return
        self._state["failures"] = [record.to_dict()
                                   for record in outcome.failures]
        self._write_state()

    def _write_state(self) -> None:
        """Persist the sweep state with a locked read-modify-write merge.

        Concurrent sweeps over the same cache each rewrite the shared
        ``sweep_state.json``; without the lock-and-merge, whichever
        process wrote last would erase the other's ``failures`` and
        ``--resume`` would silently redo (or worse, mis-carry) work.
        Under the lock, the completions and failures of a concurrent run
        of the *same* sweep are folded into what is written; a state
        file from a different sweep is simply replaced.
        """
        path = self._state_path()
        if path is None:
            return
        state = dict(self._state)
        with FileLock(path.with_name(path.name + ".lock")):
            prior = self._load_state(state["sweep_id"])
            if prior is not None:
                state["completed"] = list(dict.fromkeys(
                    state["completed"] + prior.get("completed", [])))
                ours = {record["key"] for record in state["failures"]}
                state["failures"] = state["failures"] + [
                    record for record in prior.get("failures", [])
                    if record.get("key") not in ours]
            atomic_write_text(path, json.dumps(state, indent=2,
                                               sort_keys=True))

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def _write_manifest(self, manifest: RunManifest) -> None:
        if self.cache_dir is None:
            return
        atomic_write_text(self.cache_dir / MANIFEST_NAME,
                          json.dumps(manifest.to_dict(), indent=2,
                                     sort_keys=True))
