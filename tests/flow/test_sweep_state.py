"""The sweep-state contract: the artifact store records finished pairs.

``sweep_state.json`` is written when a sweep starts, when it records a
failure and when it ends, never once per finished pair: a warm sweep
served from the store only reads.  A recorded failure must reach the
file before the sweep moves on, and ``--resume`` counts what the store
already holds, so both survive a kill -9 that skips the final write.
"""

import json

import pytest

from repro.errors import PERMANENT
from repro.flow import sweep as sweep_module
from repro.flow.experiment import FlowSettings
from repro.flow.sweep import SWEEP_STATE_NAME, SweepRunner
from repro.pipeline import stages
from repro.uarch.config import ALL_CONFIGS, MEDIUM_BOOM

SCALE = 0.05
WORKLOADS = ["qsort", "sha"]


@pytest.fixture(scope="module")
def filled_store(tmp_path_factory):
    store = tmp_path_factory.mktemp("store")
    runner = SweepRunner(FlowSettings(scale=SCALE), cache_dir=store)
    runner.run_all(configs=ALL_CONFIGS, workloads=WORKLOADS)
    assert runner.last_manifest.ok
    return store


def _count_state_writes(monkeypatch) -> list:
    writes = []
    real = sweep_module.atomic_write_text

    def counting(path, text):
        if path.name == SWEEP_STATE_NAME:
            writes.append(json.loads(text))
        return real(path, text)

    monkeypatch.setattr(sweep_module, "atomic_write_text", counting)
    return writes


def _state(cache) -> dict:
    return json.loads((cache / SWEEP_STATE_NAME).read_text())


@pytest.mark.parametrize("jobs", [1, 2])
def test_warm_sweep_writes_state_at_most_twice(filled_store, monkeypatch,
                                               jobs):
    writes = _count_state_writes(monkeypatch)
    runner = SweepRunner(FlowSettings(scale=SCALE), cache_dir=filled_store)
    results = runner.run_all(configs=ALL_CONFIGS, workloads=WORKLOADS,
                             jobs=jobs)
    assert len(results) == len(ALL_CONFIGS) * len(WORKLOADS)
    assert all(stats.executions == 0
               for stats in runner.store.stats().values())
    assert len(writes) <= 2
    # the end write still lists every pair, and progress() counts them
    assert writes[-1]["status"] == "complete"
    assert len(writes[-1]["completed"]) == len(results)
    assert runner.progress()["completed"] == len(results)


def test_serial_failure_is_on_disk_before_the_next_pair(tmp_path,
                                                        monkeypatch):
    seen = {}
    real = stages.compute_profile

    def profile(workload, *args, **kwargs):
        if workload == WORKLOADS[1]:
            seen["failures"] = _state(tmp_path)["failures"]
        return real(workload, *args, **kwargs)

    monkeypatch.setattr(stages, "compute_profile", profile)
    runner = SweepRunner(
        FlowSettings(scale=SCALE, faults="stage.detailed_sim:fail:n=1"),
        cache_dir=tmp_path)
    runner.run_all(configs=(MEDIUM_BOOM,), workloads=WORKLOADS)
    (record,) = seen["failures"]
    assert record["key"] == f"{WORKLOADS[0]}/{MEDIUM_BOOM.name}"
    assert record["kind"] == PERMANENT


def test_parallel_failure_is_on_disk_before_the_sweep_ends(tmp_path,
                                                           monkeypatch):
    # _finish_observability runs after the last wave and before the end
    # write: what the file holds then is what a kill -9 would leave
    seen = {}
    real = SweepRunner._finish_observability

    def finish(self, session, monitor):
        seen["state"] = _state(tmp_path)
        return real(self, session, monitor)

    monkeypatch.setattr(SweepRunner, "_finish_observability", finish)
    runner = SweepRunner(
        FlowSettings(scale=SCALE,
                     faults=f"worker.experiment:fail:n=1:k={WORKLOADS[0]}"),
        cache_dir=tmp_path)
    runner.run_all(configs=(MEDIUM_BOOM,), workloads=WORKLOADS, jobs=2)
    assert seen["state"]["status"] == "running"
    (record,) = seen["state"]["failures"]
    assert record["key"] == f"{WORKLOADS[0]}/{MEDIUM_BOOM.name}"
    assert record["kind"] == PERMANENT

    # the after-kill shape resumes: the failure is carried, not re-run
    state = seen["state"]
    (tmp_path / SWEEP_STATE_NAME).write_text(json.dumps(state))
    resumed = SweepRunner(FlowSettings(scale=SCALE), cache_dir=tmp_path)
    results = resumed.run_all(configs=(MEDIUM_BOOM,), workloads=WORKLOADS,
                              resume=True)
    assert list(results) == [(WORKLOADS[1], MEDIUM_BOOM.name)]
    (carried,) = resumed.last_manifest.failures
    assert carried.error.startswith("(carried from interrupted run)")


def test_resume_counts_results_the_store_holds(filled_store):
    runner = SweepRunner(FlowSettings(scale=SCALE), cache_dir=filled_store)
    runner.run_all(configs=ALL_CONFIGS, workloads=WORKLOADS)
    # what a sweep killed before its end write leaves: the start write
    state = _state(filled_store)
    state.update(completed=[], status="running")
    (filled_store / SWEEP_STATE_NAME).write_text(json.dumps(state))

    resumed = SweepRunner(FlowSettings(scale=SCALE), cache_dir=filled_store)
    resumed.run_all(configs=ALL_CONFIGS, workloads=WORKLOADS, resume=True)
    assert resumed.resumed_completed == len(ALL_CONFIGS) * len(WORKLOADS)
