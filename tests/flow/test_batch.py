"""Checkpoint-major detailed simulation inside the sweep.

A sweep replays each workload's checkpoints once for all of its configs
(:meth:`ExperimentPipeline.simulate_workload`).  Pinned here: the
artifacts are byte-identical to simulating each pair alone, a config
that fails fails only its own pair, faults recover without poisoning
sibling configs, and the pass is charged to ``detailed_sim``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.errors import PERMANENT, TRANSIENT, SimulationError
from repro.flow.experiment import FlowSettings
from repro.flow.scheduler import RetryPolicy
from repro.flow.sweep import SweepRunner
from repro.obs.session import OBS_DIR_NAME
from repro.pipeline import stages
from repro.pipeline.artifacts import ArtifactStore
from repro.pipeline.stages import (
    DETAILED_STAGE,
    ExperimentPipeline,
    simulate_raw_runs,
)
from repro.uarch.config import ALL_CONFIGS, LARGE_BOOM

SCALE = 0.05
WORKLOADS = ["sha"]
CONFIGS = ALL_CONFIGS


def _sweep(cache, *, faults=None, jobs=1, trace=False, **kwargs):
    runner = SweepRunner(FlowSettings(scale=SCALE, faults=faults),
                         cache_dir=cache)
    results = runner.run_all(configs=CONFIGS, workloads=WORKLOADS,
                             jobs=jobs, trace=trace, **kwargs)
    return runner, {key: result.to_dict()
                    for key, result in results.items()}


def _artifact_digests(cache) -> dict[str, str]:
    """sha256 of every stage artifact (infrastructure files excluded)."""
    out = {}
    for path in sorted(Path(cache).rglob("*.json")):
        relative = str(path.relative_to(cache))
        if relative.startswith(f"{OBS_DIR_NAME}/") or path.name in (
                "run_manifest.json", "sweep_state.json"):
            continue
        out[relative] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """Each pair simulated alone, through the pipeline: the baseline."""
    cache = tmp_path_factory.mktemp("reference")
    pipeline = ExperimentPipeline(ArtifactStore(cache),
                                  FlowSettings(scale=SCALE))
    results = {(workload, config.name):
               pipeline.result(workload, config).to_dict()
               for config in CONFIGS for workload in WORKLOADS}
    return results, _artifact_digests(cache)


def test_serial_batched_sweep_bit_identical(tmp_path, reference):
    runner, results = _sweep(tmp_path)
    assert runner.last_manifest.ok
    assert results == reference[0]
    assert _artifact_digests(tmp_path) == reference[1]


def test_parallel_batch_wave_bit_identical(tmp_path, reference):
    runner, results = _sweep(tmp_path, jobs=2)
    assert runner.last_manifest.ok
    assert results == reference[0]
    assert _artifact_digests(tmp_path) == reference[1]


def test_second_priming_is_a_no_op(tmp_path):
    runner, _ = _sweep(tmp_path)
    before = runner.store.stats()[DETAILED_STAGE].executions
    assert runner.pipeline.simulate_workload(WORKLOADS[0],
                                             list(CONFIGS)) == {}
    assert runner.store.stats()[DETAILED_STAGE].executions == before


# ----------------------------------------------------------------------
# per-config failure isolation inside the shared pass
# ----------------------------------------------------------------------

@pytest.mark.parametrize("jobs", [1, 2], ids=["serial", "parallel"])
def test_config_failure_fails_only_its_pair(tmp_path, reference, jobs):
    fingerprint = ExperimentPipeline(
        ArtifactStore(None), FlowSettings(scale=SCALE)) \
        .detailed_fingerprint(WORKLOADS[0], LARGE_BOOM)
    runner, results = _sweep(
        tmp_path, jobs=jobs,
        faults=f"stage.{DETAILED_STAGE}:fail:n=1:k={fingerprint}")
    manifest = runner.last_manifest
    (record,) = manifest.failures
    assert record.key == f"{WORKLOADS[0]}/{LARGE_BOOM.name}"
    assert record.kind == PERMANENT
    assert "injected permanent failure" in record.error
    expected = {key: value for key, value in reference[0].items()
                if key[1] != LARGE_BOOM.name}
    assert results == expected
    # every other config's artifacts are byte-identical to a clean run;
    # the failed pair left none of its three
    digests = _artifact_digests(tmp_path)
    assert digests.items() <= reference[1].items()
    missing = sorted(name.split("/")[0]
                     for name in set(reference[1]) - set(digests))
    assert missing == sorted((DETAILED_STAGE, stages.POWER_STAGE,
                              stages.RESULT_STAGE))


# With one workload and two workers the parallel sweep runs two config
# groups, [MediumBOOM, LargeBOOM] and [MegaBOOM]: the faulted pair shares
# its task with a sibling.
LARGE_KEY = f"{WORKLOADS[0]}/{LARGE_BOOM.name}"


def _without_large(reference):
    return {key: value for key, value in reference[0].items()
            if key[1] != LARGE_BOOM.name}


def test_persistent_transient_fault_fails_only_its_pair(tmp_path,
                                                        reference):
    runner, results = _sweep(
        tmp_path, jobs=2,
        faults=f"worker.experiment:io:n=0:k={LARGE_KEY}",
        policy=RetryPolicy(max_attempts=2, backoff_base=0.01))
    manifest = runner.last_manifest
    (record,) = manifest.failures
    assert (record.key, record.kind, record.attempts) == \
        (LARGE_KEY, TRANSIENT, 2)
    assert manifest.retries == {LARGE_KEY: 1}
    assert not manifest.timeouts
    assert results == _without_large(reference)


def test_hung_config_times_out_only_its_pair(tmp_path, reference):
    """The hang takes its whole group task down; the group's configs
    then run one per task, so only the hung pair times out."""
    runner, results = _sweep(
        tmp_path, jobs=2,
        faults=f"worker.experiment:hang:s=60:n=0:k={LARGE_KEY}",
        timeout=4.0)
    manifest = runner.last_manifest
    (record,) = manifest.timeouts
    assert (record.key, record.kind) == (LARGE_KEY, "timeout")
    assert not manifest.failures
    assert results == _without_large(reference)


def test_failing_config_leaves_the_pass(monkeypatch):
    """A config that raises mid-pass skips its remaining checkpoints;
    the others finish with the records they get on their own."""
    pipeline = ExperimentPipeline(ArtifactStore(None),
                                  FlowSettings(scale=SCALE))
    workload = WORKLOADS[0]
    program = pipeline.program(workload)
    checkpoints = pipeline.checkpoints(workload)
    assert len(checkpoints) >= 2
    interval = pipeline._interval(workload)
    real = stages.simulate_checkpoint
    calls = []

    def flaky(config, program, checkpoint, interval_size, trace):
        calls.append((config.name, checkpoint.interval_index))
        if config is LARGE_BOOM and checkpoint is checkpoints[0]:
            raise SimulationError("boom")
        return real(config, program, checkpoint, interval_size, trace)

    monkeypatch.setattr(stages, "simulate_checkpoint", flaky)
    runs = simulate_raw_runs(CONFIGS, program, checkpoints, interval)
    assert isinstance(runs[LARGE_BOOM.name].error, SimulationError)
    assert [index for name, index in calls if name == LARGE_BOOM.name] \
        == [checkpoints[0].interval_index]
    for config in CONFIGS:
        if config is LARGE_BOOM:
            continue
        alone = simulate_raw_runs([config], program, checkpoints,
                                  interval)[config.name]
        assert runs[config.name].unwrap() == alone.unwrap()
        assert runs[config.name].seconds > 0


# ----------------------------------------------------------------------
# recovery: write faults and corruption stay with one config
# ----------------------------------------------------------------------

def test_mid_batch_write_fault_degrades_cleanly(tmp_path, reference):
    """A transient I/O fault inside the pass's artifact writes."""
    runner, results = _sweep(
        tmp_path, faults=f"artifact.write:io:n=1:k={DETAILED_STAGE}")
    manifest = runner.last_manifest
    assert manifest.ok, manifest.format()
    assert manifest.total_retries == 1
    assert results == reference[0]
    # the fault-hit artifact may live only in the store's memory; every
    # artifact that landed on disk is byte-identical to the reference
    digests = _artifact_digests(tmp_path)
    assert digests and digests.items() <= reference[1].items()


def test_mid_batch_corruption_no_sibling_poisoning(tmp_path, reference):
    """One pass-written detailed artifact is corrupted post-write: the
    sweep completes from memory, and a fresh reader discards and
    recomputes that one config alone."""
    runner, results = _sweep(
        tmp_path, faults=f"artifact.write:corrupt:n=1:k={DETAILED_STAGE}")
    assert runner.last_manifest.ok
    assert results == reference[0]
    digests = _artifact_digests(tmp_path)
    corrupted = [name for name, digest in digests.items()
                 if reference[1].get(name) != digest]
    assert len(corrupted) == 1 and corrupted[0].startswith(DETAILED_STAGE)
    rerun = SweepRunner(FlowSettings(scale=SCALE), cache_dir=tmp_path)
    for config in CONFIGS:
        rerun.pipeline.detailed(WORKLOADS[0], config)
    assert rerun.store.stats()[DETAILED_STAGE].executions == 1
    assert _artifact_digests(tmp_path) == reference[1]


# ----------------------------------------------------------------------
# accounting
# ----------------------------------------------------------------------

def test_pass_is_charged_to_detailed_sim(tmp_path):
    """The manifest's ``detailed_sim`` seconds cover the pass: above 0
    and close to the summed ``detailed_sim.checkpoint`` spans."""
    runner, _ = _sweep(tmp_path, trace=True)
    manifest = runner.last_manifest
    detailed = manifest.stages[DETAILED_STAGE]
    assert detailed.executions == len(CONFIGS)
    trace = json.loads(Path(manifest.trace).read_text())
    begins = {}
    spans = 0.0
    for event in trace["events"]:
        key = (event.get("pid"), event.get("sid"))
        if event["type"] == "B" and event["name"] == \
                "detailed_sim.checkpoint":
            begins[key] = event["ts"]
        elif event["type"] == "E" and key in begins:
            spans += event["ts"] - begins.pop(key)
    assert spans > 0
    assert detailed.seconds > 0
    assert detailed.seconds == pytest.approx(spans, rel=0.2, abs=0.02)
