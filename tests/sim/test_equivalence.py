"""Optimized-vs-reference equivalence, pinned by committed goldens.

The fixtures under ``benchmarks/golden/`` were generated from the
pre-optimization tree (reference dispatch, unbatched stats), so these
tests assert that the superblock executor, the page-array memory fast
path, the decode-cached frontend, and the batched-stats core are all
*bit-identical* to the original semantics:

* retire traces — ``diff_traces`` over both dispatch modes' full streams;
* final architectural state, output, and the dynamic block stream (the
  ``control_hook`` BBV contract);
* BBV profiles;
* final ``uarch.stats`` counters and power reports per config;
* the fused cycle loop vs the generic ``_step`` loop (the readable
  reference spec), with every config replaying one shared fetch trace —
  bit-identical cycle counts and stat dictionaries, including the
  ring-queue shape, a DSE-sampled off-preset point, and a private trace
  long enough to drop its fetched entries.
"""

from __future__ import annotations

import json

import pytest

from repro.checkpoint.checkpoint import Checkpoint
from repro.goldens import (
    GOLDEN_SCALE,
    GOLDEN_SEED,
    bbv_fixture,
    core_fixture,
    functional_fixture,
    load_golden,
    retire_pcs_from_blocks,
)
from repro.sim.executor import Executor
from repro.sim.tracing import RetireTrace, diff_traces
from repro.uarch.config import ALL_CONFIGS
from repro.uarch.core import BoomCore
from repro.uarch.ftrace import CHUNK, FetchTrace
from repro.uarch.space import SpaceSpec, generate_points
from repro.workloads.suite import build_program, workload_names

WORKLOADS = workload_names()


def _program(workload: str):
    return build_program(workload, scale=GOLDEN_SCALE, seed=GOLDEN_SEED)


def _trace(program, pcs: list[int]) -> RetireTrace:
    instr_at = {instr.pc: instr for instr in program.instructions}
    trace = RetireTrace(capacity=max(1, len(pcs)))
    for pc in pcs:
        trace.record(instr_at[pc])
    return trace


@pytest.mark.parametrize("workload", WORKLOADS)
def test_functional_superblock_matches_reference(workload):
    program = _program(workload)
    ref_blocks: list[tuple[int, int]] = []
    sup_blocks: list[tuple[int, int]] = []
    reference = functional_fixture(program, dispatch="reference",
                                   blocks_out=ref_blocks)
    superblock = functional_fixture(program, dispatch="superblock",
                                    blocks_out=sup_blocks)
    assert superblock == reference
    # The retire streams (expanded from the dynamic block streams) must
    # agree instruction for instruction.
    ref_trace = _trace(program, retire_pcs_from_blocks(ref_blocks))
    sup_trace = _trace(program, retire_pcs_from_blocks(sup_blocks))
    divergence = diff_traces(ref_trace.entries(), sup_trace.entries())
    assert divergence is None
    assert ref_trace.total_recorded == reference["retired"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_functional_matches_golden(workload):
    golden = load_golden(workload)
    assert functional_fixture(_program(workload)) == golden["functional"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_bbv_profile_matches_golden(workload):
    golden = load_golden(workload)
    fixture = bbv_fixture(workload, _program(workload), GOLDEN_SCALE)
    assert fixture == golden["bbv"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_core_stats_and_power_match_golden(workload):
    golden = load_golden(workload)
    fixture = core_fixture(workload, _program(workload))
    assert fixture == golden["core"]


# ----------------------------------------------------------------------
# the fused cycle loop vs the generic _step loop
# ----------------------------------------------------------------------

_BATCH_WARMUP = 500
_BATCH_WINDOW = 2_000


def _batch_checkpoint():
    """One mid-execution checkpoint of the golden sha program."""
    program = build_program("sha", scale=GOLDEN_SCALE, seed=GOLDEN_SEED)
    executor = Executor(program)
    executor.run(max_instructions=1_500)
    checkpoint = Checkpoint.capture(
        executor.state, workload="sha", interval_index=0, weight=1.0,
        warmup_instructions=_BATCH_WARMUP)
    return program, checkpoint


def _measure(core, window=_BATCH_WINDOW) -> tuple[int, str]:
    core.run(_BATCH_WARMUP)
    stats = core.begin_measurement()
    core.run(window)
    return core.cycle, json.dumps(stats.to_dict(), sort_keys=True)


def _shared_runs(program, checkpoint, configs, *, stepped=False):
    """Every config replays ONE shared trace, as a sweep does.

    ``stepped`` routes each core through the generic ``_step`` loop: a
    retire log disables the fused loop.
    """
    trace = FetchTrace(program, checkpoint.restore())
    runs = {}
    for config in configs:
        core = BoomCore(config, program, trace=trace)
        if stepped:
            core.retire_log = []
        runs[config.name] = _measure(core)
    return runs


def test_batched_presets_bit_identical():
    """All three paper presets in one shared trace, fused vs _step."""
    program, checkpoint = _batch_checkpoint()
    fused = _shared_runs(program, checkpoint, ALL_CONFIGS)
    stepped = _shared_runs(program, checkpoint, ALL_CONFIGS, stepped=True)
    for config in ALL_CONFIGS:
        assert fused[config.name] == stepped[config.name], config.name
    # The presets genuinely diverge from each other (the shared trace
    # did not collapse them onto one back-end).
    cycles = {fused[config.name][0] for config in ALL_CONFIGS}
    assert len(cycles) == len(ALL_CONFIGS)


def test_batched_ring_queue_shape_bit_identical():
    """The ring-queue shape (generic loop only) replays identically from
    a trace shared with a fused collapsing config and from its own."""
    program, checkpoint = _batch_checkpoint()
    ring = tuple(config.with_issue_queues("ring")
                 for config in ALL_CONFIGS[:2])
    shared = _shared_runs(program, checkpoint, (ALL_CONFIGS[2],) + ring)
    for config in ring:
        own = _measure(BoomCore(config, program,
                                state=checkpoint.restore()))
        assert shared[config.name] == own, config.name


def test_batched_dse_sampled_point_bit_identical():
    """A generated off-preset design point joins the presets' trace."""
    sampled = generate_points(SpaceSpec(base="LargeBOOM", mode="random",
                                        count=1, seed=23,
                                        include_presets=False))
    assert len(sampled) == 1
    configs = ALL_CONFIGS + (sampled[0],)
    names = [config.name for config in configs]
    assert len(set(names)) == len(names)
    program, checkpoint = _batch_checkpoint()
    fused = _shared_runs(program, checkpoint, configs)
    stepped = _shared_runs(program, checkpoint, configs, stepped=True)
    assert fused == stepped


def test_private_trace_drops_fetched_entries():
    """A core of its own keeps its trace bounded on a long window, on
    both loops, and matches a shared trace that keeps every entry."""
    program = build_program("sha", scale=0.5, seed=GOLDEN_SEED)
    executor = Executor(program)
    executor.run(max_instructions=1_500)
    checkpoint = Checkpoint.capture(
        executor.state, workload="sha", interval_index=0, weight=1.0,
        warmup_instructions=_BATCH_WARMUP)
    window = 2 * CHUNK + 4_000
    config = ALL_CONFIGS[0]
    shared = _measure(BoomCore(config, program,
                               trace=FetchTrace(program,
                                                checkpoint.restore())),
                      window)
    for stepped in (False, True):
        core = BoomCore(config, program, state=checkpoint.restore())
        if stepped:
            core.retire_log = []
        assert _measure(core, window) == shared, stepped
        trace = core.frontend.trace
        assert trace.recorded >= _BATCH_WARMUP + window
        assert len(trace) <= 2 * CHUNK


def test_flight_recorder_is_observation_only():
    """A recorded run retires bit-identical state on every preset.

    The flight recorder rides the heartbeat slot; this pins that
    sampling (which flushes IQ occupancy histograms mid-run and reads
    the stats tree) never perturbs the simulation: cycle counts and the
    full stat dictionaries match an unobserved run exactly.
    """
    from repro.obs.flight import FlightRecorder

    program, checkpoint = _batch_checkpoint()
    for config in ALL_CONFIGS:
        plain = _measure(BoomCore(config, program,
                                  state=checkpoint.restore()))
        core = BoomCore(config, program, state=checkpoint.restore())
        recorder = FlightRecorder(core, workload="sha", sink=[])
        core.run(_BATCH_WARMUP, heartbeat=recorder)
        recorder.set_phase("measure")
        stats = core.begin_measurement()
        core.run(_BATCH_WINDOW, heartbeat=recorder)
        recorder.finish()
        observed = (core.cycle, json.dumps(stats.to_dict(),
                                           sort_keys=True))
        assert observed == plain, config.name
