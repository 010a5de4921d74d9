"""Tests for architectural checkpoint capture, restore, and serialization."""

import pytest

from repro.checkpoint.checkpoint import Checkpoint
from repro.errors import CheckpointError
from repro.isa.assembler import assemble
from repro.sim.executor import Executor

PROGRAM = """
    .data
buf: .space 64
    .text
_start:
    li t0, 1000
    la t1, buf
loop:
    addi t0, t0, -1
    sd   t0, 0(t1)
    fcvt.d.l fa0, t0
    fadd.d fa1, fa1, fa0
    bnez t0, loop
    li a0, 0
    li a7, 93
    ecall
"""


def make_checkpoint(at=500):
    program = assemble(PROGRAM, name="probe")
    executor = Executor(program)
    executor.run(max_instructions=at)
    return program, Checkpoint.capture(
        executor.state, workload="probe", interval_index=3, weight=0.5,
        warmup_instructions=100)


def test_capture_records_state():
    program, checkpoint = make_checkpoint()
    assert checkpoint.instruction_index == 500
    assert checkpoint.workload == "probe"
    assert checkpoint.interval_index == 3
    assert checkpoint.weight == 0.5
    assert checkpoint.pages  # text + data pages captured


def test_restore_resumes_identically():
    program, checkpoint = make_checkpoint()
    resumed = Executor(program, state=checkpoint.restore())
    reference = Executor(assemble(PROGRAM, name="probe"))
    reference.run_to_completion()
    resumed.run(max_instructions=10**6)
    assert resumed.state.exited
    assert resumed.state.x == reference.state.x
    assert resumed.state.f == reference.state.f
    assert resumed.state.retired == reference.state.retired


def test_restore_preserves_fp_bit_patterns():
    program, checkpoint = make_checkpoint()
    state = checkpoint.restore()
    original = Executor(program)
    original.run(max_instructions=500)
    assert state.f == original.state.f


def test_restored_memory_is_independent():
    program, checkpoint = make_checkpoint()
    state_a = checkpoint.restore()
    state_b = checkpoint.restore()
    state_a.memory.store(0x100000, 0xFF, 1)
    assert state_b.memory.load(0x100000, 1) != 0xFF or \
        checkpoint.pages  # writing one restore does not affect the other
    assert state_a.memory.load(0x100000, 1) == 0xFF


def test_serialization_roundtrip():
    _, checkpoint = make_checkpoint()
    blob = checkpoint.to_bytes()
    loaded = Checkpoint.from_bytes(blob)
    assert loaded.workload == checkpoint.workload
    assert loaded.instruction_index == checkpoint.instruction_index
    assert loaded.interval_index == checkpoint.interval_index
    assert loaded.weight == checkpoint.weight
    assert loaded.warmup_instructions == checkpoint.warmup_instructions
    assert loaded.pc == checkpoint.pc
    assert loaded.xregs == checkpoint.xregs
    assert loaded.fregs_bits == checkpoint.fregs_bits
    assert loaded.pages == checkpoint.pages


def test_serialized_restore_equivalence():
    program, checkpoint = make_checkpoint()
    loaded = Checkpoint.from_bytes(checkpoint.to_bytes())
    a = Executor(program, state=checkpoint.restore())
    b = Executor(program, state=loaded.restore())
    a.run(max_instructions=200)
    b.run(max_instructions=200)
    assert a.state.x == b.state.x
    assert a.state.pc == b.state.pc


def test_bad_magic_rejected():
    _, checkpoint = make_checkpoint()
    blob = bytearray(checkpoint.to_bytes())
    blob[0] = ord("X")
    with pytest.raises(CheckpointError):
        Checkpoint.from_bytes(bytes(blob))


def test_truncated_blob_rejected():
    with pytest.raises(CheckpointError):
        Checkpoint.from_bytes(b"RV")


def test_exited_flag_round_trips():
    """A checkpoint of an exited hart restores as exited."""
    program, running = make_checkpoint()
    assert not running.exited
    assert not Checkpoint.from_bytes(running.to_bytes()).restore().exited
    executor = Executor(program)
    executor.run_to_completion()
    done = Checkpoint.capture(executor.state, workload="probe",
                              interval_index=0, weight=1.0,
                              warmup_instructions=0)
    assert done.exited
    assert done.restore().exited
    assert Checkpoint.from_bytes(done.to_bytes()).restore().exited


def test_version_1_blob_loads_as_running_hart():
    """Blobs written before the flags byte existed still load."""
    _, checkpoint = make_checkpoint()
    blob = bytearray(checkpoint.to_bytes()[:-1])  # drop the flags byte
    blob[4:6] = (1).to_bytes(2, "little")         # format version 1
    loaded = Checkpoint.from_bytes(bytes(blob))
    assert not loaded.exited
    assert loaded.pages == checkpoint.pages
    assert loaded.xregs == checkpoint.xregs
