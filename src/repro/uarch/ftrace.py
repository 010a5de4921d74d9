"""Config-invariant fetch trace: the oracle instruction stream, recorded once.

The detailed core is oracle-driven: branch outcomes and effective
addresses are known at fetch time.  Those outcomes are a pure function of
the checkpointed architectural state — identical for *every* uarch config
that replays the same checkpoint.

A :class:`FetchTrace` computes them once: it steps one private functional
model and records, per dynamic instruction, the decoded template, fetch
pc, effective address, taken flag, and next pc.  Each config's
:class:`~repro.uarch.frontend.FetchUnit` then replays the stream through
its own private timing (I-cache, predictor, fetch buffer).  Replaying one
SimPoint across N configs therefore executes its semantics once, not N
times.

The trace extends lazily in chunks: configs consume it at different rates
(different fetch widths and stall patterns), and the builder only runs as
far as the hungriest consumer needs.  A *private* trace has exactly one
consumer (a core built from a bare ``state``), so it also drops the
entries that consumer has fetched and stays bounded however long the run.
"""

from __future__ import annotations

from repro.errors import ReproError, SimulationError, SweepInterrupted
from repro.isa.program import Program, TEXT_BASE
from repro.sim.state import ArchState, MASK64
from repro.uarch.decode import DecodedOp, decode_program

#: Trace-entry tuple layout: (decoded template, pc, effective address,
#: taken flag, next pc).
Entry = tuple[DecodedOp, int, int, bool, int]

#: entries recorded per extension, at least
CHUNK = 512


class FetchTrace:
    """Lazily-built oracle fetch stream for one checkpoint replay."""

    __slots__ = ("program", "entries", "start_pc", "exited", "fault",
                 "state", "recorded", "private", "_ops")

    def __init__(self, program: Program, state: ArchState,
                 private: bool = False) -> None:
        self.program = program
        self.entries: list[Entry] = []
        self.start_pc = state.pc
        self.exited = state.exited
        #: the error the functional model raised past the last entry
        self.fault: ReproError | None = None
        #: the functional model; it has executed ``recorded`` instructions
        self.state = state
        #: instructions ever recorded (dropped private entries included)
        self.recorded = 0
        self.private = private
        self._ops = decode_program(program)

    def __len__(self) -> int:
        return len(self.entries)

    def ensure(self, count: int, consumed: int = 0) -> int:
        """Extend the trace to at least ``count`` entries (or exhaustion).

        ``consumed`` is the caller's cursor.  Extends by at least a chunk
        per call so replay-side checks stay out of the hot loop.  On a
        private trace the consumed entries are dropped first; returns how
        many were dropped, so the caller can rebase its cursor.

        An instruction the functional model cannot execute (a pc outside
        the text segment, a memory fault) ends the recorded stream; its
        :class:`~repro.errors.ReproError` is raised once a caller has
        consumed every entry before it — when fetch reaches it, as in an
        unrecorded run.
        """
        entries = self.entries
        dropped = 0
        if self.private and consumed:
            del entries[:consumed]
            dropped = consumed
            count -= consumed
            consumed = 0
        if not self.exited and self.fault is None \
                and len(entries) < count:
            self._extend(max(count, len(entries) + CHUNK) - len(entries))
        if self.fault is not None and consumed >= len(entries):
            raise self.fault
        return dropped

    def _extend(self, budget: int) -> None:
        state = self.state
        ops = self._ops
        n_ops = len(ops)
        append = self.entries.append
        x = state.x
        done = 0
        try:
            while done < budget and not state.exited:
                pc = state.pc
                index = (pc - TEXT_BASE) >> 2
                if not 0 <= index < n_ops:
                    raise SimulationError(
                        f"pc left text segment: 0x{pc:x}")
                dec = ops[index]
                if dec.is_mem:
                    mem_addr = (x[dec.rs1] + dec.imm) & MASK64
                else:
                    mem_addr = 0
                next_pc = dec.fn(state, dec.instr)
                if next_pc is not None:
                    state.pc = next_pc
                    append((dec, pc, mem_addr, True, next_pc))
                else:
                    next_pc = pc + 4
                    state.pc = next_pc
                    append((dec, pc, mem_addr, False, next_pc))
                done += 1
        except SweepInterrupted:
            raise  # a signal, not the functional model's fault
        except ReproError as exc:
            self.fault = exc
        finally:
            self.recorded += done
            self.exited = state.exited
