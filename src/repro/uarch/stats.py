"""Per-component activity statistics — the model's "signal trace".

In the paper's flow, Verilator emits a cycle-by-cycle trace whose per-net
toggle rates drive Cadence Joules.  In this reproduction the cycle model
increments event counters per hardware structure; the power model converts
them to switching/internal energy exactly as Joules converts toggle rates
(DESIGN.md §1).

Counters are grouped per analyzed component (the 13 of §IV-B).  Stats are
collected only while ``measuring`` is enabled, so SimPoint warm-up is
excluded — matching the paper's methodology.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field


@dataclass
class FrontendStats:
    icache_accesses: int = 0
    icache_misses: int = 0
    fetch_buffer_writes: int = 0
    fetch_buffer_reads: int = 0
    fetch_buffer_occupancy: int = 0   # summed per cycle
    fetch_stall_cycles: int = 0


@dataclass
class PredictorStats:
    lookups: int = 0                  # one per active fetch cycle
    btb_lookups: int = 0
    btb_updates: int = 0
    btb_misses: int = 0
    dir_table_reads: int = 0          # per-table reads (TAGE: tables+base)
    dir_updates: int = 0
    allocations: int = 0              # TAGE entry allocations
    mispredicts: int = 0
    ras_pushes: int = 0
    ras_pops: int = 0


@dataclass
class RenameStats:
    map_reads: int = 0
    map_writes: int = 0
    freelist_allocs: int = 0
    freelist_frees: int = 0
    snapshots: int = 0                # allocation-list copies (per branch!)
    snapshot_restores: int = 0
    stall_cycles: int = 0             # no free physical registers


@dataclass
class RobStats:
    dispatch_writes: int = 0
    commit_reads: int = 0
    occupancy: int = 0                # summed per cycle
    flushes: int = 0
    full_stall_cycles: int = 0


@dataclass
class IssueQueueStats:
    entries: int = 0                  # configured size (for per-slot arrays)
    writes: int = 0                   # dispatches into the queue
    issues: int = 0
    shifts: int = 0                   # collapsing-queue entry movements
    wakeup_broadcasts: int = 0        # completions broadcast to the queue
    occupancy: int = 0                # summed per cycle
    full_stall_cycles: int = 0
    slot_occupancy: list[int] = field(default_factory=list)
    slot_writes: list[int] = field(default_factory=list)

    def ensure_slots(self, entries: int) -> None:
        if not self.slot_occupancy:
            self.entries = entries
            self.slot_occupancy = [0] * entries
            self.slot_writes = [0] * entries


@dataclass
class RegfileStats:
    reads: int = 0
    writes: int = 0
    bypasses: int = 0                 # operands caught on the bypass network


@dataclass
class LsuStats:
    ldq_writes: int = 0
    stq_writes: int = 0
    ldq_occupancy: int = 0
    stq_occupancy: int = 0
    cam_searches: int = 0             # STQ address CAM compares
    forwards: int = 0                 # store-to-load forwards


@dataclass
class CacheStats:
    reads: int = 0
    writes: int = 0
    misses: int = 0
    mshr_allocs: int = 0
    mshr_occupancy: int = 0           # summed per cycle
    mshr_full_stalls: int = 0
    writebacks: int = 0


@dataclass
class ExecuteStats:
    alu_ops: int = 0
    mul_ops: int = 0
    div_ops: int = 0
    div_busy_cycles: int = 0
    fp_alu_ops: int = 0
    fp_mul_ops: int = 0
    fp_div_ops: int = 0
    fp_cvt_ops: int = 0
    branch_ops: int = 0
    agu_ops: int = 0


@dataclass
class AccountingStats:
    """Commit/retire attribution counters (R10K-style ipc report inputs).

    Occupancies are sampled at each retire, *after* the retiring uop has
    left the structure, so the fused and generic cycle loops (which
    interleave bookkeeping differently) observe identical values.  ``dispatch_by_trace``
    keys dispatch counts by the static basic-block leader pc of each uop
    (``DecodedOp.trace_key``), attributing pipeline work to hot traces.
    """

    retires_sampled: int = 0
    rob_occupancy_at_retire: int = 0
    iq_occupancy_at_retire: int = 0
    lsu_occupancy_at_retire: int = 0
    dispatch_by_trace: dict[str, int] = field(default_factory=dict)


@dataclass
class CoreStats:
    """The complete measured activity of one simulation window."""

    cycles: int = 0
    retired: int = 0
    retired_by_class: dict[str, int] = field(default_factory=dict)
    frontend: FrontendStats = field(default_factory=FrontendStats)
    predictor: PredictorStats = field(default_factory=PredictorStats)
    int_rename: RenameStats = field(default_factory=RenameStats)
    fp_rename: RenameStats = field(default_factory=RenameStats)
    rob: RobStats = field(default_factory=RobStats)
    int_iq: IssueQueueStats = field(default_factory=IssueQueueStats)
    mem_iq: IssueQueueStats = field(default_factory=IssueQueueStats)
    fp_iq: IssueQueueStats = field(default_factory=IssueQueueStats)
    int_regfile: RegfileStats = field(default_factory=RegfileStats)
    fp_regfile: RegfileStats = field(default_factory=RegfileStats)
    lsu: LsuStats = field(default_factory=LsuStats)
    icache: CacheStats = field(default_factory=CacheStats)
    dcache: CacheStats = field(default_factory=CacheStats)
    execute: ExecuteStats = field(default_factory=ExecuteStats)
    accounting: AccountingStats = field(default_factory=AccountingStats)

    @property
    def ipc(self) -> float:
        """Instructions per cycle over the measured window."""
        return self.retired / self.cycles if self.cycles else 0.0

    def count_retired(self, opclass_name: str) -> None:
        self.retired += 1
        by_class = self.retired_by_class
        by_class[opclass_name] = by_class.get(opclass_name, 0) + 1

    def issue_queue(self, name: str) -> IssueQueueStats:
        return {"int": self.int_iq, "mem": self.mem_iq,
                "fp": self.fp_iq}[name]

    # ------------------------------------------------------------------
    # serialization: the "signal trace" artifact of the staged pipeline
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-safe) of the complete counter tree."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "CoreStats":
        """Rebuild a stats tree serialized by :meth:`to_dict`."""
        return cls(
            cycles=data["cycles"],
            retired=data["retired"],
            retired_by_class=dict(data["retired_by_class"]),
            frontend=FrontendStats(**data["frontend"]),
            predictor=PredictorStats(**data["predictor"]),
            int_rename=RenameStats(**data["int_rename"]),
            fp_rename=RenameStats(**data["fp_rename"]),
            rob=RobStats(**data["rob"]),
            int_iq=IssueQueueStats(**data["int_iq"]),
            mem_iq=IssueQueueStats(**data["mem_iq"]),
            fp_iq=IssueQueueStats(**data["fp_iq"]),
            int_regfile=RegfileStats(**data["int_regfile"]),
            fp_regfile=RegfileStats(**data["fp_regfile"]),
            lsu=LsuStats(**data["lsu"]),
            icache=CacheStats(**data["icache"]),
            dcache=CacheStats(**data["dcache"]),
            execute=ExecuteStats(**data["execute"]),
            accounting=(AccountingStats(**data["accounting"])
                        if "accounting" in data else AccountingStats()))
