"""SPE instruction-issue pipeline model (source of Figs 4 and 5).

The paper characterizes each SPE execution-unit *instruction group* with
three assembly-coded microbenchmark quantities:

* **latency** — cycles from pipeline entry to exit,
* **local stall** — minimum cycles between two issues to the same unit,
* **global stall** — cycles the whole processor stalls before *any*
  further instruction can issue.

The *repetition distance* plotted in Fig 5 is ``local + global`` stall; a
value of 1 means fully pipelined.  The only difference between the Cell
BE and the PowerXCell 8i is the FPD (double-precision) group: latency
13 → 9 cycles, and repetition 7 → 1 (full pipelining).  Everything the
library claims about CBE→PXC8i speedups — the 7× DP peak ratio, Sweep3D's
1.9×, the §IV-A application factors — derives from these two tables via
the :class:`SPEPipeline` issue simulator.

References for the constant values: the paper's Figs 4–5 plus the SPU
pipeline documentation cited there ([21], [22]).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

__all__ = [
    "InstructionGroup",
    "Pipe",
    "GroupTiming",
    "PipelineTable",
    "SPEPipeline",
    "Instruction",
    "build_interleaved_stream",
    "INSTRUCTION_GROUPS",
    "CELL_BE_TABLE",
    "POWERXCELL_8I_TABLE",
    "pipeline_table_for",
]


class Pipe(enum.Enum):
    """SPE dual-issue pipes: EVEN executes arithmetic, ODD does
    loads/stores, shuffles, and branches."""

    EVEN = "even"
    ODD = "odd"


class InstructionGroup(enum.Enum):
    """The nine instruction groups of the paper's microbenchmarks."""

    BR = "BR"      # branch
    FP6 = "FP6"    # 6-cycle single-precision floating point
    FP7 = "FP7"    # 7-cycle floating point (integer multiply / converts)
    FPD = "FPD"    # double-precision floating point
    FX2 = "FX2"    # 2-cycle fixed point
    FX3 = "FX3"    # word-rotate/shift class fixed point
    FXB = "FXB"    # byte operations
    LS = "LS"      # local-store load/store
    SHUF = "SHUF"  # shuffle/quadword ops


#: Stable iteration order matching the x-axis of Figs 4-5.
INSTRUCTION_GROUPS: tuple[InstructionGroup, ...] = (
    InstructionGroup.BR,
    InstructionGroup.FP6,
    InstructionGroup.FP7,
    InstructionGroup.FPD,
    InstructionGroup.FX2,
    InstructionGroup.FX3,
    InstructionGroup.FXB,
    InstructionGroup.LS,
    InstructionGroup.SHUF,
)

#: Which pipe each group issues on.
GROUP_PIPE: Mapping[InstructionGroup, Pipe] = {
    InstructionGroup.BR: Pipe.ODD,
    InstructionGroup.FP6: Pipe.EVEN,
    InstructionGroup.FP7: Pipe.EVEN,
    InstructionGroup.FPD: Pipe.EVEN,
    InstructionGroup.FX2: Pipe.EVEN,
    InstructionGroup.FX3: Pipe.EVEN,
    InstructionGroup.FXB: Pipe.EVEN,
    InstructionGroup.LS: Pipe.ODD,
    InstructionGroup.SHUF: Pipe.ODD,
}

#: SIMD flop payload of one instruction, for groups that do flops.  FPD is
#: a 2-wide DP FMA (4 flops); FP6 is a 4-wide SP FMA (8 flops).
GROUP_FLOPS: Mapping[InstructionGroup, int] = {
    InstructionGroup.FPD: 4,
    InstructionGroup.FP6: 8,
}


@dataclass(frozen=True)
class GroupTiming:
    """Microbenchmark-visible timing of one instruction group."""

    latency: int
    local_stall: int
    global_stall: int

    def __post_init__(self):
        if self.latency < 1:
            raise ValueError("latency must be >= 1 cycle")
        if self.local_stall < 1:
            raise ValueError("local stall (min issue distance) must be >= 1")
        if self.global_stall < 0:
            raise ValueError("global stall must be >= 0")

    @property
    def repetition(self) -> int:
        """Repetition distance as plotted in Fig 5 (1 = fully pipelined)."""
        return self.local_stall + self.global_stall


@dataclass(frozen=True)
class PipelineTable:
    """Per-group timings of one Cell variant's SPE."""

    name: str
    timings: Mapping[InstructionGroup, GroupTiming]

    def __post_init__(self):
        missing = set(INSTRUCTION_GROUPS) - set(self.timings)
        if missing:
            raise ValueError(f"pipeline table {self.name!r} missing groups: {missing}")

    def latency(self, group: InstructionGroup) -> int:
        return self.timings[group].latency

    def repetition(self, group: InstructionGroup) -> int:
        return self.timings[group].repetition

    def flops_per_cycle(self, group: InstructionGroup) -> float:
        """Sustained flops/cycle from back-to-back issue of ``group``."""
        flops = GROUP_FLOPS.get(group, 0)
        return flops / self.timings[group].repetition

    @property
    def dp_flops_per_cycle(self) -> float:
        """Peak sustained DP flops/cycle (back-to-back FPD FMAs)."""
        return self.flops_per_cycle(InstructionGroup.FPD)

    @property
    def sp_flops_per_cycle(self) -> float:
        """Peak sustained SP flops/cycle (back-to-back FP6 FMAs)."""
        return self.flops_per_cycle(InstructionGroup.FP6)


def _table(name: str, rows: dict[InstructionGroup, tuple[int, int, int]]) -> PipelineTable:
    return PipelineTable(
        name=name,
        timings={g: GroupTiming(*rows[g]) for g in INSTRUCTION_GROUPS},
    )


_G = InstructionGroup

#: Cell BE (PlayStation 3-era) SPE: FPD is 13-cycle latency and stalls the
#: processor 6 cycles per issue (repetition distance 7) — the source of
#: its poor 1.83 Gflop/s DP per SPE.
CELL_BE_TABLE = _table(
    "Cell BE",
    {
        _G.BR: (4, 1, 0),
        _G.FP6: (6, 1, 0),
        _G.FP7: (7, 1, 0),
        _G.FPD: (13, 1, 6),
        _G.FX2: (2, 1, 0),
        _G.FX3: (4, 1, 0),
        _G.FXB: (4, 1, 0),
        _G.LS: (6, 1, 0),
        _G.SHUF: (4, 1, 0),
    },
)

#: PowerXCell 8i SPE: identical except the redesigned, fully pipelined
#: double-precision unit — latency 13 -> 9, repetition 7 -> 1 (Figs 4-5).
POWERXCELL_8I_TABLE = _table(
    "PowerXCell 8i",
    {
        _G.BR: (4, 1, 0),
        _G.FP6: (6, 1, 0),
        _G.FP7: (7, 1, 0),
        _G.FPD: (9, 1, 0),
        _G.FX2: (2, 1, 0),
        _G.FX3: (4, 1, 0),
        _G.FXB: (4, 1, 0),
        _G.LS: (6, 1, 0),
        _G.SHUF: (4, 1, 0),
    },
)

_TABLES = {
    "Cell BE": CELL_BE_TABLE,
    "PowerXCell 8i": POWERXCELL_8I_TABLE,
}


def pipeline_table_for(variant_name: str) -> PipelineTable:
    """Look up the pipeline table for a Cell variant by name."""
    try:
        return _TABLES[variant_name]
    except KeyError:
        raise KeyError(
            f"unknown Cell variant {variant_name!r}; known: {sorted(_TABLES)}"
        ) from None


def build_interleaved_stream(
    mix: Mapping[InstructionGroup, int], repeats: int = 1
) -> list["Instruction"]:
    """An instruction stream of ``repeats`` copies of ``mix``, with
    even- and odd-pipe instructions alternated the way a hand-scheduled
    SPE loop pairs them for dual issue."""
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if not mix or all(count == 0 for count in mix.values()):
        raise ValueError("instruction mix must contain instructions")
    even: list[InstructionGroup] = []
    odd: list[InstructionGroup] = []
    for group, count in mix.items():
        if count < 0:
            raise ValueError(f"negative count for {group}")
        bucket = odd if GROUP_PIPE[group] is Pipe.ODD else even
        bucket.extend([group] * count)
    template: list[InstructionGroup] = []
    e = o = 0
    while e < len(even) or o < len(odd):
        if e < len(even):
            template.append(even[e])
            e += 1
        if o < len(odd):
            template.append(odd[o])
            o += 1
    return [Instruction(g) for _ in range(repeats) for g in template]


@dataclass(frozen=True)
class Instruction:
    """One instruction in a stream fed to :class:`SPEPipeline`.

    ``depends_on`` is the index of the producing instruction in the same
    stream (or ``None``): the consumer cannot issue until the producer's
    result is available (producer issue cycle + latency).
    """

    group: InstructionGroup
    depends_on: int | None = None


class SPEPipeline:
    """Cycle-accurate-enough in-order dual-issue scheduler for one SPE.

    The model captures exactly the three effects the paper's
    microbenchmarks measure: result latency (dependent chains), per-unit
    issue spacing (local stall), and whole-processor issue stalls (global
    stall).  It schedules an instruction stream **in order**, dual-issuing
    an even-pipe and an odd-pipe instruction in the same cycle when
    possible, and returns per-instruction issue cycles.
    """

    def __init__(self, table: PipelineTable):
        self.table = table

    def schedule(self, stream: Sequence[Instruction]) -> list[int]:
        """Return the issue cycle of each instruction in ``stream``."""
        issue_cycles: list[int] = []
        unit_free = {g: 0 for g in INSTRUCTION_GROUPS}  # next cycle unit may issue
        global_free = 0  # next cycle *anything* may issue
        pipe_busy = {Pipe.EVEN: -1, Pipe.ODD: -1}  # cycle last occupied
        for idx, instr in enumerate(stream):
            timing = self.table.timings[instr.group]
            pipe = GROUP_PIPE[instr.group]
            earliest = max(global_free, unit_free[instr.group])
            if instr.depends_on is not None:
                if not 0 <= instr.depends_on < idx:
                    raise ValueError(
                        f"instruction {idx} depends on invalid index {instr.depends_on}"
                    )
                producer = stream[instr.depends_on]
                ready = issue_cycles[instr.depends_on] + self.table.latency(producer.group)
                earliest = max(earliest, ready)
            # In-order issue: cannot issue before the previous instruction.
            if issue_cycles:
                earliest = max(earliest, issue_cycles[-1])
            # One instruction per pipe per cycle.
            cycle = earliest
            while pipe_busy[pipe] >= cycle:
                cycle += 1
            issue_cycles.append(cycle)
            pipe_busy[pipe] = cycle
            unit_free[instr.group] = cycle + timing.local_stall
            if timing.global_stall:
                global_free = max(global_free, cycle + 1 + timing.global_stall)
        return issue_cycles

    def run_cycles(self, stream: Sequence[Instruction]) -> int:
        """Total cycles until the last instruction's result is available."""
        if not stream:
            return 0
        issue = self.schedule(stream)
        return max(
            c + self.table.latency(instr.group) for c, instr in zip(issue, stream)
        )

    # -- microbenchmarks (the measurements behind Figs 4 and 5) -----------
    def measure_latency(self, group: InstructionGroup, chain: int = 64) -> float:
        """Measured result latency: issue-to-issue spacing of a dependent
        chain of ``chain`` instructions of ``group``."""
        stream = [Instruction(group)] + [
            Instruction(group, depends_on=i) for i in range(chain - 1)
        ]
        issue = self.schedule(stream)
        return (issue[-1] - issue[0]) / (chain - 1)

    def measure_repetition(self, group: InstructionGroup, count: int = 64) -> float:
        """Measured repetition distance: issue-to-issue spacing of
        ``count`` *independent* instructions of ``group``."""
        stream = [Instruction(group) for _ in range(count)]
        issue = self.schedule(stream)
        return (issue[-1] - issue[0]) / (count - 1)

    def sustained_flops_per_cycle(
        self, mix: Iterable[tuple[InstructionGroup, float]], cycles_hint: int = 4096
    ) -> float:
        """Schedule a long independent stream drawn from ``mix`` (group,
        weight) pairs round-robin and return achieved flops/cycle.

        A test oracle: no command runs it.  ``tests/test_spe_pipeline.py``
        checks that the issue simulator reaches each table's
        ``dp_flops_per_cycle`` through it, and that dual issue keeps an
        FPD/LS mix at the pure-FPD rate.
        """
        mix = list(mix)
        total_w = sum(w for _, w in mix)
        if total_w <= 0:
            raise ValueError("instruction mix weights must sum to > 0")
        stream: list[Instruction] = []
        # Deterministic interleaving proportional to weights.
        counts = {g: 0.0 for g, _ in mix}
        for _ in range(cycles_hint):
            # Largest-remainder pick keeps the stream proportional to weights.
            best, best_deficit = None, None
            for grp, w in mix:
                deficit = w / total_w * (len(stream) + 1) - counts[grp]
                if best_deficit is None or deficit > best_deficit:
                    best, best_deficit = grp, deficit
            stream.append(Instruction(best))
            counts[best] += 1
        cycles = self.run_cycles(stream)
        flops = sum(GROUP_FLOPS.get(i.group, 0) for i in stream)
        return flops / cycles if cycles else 0.0
