"""Architectural (ISA-level) simulator for tinycore.

Three jobs:

1. **Golden model** — executes programs at ISA level; the gate-level core
   is verified against it instruction by instruction.
2. **Trace extraction** — converts a program run into the abstract dynamic
   trace format of :mod:`repro.perfmodel`, so the standard ACE machinery
   (dead-code marking, lifetime analysis) applies to tinycore workloads.
3. **Structure port AVFs** — replays the ACE-marked trace against
   tinycore's three ACE structures (register file, data memory,
   instruction ROM) and produces the :class:`StructurePorts` SART needs.
   This is tinycore's "performance model + ACE model" in the paper's
   flow, at the fidelity tinycore warrants.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ace.lifetime import StructureLifetime
from repro.ace.portavf import ports_from_analysis
from repro.core.graphmodel import StructurePorts
from repro.designs.tinycore.isa import DMEM_DEPTH, Decoded, IMEM_DEPTH, NREGS, decode
from repro.errors import SimulationError
from repro.perfmodel.isa import Inst
from repro.perfmodel.trace import Trace, mark_ace

MASK16 = 0xFFFF


@dataclass
class ArchSim:
    """ISA-level tinycore: 8 regs (r0 = 0), 256-word data memory."""

    program: list[int]
    dmem_init: list[int] | None = None
    regs: list[int] = field(default_factory=lambda: [0] * NREGS)
    dmem: list[int] = field(default_factory=lambda: [0] * DMEM_DEPTH)
    pc: int = 0
    halted: bool = False
    steps: int = 0
    outputs: list[tuple[int, int]] = field(default_factory=list)
    executed: list[tuple[int, Decoded, int | None, bool | None]] = field(default_factory=list)
    # executed: (pc, decoded, effective address, branch taken)

    def __post_init__(self) -> None:
        if len(self.program) > IMEM_DEPTH:
            raise SimulationError("program exceeds instruction memory")
        if self.dmem_init:
            for i, word in enumerate(self.dmem_init[:DMEM_DEPTH]):
                self.dmem[i] = word & MASK16

    # ------------------------------------------------------------------
    def step(self) -> None:
        """Execute one instruction."""
        if self.halted:
            return
        if not 0 <= self.pc < len(self.program):
            raise SimulationError(f"PC out of program: {self.pc}")
        d = decode(self.program[self.pc])
        next_pc = self.pc + 1
        addr: int | None = None
        taken: bool | None = None
        rs, rt = self.regs[d.rs], self.regs[d.rt]

        if d.op == "ADD":
            self._write(d.rd, rs + rt)
        elif d.op == "SUB":
            self._write(d.rd, rs - rt)
        elif d.op == "AND":
            self._write(d.rd, rs & rt)
        elif d.op == "OR":
            self._write(d.rd, rs | rt)
        elif d.op == "XOR":
            self._write(d.rd, rs ^ rt)
        elif d.op == "SHIFT":
            if d.rt == 0:
                self._write(d.rd, rs << 1)
            elif d.rt == 1:
                self._write(d.rd, rs >> 1)
            else:
                self._write(d.rd, (rs << 1) | (rs >> 15))
        elif d.op == "ADDI":
            self._write(d.rd, rs + d.imm)
        elif d.op == "LDI":
            self._write(d.rd, d.imm)
        elif d.op == "LD":
            addr = (rs + d.imm) % DMEM_DEPTH
            self._write(d.rd, self.dmem[addr])
        elif d.op == "ST":
            addr = (rs + d.imm) % DMEM_DEPTH
            self.dmem[addr] = self.regs[d.rt]
        elif d.op in ("BEQ", "BNE"):
            taken = (rs == rt) if d.op == "BEQ" else (rs != rt)
            if taken:
                next_pc = self.pc + 1 + d.imm
        elif d.op == "JMP":
            taken = True
            next_pc = d.imm
        elif d.op == "OUT":
            self.outputs.append((self.steps, rs))
        elif d.op == "HALT":
            self.halted = True
        # NOP: nothing

        self.executed.append((self.pc, d, addr, taken))
        self.pc = next_pc
        self.steps += 1

    def _write(self, rd: int, value: int) -> None:
        if rd != 0:
            self.regs[rd] = value & MASK16

    def run(self, max_steps: int = 200_000) -> list[tuple[int, int]]:
        """Run to HALT (or the step budget); returns the output log."""
        while not self.halted:
            if self.steps >= max_steps:
                raise SimulationError(f"no HALT within {max_steps} steps")
            self.step()
        return self.outputs


def run_program(program: list[int], dmem_init: list[int] | None = None,
                max_steps: int = 200_000) -> ArchSim:
    """Convenience: build, run, return the finished simulator."""
    sim = ArchSim(program=program, dmem_init=dmem_init)
    sim.run(max_steps)
    return sim


# ----------------------------------------------------------------------
# trace extraction for the ACE machinery
# ----------------------------------------------------------------------
_OP_CLASS = {
    "ADD": "alu", "SUB": "alu", "AND": "alu", "OR": "alu", "XOR": "alu",
    "SHIFT": "alu", "ADDI": "alu", "LDI": "alu",
    "LD": "load", "ST": "store",
    "BEQ": "branch", "BNE": "branch", "JMP": "branch",
    "OUT": "output", "HALT": "output", "NOP": "nop",
}


def trace_from_program(
    name: str, program: list[int], dmem_init: list[int] | None = None,
    max_steps: int = 200_000,
) -> tuple[Trace, ArchSim]:
    """Execute and convert to an ACE-marked abstract trace.

    Register 0 is hardwired zero, so it never appears as a dependence.
    """
    sim = run_program(program, dmem_init, max_steps)
    trace = Trace(name=name)
    for seq, (pc, d, addr, taken) in enumerate(sim.executed):
        srcs = tuple(r for r in d.reads() if r != 0)
        inst = Inst(
            seq=seq,
            op=_OP_CLASS[d.op],
            dst=d.rd if d.writes_reg() else None,
            srcs=srcs,
            addr=addr,
            taken=taken if _OP_CLASS[d.op] == "branch" else None,
            imm=d.op in ("ADDI", "LDI"),
        )
        trace.insts.append(inst)
    trace.validate()
    mark_ace(trace)
    return trace, sim


def tinycore_structure_ports(
    name: str,
    program: list[int],
    dmem_init: list[int] | None = None,
    *,
    gate_cycles: int | None = None,
    max_steps: int = 200_000,
) -> tuple[dict[str, StructurePorts], Trace, ArchSim]:
    """ACE-analyze a tinycore workload; returns SART-ready port AVFs.

    *gate_cycles* normalizes event rates to gate-level cycles (the real
    clock the sequential AVFs are defined against); when None, a CPI
    estimate of 1.5 is applied to the architectural step count.

    Structures: ``rf`` (8x16, 2R1W), ``dmem`` (256x16), ``irom``
    (read-only: pAVF_W = 0, pAVF_R = rate of ACE fetches).
    """
    trace, sim = trace_from_program(name, program, dmem_init, max_steps)
    cycles = gate_cycles if gate_cycles is not None else int(sim.steps * 1.5) + 1

    rf = StructureLifetime("rf", NREGS, 16, nread=2, nwrite=1)
    dmem = StructureLifetime("dmem", DMEM_DEPTH, 16, nread=1, nwrite=1)

    reg_written = [False] * NREGS
    mem_written = [False] * DMEM_DEPTH
    for seq, ((pc, d, addr, taken), inst) in enumerate(zip(sim.executed, trace.insts)):
        ace = bool(inst.ace)
        cyc = _scale(seq, sim.steps, cycles)
        for reg in inst.srcs:
            if reg_written[reg]:
                rf.read(reg, cyc, ace)
        if inst.dst is not None:
            if reg_written[inst.dst]:
                rf.release(inst.dst, cyc, consumed=True)
            rf.write(inst.dst, cyc, ace)
            reg_written[inst.dst] = True
        if inst.op == "load" and addr is not None:
            if mem_written[addr]:
                dmem.read(addr, cyc, ace)
        elif inst.op == "store" and addr is not None:
            if mem_written[addr]:
                dmem.release(addr, cyc, consumed=True)
            dmem.write(addr, cyc, ace)
            mem_written[addr] = True
    structures = {s.stats.name: s.finish(cycles) for s in (rf, dmem)}
    ports = ports_from_analysis(structures)

    # Instruction ROM: read-only structure. pAVF_R = ACE fetch rate; its
    # own AVF approximated by the fraction of words fetched as ACE.
    ace_fetches = sum(1 for i in trace.insts if i.ace)
    ace_pcs = {pc for (pc, d, a, t), i in zip(sim.executed, trace.insts) if i.ace}
    ports["irom"] = StructurePorts(
        name="irom",
        pavf_r=min(1.0, ace_fetches / cycles),
        pavf_w=0.0,
        avf=len(ace_pcs) / IMEM_DEPTH,
    )
    return ports, trace, sim


def _scale(step: int, steps: int, cycles: int) -> int:
    if steps <= 0:
        return 0
    return min(cycles - 1, step * cycles // steps)
