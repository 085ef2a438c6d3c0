"""Gate-level execution harness for tinycore.

Runs a program on the gate-level simulator, collects the architectural
observation points (output-port stream, final data memory, final register
file, PC trajectory), and checks them against the ISA-level golden model.
These observation points are exactly the paper's SDC observability
surface: "for SDC, the observability points are at the program outputs".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.designs.tinycore.archsim import ArchSim, run_program
from repro.designs.tinycore.core import TinycoreNetlist, build_tinycore
from repro.errors import SimulationError
from repro.rtlsim.simulator import SimState, Simulator


@dataclass(frozen=True)
class GoldenPoint:
    """Lane 0 at the start of one cycle: its state and the outputs before it.

    Every lane that has taken no fault yet equals lane 0, so a run may
    start from here in all its lanes (``run_gate_level(start=...)``).
    """

    state: SimState
    outputs: tuple[int, ...]


@dataclass
class GateLevelRun:
    """Result of one gate-level program run (per lane)."""

    netlist: TinycoreNetlist
    sim: Simulator
    cycles: int
    outputs: dict[int, list[int]]          # lane -> output stream
    halted_lanes: set[int] = field(default_factory=set)
    points: dict[int, GoldenPoint] = field(default_factory=dict)  # by cycle

    def dmem_words(self, lane: int, count: int = 64) -> list[int]:
        mem = self.sim.mems["u_dmem"]
        return [mem.lane_word(lane, a) for a in range(count)]

    def regfile_words(self, lane: int) -> list[int]:
        mem = self.sim.mems["u_rf"]
        return [mem.lane_word(lane, r) for r in range(8)]

    def architectural_state(self, lane: int) -> tuple:
        """(outputs, regfile, dmem) — the SDC comparison surface."""
        return (
            tuple(self.outputs.get(lane, ())),
            tuple(self.regfile_words(lane)),
            tuple(self.dmem_words(lane, 256)),
        )


def run_gate_level(
    program: list[int],
    dmem_init: list[int] | None = None,
    *,
    lanes: int = 1,
    max_cycles: int = 100_000,
    netlist: TinycoreNetlist | None = None,
    sim: Simulator | None = None,
    on_cycle=None,
    start: GoldenPoint | None = None,
    record_at=(),
    until: int | None = None,
) -> GateLevelRun:
    """Run *program* to HALT on the gate-level core.

    Pass a prebuilt *netlist*/*sim* to amortize construction across runs
    (campaign passes reuse one simulator per lane width). The run
    ends when **lane 0** halts; other lanes may have diverged (that is the
    point of fault injection) and their outputs are whatever they emitted
    by then. *on_cycle(sim, cycle)* is invoked once per cycle before the
    clock edge — the fault-injection hook.

    With *start* the run begins at ``start.state.cycle`` from that point's
    state in every lane, each lane's outputs beginning with its prefix;
    so it equals a run from reset whose lanes take no fault before that
    cycle. At the start of each cycle in *record_at* the run records
    lane 0 into ``points``. With *until* it ends after the hook of that
    cycle, if lane 0 has not halted by then.
    """
    if netlist is None:
        netlist = build_tinycore(program, dmem_init)
    if sim is None:
        sim = Simulator(netlist.module, lanes=lanes)
    if start is None:
        sim.reset()
        prefix: tuple[int, ...] = ()
    else:
        sim.restore(start.state)
        prefix = start.outputs

    outputs: dict[int, list[int]] = {lane: list(prefix) for lane in range(sim.lanes)}
    halted_lanes: set[int] = set()
    points: dict[int, GoldenPoint] = {}
    cycle = sim.cycle
    while cycle < max_cycles:
        if cycle in record_at:
            points[cycle] = GoldenPoint(sim.snapshot(0), tuple(outputs[0]))
        valid_bits = sim.peek(netlist.out_valid)
        if valid_bits:
            for lane in range(sim.lanes):
                if (valid_bits >> lane) & 1:
                    outputs[lane].append(sim.peek_word(netlist.out_val, lane))
        halted_bits = sim.peek(netlist.halted)
        if halted_bits:
            for lane in range(sim.lanes):
                if (halted_bits >> lane) & 1:
                    halted_lanes.add(lane)
            if halted_bits & 1:
                break
        if on_cycle is not None:
            on_cycle(sim, cycle)
        if cycle == until:
            break
        sim.step()
        cycle += 1
    else:
        raise SimulationError(f"tinycore did not halt within {max_cycles} cycles")

    return GateLevelRun(
        netlist=netlist, sim=sim, cycles=cycle, outputs=outputs,
        halted_lanes=halted_lanes, points=points,
    )


def verify_against_archsim(
    program: list[int], dmem_init: list[int] | None = None, max_cycles: int = 100_000
) -> tuple[GateLevelRun, ArchSim]:
    """Run both models and raise on any architectural mismatch."""
    gate = run_gate_level(program, dmem_init, max_cycles=max_cycles)
    arch = run_program(program, dmem_init)
    gate_out = gate.outputs[0]
    arch_out = [v for _, v in arch.outputs]
    if gate_out != arch_out:
        raise SimulationError(
            f"output mismatch: gate={gate_out[:8]}... arch={arch_out[:8]}..."
        )
    if gate.regfile_words(0)[1:] != [v & 0xFFFF for v in arch.regs[1:]]:
        raise SimulationError(
            f"regfile mismatch: gate={gate.regfile_words(0)} arch={arch.regs}"
        )
    if gate.dmem_words(0, 256) != [v & 0xFFFF for v in arch.dmem]:
        raise SimulationError("data-memory mismatch")
    return gate, arch
