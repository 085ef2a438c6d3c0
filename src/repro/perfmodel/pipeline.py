"""Trace-driven out-of-order pipeline.

A deliberately compact but behaviourally meaningful OoO model: fetch into
a fetch buffer, in-order rename/dispatch into instruction queue + reorder
buffer (+ load queue / store buffer), out-of-order issue of ready
instructions, fixed execution latencies with a deterministic cache model
for loads, and in-order commit. Every structure interaction emits an ACE
event, which is the entire reason this model exists: occupancy and event
rates vary with workload character, producing the per-structure port-AVF
diversity the paper's methodology consumes.

Branch mispredictions are modelled as front-end bubbles during which,
optionally, *wrong-path* placeholder instructions are fetched into the
front-end structures (un-ACE by definition — "un-necessary for
architecturally correct execution") and squashed unconsumed when the
bubble ends. This reproduces the un-ACE structure traffic that wrong-path
execution contributes in a real ACE model without needing alternate-path
trace content.

Issue is event driven. Dispatch appends each instruction to a wait list
of dispatched but unissued instructions, which is therefore in program
order, and gives it a count of its producers that have not completed;
it also registers the instruction with each of those producers. When a
producer completes, execute decrements the count of every instruction
registered with it. Each cycle, issue takes the oldest instructions on
the wait list whose count is zero, up to the issue width, so no cycle
re-tests the producers of every waiting instruction. Dispatch also
resolves each source register to the physical register issue will read,
its producer's. That register stays mapped until a younger writer of the
same architectural register commits, which cannot happen before the
reader issues.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.ace.bitfield import IQ_FIELDS, ROB_FIELDS, ace_bits_for, total_bits
from repro.errors import TraceError
from repro.perfmodel.isa import (
    DEFAULT_LATENCY,
    Inst,
    OP_LOAD,
    OP_STORE,
)
from repro.perfmodel.structures import SimStructure
from repro.perfmodel.trace import Trace


@dataclass
class PipelineConfig:
    """Microarchitectural parameters."""

    fetch_width: int = 4
    dispatch_width: int = 4
    issue_width: int = 4
    commit_width: int = 4
    fetch_buffer_entries: int = 16
    iq_entries: int = 32
    rob_entries: int = 64
    phys_regs: int = 96
    lq_entries: int = 16
    sb_entries: int = 16
    arch_regs: int = 32
    # Deterministic cache model: a load misses when hash(addr) falls in
    # the miss window; miss adds miss_latency cycles.
    miss_rate: float = 0.10
    miss_latency: int = 20
    mispredict_penalty: int = 8
    # Fetch un-ACE wrong-path placeholders into the fetch buffer during
    # mispredict bubbles (squashed, never dispatched).
    model_wrong_path: bool = True
    fetch_entry_bits: int = 32
    reg_bits: int = 64
    lq_bits: int = 48
    sb_bits: int = 80
    use_bitfields: bool = True
    max_cycles: int = 2_000_000


@dataclass(eq=False, slots=True)
class _InFlight:
    """One instruction from dispatch to commit."""

    inst: Inst
    ace: bool
    rob_entry: int
    iq_entry: int | None = None  # None once issued
    lq_entry: int | None = None
    sb_entry: int | None = None
    phys: int | None = None
    src_phys: tuple[int, ...] = ()  # physical registers read at issue
    pending: int = 0  # producers that have not completed
    waiters: list[_InFlight] = field(default_factory=list)  # consumers
    done: bool = False
    remaining: int = 0


@dataclass
class PipelineStats:
    cycles: int = 0
    committed: int = 0
    fetch_stall_cycles: int = 0
    dispatch_stall_cycles: int = 0
    mispredict_bubbles: int = 0
    wrong_path_fetched: int = 0

    @property
    def ipc(self) -> float:
        return self.committed / self.cycles if self.cycles else 0.0


class Pipeline:
    """One pipeline instance bound to a trace; each of its structures
    carries its own ACE lifetime analysis."""

    def __init__(self, trace: Trace, config: PipelineConfig):
        if any(inst.ace is None for inst in trace.insts):
            raise TraceError("trace must be ACE-marked (run mark_ace first)")
        self.trace = trace
        self.config = config
        c = config
        self.fetch_buffer = SimStructure(
            "fetch_buffer", c.fetch_buffer_entries, c.fetch_entry_bits,
            nread=c.dispatch_width, nwrite=c.fetch_width,
        )
        self.iq = SimStructure(
            "inst_queue", c.iq_entries, total_bits(IQ_FIELDS),
            nread=c.issue_width, nwrite=c.dispatch_width,
        )
        self.rob = SimStructure(
            "rob", c.rob_entries, total_bits(ROB_FIELDS),
            nread=c.commit_width, nwrite=c.dispatch_width,
        )
        self.regfile = SimStructure(
            "regfile", c.phys_regs, c.reg_bits,
            nread=2 * c.issue_width, nwrite=c.issue_width,
        )
        self.lq = SimStructure(
            "load_queue", c.lq_entries, c.lq_bits,
            nread=c.issue_width, nwrite=c.dispatch_width,
        )
        self.sb = SimStructure(
            "store_buffer", c.sb_entries, c.sb_bits,
            nread=c.commit_width, nwrite=c.issue_width,
        )
        self.structures = [
            self.fetch_buffer, self.iq, self.rob, self.regfile, self.lq, self.sb
        ]
        self.stats = PipelineStats()

        self._fetch_index = 0
        self._fetch_bubble = 0
        self._wrong_path_entries: list[int] = []
        self._fetched: deque[tuple[Inst, int]] = deque()  # (inst, fb entry)
        self._rob_order: deque[_InFlight] = deque()
        self._waiting: list[_InFlight] = []  # dispatched, unissued; program order
        self._executing: list[_InFlight] = []
        # (op, dst is None, imm, ace) -> (IQ, ROB) ACE bits: all the field
        # predicates read
        self._field_bits: dict[tuple, tuple[int, int]] = {}
        # rename state
        self._arch_map: dict[int, _InFlight] = {}  # arch reg -> latest writer
        self._arch_phys: dict[int, int] = {}  # arch reg -> committed phys entry
        self._phys_reads: dict[int, int] = {}  # phys entry -> read count

    # ------------------------------------------------------------------
    def _is_miss(self, addr: int) -> bool:
        if self.config.miss_rate <= 0:
            return False
        return (addr * 2654435761 % 997) < self.config.miss_rate * 997

    def _latency(self, inst: Inst) -> int:
        latency = DEFAULT_LATENCY[inst.op]
        if inst.op == OP_LOAD and self._is_miss(inst.addr or 0):
            latency += self.config.miss_latency
        return latency

    # ------------------------------------------------------------------
    def run(self) -> PipelineStats:
        """Simulate until the whole trace commits."""
        cycle = 0
        total = len(self.trace.insts)
        while self.stats.committed < total:
            if cycle >= self.config.max_cycles:
                raise TraceError(
                    f"{self.trace.name}: exceeded max_cycles={self.config.max_cycles}"
                )
            self._commit(cycle)
            self._execute(cycle)
            self._issue(cycle)
            self._dispatch(cycle)
            self._fetch(cycle)
            for structure in self.structures:
                structure.sample_occupancy()
            cycle += 1
        self.stats.cycles = cycle
        return self.stats

    # ------------------------------------------------------------------
    def _fetch(self, cycle: int) -> None:
        if self._fetch_bubble > 0:
            self._fetch_bubble -= 1
            self.stats.mispredict_bubbles += 1
            if self.config.model_wrong_path and not self.fetch_buffer.is_full():
                # Wrong-path fetch: occupies a real entry, carries no ACE
                # bits, and is squashed when the bubble drains.
                entry = self.fetch_buffer.alloc(cycle, ace=False)
                if entry is not None:
                    self._wrong_path_entries.append(entry)
                    self.stats.wrong_path_fetched += 1
            if self._fetch_bubble == 0:
                for entry in self._wrong_path_entries:
                    self.fetch_buffer.release(entry, cycle, consumed=False)
                self._wrong_path_entries.clear()
            return
        for _ in range(self.config.fetch_width):
            if self._fetch_index >= len(self.trace.insts):
                return
            if self.fetch_buffer.is_full():
                self.stats.fetch_stall_cycles += 1
                return
            inst = self.trace.insts[self._fetch_index]
            entry = self.fetch_buffer.alloc(cycle, ace=bool(inst.ace))
            self._fetched.append((inst, entry))
            self._fetch_index += 1
            if inst.mispredicted:
                self._fetch_bubble = self.config.mispredict_penalty
                return

    def _dispatch(self, cycle: int) -> None:
        c = self.config
        for _ in range(c.dispatch_width):
            if not self._fetched:
                return
            inst, fb_entry = self._fetched[0]
            writes = inst.writes_register()
            if self.rob.is_full() or self.iq.is_full():
                self.stats.dispatch_stall_cycles += 1
                return
            if inst.op == OP_LOAD and self.lq.is_full():
                self.stats.dispatch_stall_cycles += 1
                return
            if inst.op == OP_STORE and self.sb.is_full():
                self.stats.dispatch_stall_cycles += 1
                return
            if writes and self.regfile.is_full():
                self.stats.dispatch_stall_cycles += 1
                return
            self._fetched.popleft()
            ace = bool(inst.ace)
            self.fetch_buffer.read(fb_entry, cycle, ace)
            self.fetch_buffer.release(fb_entry, cycle, consumed=True)

            if c.use_bitfields:
                key = (inst.op, inst.dst is None, inst.imm, ace)
                bits = self._field_bits.get(key)
                if bits is None:
                    bits = self._field_bits[key] = (
                        ace_bits_for(IQ_FIELDS, inst), ace_bits_for(ROB_FIELDS, inst)
                    )
                iq_bits, rob_bits = bits
            else:
                iq_bits = rob_bits = None
            rob_entry = self.rob.alloc(cycle, ace, ace_bits=rob_bits)
            iq_entry = self.iq.alloc(cycle, ace, ace_bits=iq_bits)
            flight = _InFlight(inst=inst, ace=ace, rob_entry=rob_entry, iq_entry=iq_entry)
            src_phys = []
            for reg in inst.srcs:
                producer = self._arch_map.get(reg)
                if producer is None:
                    continue
                src_phys.append(producer.phys)
                if not producer.done:
                    producer.waiters.append(flight)
                    flight.pending += 1
            flight.src_phys = tuple(src_phys)
            if inst.op == OP_LOAD:
                flight.lq_entry = self.lq.alloc(cycle, ace)
            if inst.op == OP_STORE:
                # Store-buffer entries allocate at dispatch, in program
                # order — allocating at issue lets younger stores starve
                # the ROB head and deadlock the machine (in-order commit
                # cannot drain them). Address/data are recorded at
                # execute, when they exist.
                flight.sb_entry = self.sb.alloc(cycle, ace, record=False)
            if writes:
                # Rename: allocate the phys reg now, silently — the write
                # event is recorded at writeback, when the value arrives.
                flight.phys = self.regfile.alloc(cycle, ace=False, record=False)
                self._phys_reads[flight.phys] = 0
                self._arch_map[inst.dst] = flight
            self._rob_order.append(flight)
            self._waiting.append(flight)

    def _issue(self, cycle: int) -> None:
        width = self.config.issue_width
        issued = 0
        for flight in self._waiting:
            if issued >= width:
                break
            if flight.pending:
                continue
            flight.remaining = self._latency(flight.inst)
            ace = flight.ace
            self.iq.read(flight.iq_entry, cycle, ace)
            self.iq.release(flight.iq_entry, cycle, consumed=True)
            flight.iq_entry = None
            if flight.sb_entry is not None:
                self.sb.write(flight.sb_entry, cycle, ace)
            for phys in flight.src_phys:
                self.regfile.read(phys, cycle, ace)
                self._phys_reads[phys] = self._phys_reads.get(phys, 0) + 1
            self._executing.append(flight)
            issued += 1
        if issued:
            self._waiting = [f for f in self._waiting if f.iq_entry is not None]

    def _execute(self, cycle: int) -> None:
        still = []
        for flight in self._executing:
            flight.remaining -= 1
            if flight.remaining > 0:
                still.append(flight)
                continue
            flight.done = True
            for waiter in flight.waiters:
                waiter.pending -= 1
            flight.waiters.clear()
            if flight.phys is not None:
                self.regfile.write(flight.phys, cycle, flight.ace)
            if flight.lq_entry is not None:
                self.lq.read(flight.lq_entry, cycle, flight.ace)
        self._executing = still

    def _commit(self, cycle: int) -> None:
        for _ in range(self.config.commit_width):
            if not self._rob_order:
                return
            flight = self._rob_order[0]
            if not flight.done:
                return
            self._rob_order.popleft()
            ace = flight.ace
            self.rob.read(flight.rob_entry, cycle, ace)
            self.rob.release(flight.rob_entry, cycle, consumed=True)
            if flight.lq_entry is not None:
                self.lq.release(flight.lq_entry, cycle, consumed=ace)
            if flight.sb_entry is not None:
                self.sb.read(flight.sb_entry, cycle, ace)
                self.sb.release(flight.sb_entry, cycle, consumed=True)
            if flight.phys is not None:
                # Free the previous mapping of this arch reg: its value is
                # dead once a younger writer commits.
                self._release_previous_phys(flight.inst.dst, flight.phys, cycle)
            self.stats.committed += 1

    def _release_previous_phys(self, arch_reg: int, new_phys: int, cycle: int) -> None:
        old_phys = self._arch_phys.get(arch_reg)
        if old_phys is not None:
            consumed = self._phys_reads.get(old_phys, 0) > 0
            self.regfile.release(old_phys, cycle, consumed=consumed)
            self._phys_reads.pop(old_phys, None)
        # The committing writer's phys becomes the architectural mapping.
        self._arch_phys[arch_reg] = new_phys
