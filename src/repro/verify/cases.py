"""Seeded random case generation for the verification harness.

Two families of cases feed the oracle library
(:mod:`repro.verify.oracles`):

* **Design cases** — randomized multi-FUB netlists exercising everything
  the SART flow special-cases: structure read/write ports, FSM rings,
  stall (enable-hold) loops, pointer (counter) loops, control registers
  matching the name conventions of :mod:`repro.core.controlregs`, and a
  randomized port-pAVF environment. They go well beyond the single-FUB
  shapes in ``tests/core/test_sart_properties.py``.
* **Circuit cases** — randomized gate/flop/memory circuits plus a
  deterministic stimulus and fault schedule, used for bit-exact
  lane-isolation simulation checks.

Both are built from small frozen *specs* that are trivially
JSON-serializable. That is what makes shrinking and replay work: a
failing case is reported as its spec, the shrinker mutates spec fields
downward, and ``repro-sart verify --replay`` rebuilds the exact case
from the saved JSON. Construction is deterministic: the same spec always
yields the same module, environment, and stimulus.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field

from repro.core.graphmodel import StructurePorts
from repro.netlist.builder import ModuleBuilder, bus
from repro.netlist.netlist import Module
from repro.netlist.validate import validate_module

_GATES2 = ("AND", "OR", "XOR", "NAND", "NOR", "XNOR")


# ----------------------------------------------------------------------
# design cases
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CaseSpec:
    """Genome of one randomized SART design case (JSON-safe)."""

    seed: int
    n_fubs: int = 3
    flops_per_fub: int = 8
    struct_width: int = 2       # bits per structure (0 disables structures)
    fsm_loops: int = 1          # 3-flop rings with gated feedback
    stall_loops: int = 1        # enable-hold flops (self edge)
    pointer_loops: int = 1      # 3-bit counters (multi-node SCC)
    ctrl_regs: int = 1          # name-matched cfg registers per design
    env_seed: int = 0           # drives the random port-pAVF environment
    loop_pavf: float = 0.3

    def to_json(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> "CaseSpec":
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})


@dataclass
class DesignCase:
    """A built design case: the module plus its pAVF environment."""

    spec: CaseSpec
    module: Module
    structures: dict[str, StructurePorts]
    # Net names of features the generator placed, for oracle targeting.
    ctrl_names: list[str] = field(default_factory=list)
    loop_seeds: list[str] = field(default_factory=list)

    def describe(self) -> str:
        s = self.spec
        return (f"case(seed={s.seed}, fubs={s.n_fubs}, "
                f"flops={s.flops_per_fub}, structs={s.struct_width}b, "
                f"loops={s.fsm_loops}f/{s.stall_loops}s/{s.pointer_loops}p, "
                f"ctrl={s.ctrl_regs}, env={s.env_seed})")


def random_spec(rng: random.Random) -> CaseSpec:
    """Draw a random (small, fast) case spec."""
    return CaseSpec(
        seed=rng.randrange(1_000_000),
        n_fubs=rng.randint(1, 4),
        flops_per_fub=rng.randint(3, 12),
        struct_width=rng.randint(0, 3),
        fsm_loops=rng.randint(0, 2),
        stall_loops=rng.randint(0, 2),
        pointer_loops=rng.randint(0, 1),
        ctrl_regs=rng.randint(0, 2),
        env_seed=rng.randrange(1_000_000),
    )


def build_case(spec: CaseSpec) -> DesignCase:
    """Deterministically build the design a spec describes.

    Layout: each FUB owns a slice of structures, a random combinational
    fabric over the nets visible to it (its own nets plus the previous
    FUB's exports), and its share of the requested loop topologies and
    control registers. Source structures sit in the first FUB, sink
    structures in the last, so pAVF traffic genuinely crosses FUB
    boundaries and partitioned relaxation has work to do.
    """
    rng = random.Random(spec.seed)
    b = ModuleBuilder(f"vcase{spec.seed}")
    tie = b.input("tie_in")

    ctrl_names: list[str] = []
    loop_seeds: list[str] = []
    structures: dict[str, StructurePorts] = {}
    exports: list[str] = [tie]     # nets visible to the next FUB

    n_fubs = max(1, spec.n_fubs)
    for f in range(n_fubs):
        fub = f"F{f}"
        with b.attrs(fub=fub):
            pool = list(exports)

            # Source structures (first FUB): read ports feeding the fabric.
            if f == 0 and spec.struct_width > 0:
                for bit in range(spec.struct_width):
                    q = b.dff(tie, name=f"{fub}/src[{bit}]",
                              attrs={"struct": "SRC", "bit": str(bit)})
                    pool.append(q)

            # Loop topologies, spread round-robin across FUBs.
            for k in range(spec.fsm_loops):
                if k % n_fubs != f:
                    continue
                ring = _fsm_ring(b, rng, pool, tag=f"{fub}/fsm{k}")
                loop_seeds.append(ring[0])
                pool.extend(ring)
            for k in range(spec.stall_loops):
                if k % n_fubs != f:
                    continue
                q = _stall_flop(b, rng, pool, tag=f"{fub}/stall{k}")
                loop_seeds.append(q)
                pool.append(q)
            for k in range(spec.pointer_loops):
                if k % n_fubs != f:
                    continue
                ptr = _pointer_counter(b, rng, pool, tag=f"{fub}/ptr{k}")
                loop_seeds.extend(ptr)
                pool.extend(ptr)

            # Control registers: the cfg name convention triggers the
            # pattern matcher in repro.core.controlregs.
            for k in range(spec.ctrl_regs):
                if k % n_fubs != f:
                    continue
                q = b.dff(tie, name=f"{fub}/cfg_mode{k}")
                ctrl_names.append(q)
                pool.append(q)

            # Random combinational fabric + pipeline flops.
            for i in range(spec.flops_per_fub):
                if rng.random() < 0.55 and len(pool) >= 2:
                    net = b.gate(rng.choice(_GATES2),
                                 [rng.choice(pool), rng.choice(pool)])
                elif rng.random() < 0.3 and len(pool) >= 3:
                    net = b.gate("MUX2", [rng.choice(pool) for _ in range(3)])
                else:
                    net = rng.choice(pool)
                pool.append(b.dff(net, name=f"{fub}/p{i}"))

            # Sink structures (last FUB): write ports draining the fabric.
            if f == n_fubs - 1 and spec.struct_width > 0:
                for bit in range(spec.struct_width):
                    b.dff(rng.choice(pool), name=f"{fub}/snk[{bit}]",
                          attrs={"struct": "SNK", "bit": str(bit)})

            # Export a handful of nets to the next FUB / the outputs.
            n_exports = min(len(pool), 4)
            exports = [pool[-(i + 1)] for i in range(n_exports)]

    for i, net in enumerate(exports[:2]):
        port = f"out{i}"
        b.output(port)
        b.gate("BUF", [net], out=port, attrs={"fub": f"F{n_fubs - 1}"})

    module = b.done()
    validate_module(module)

    erng = random.Random(spec.env_seed)
    if spec.struct_width > 0:
        structures["SRC"] = StructurePorts(
            "SRC",
            pavf_r=[round(erng.random() * 0.6, 6)
                    for _ in range(spec.struct_width)],
            pavf_w=0.0,
            avf=round(erng.random(), 6),
        )
        structures["SNK"] = StructurePorts(
            "SNK",
            pavf_r=0.0,
            pavf_w=[round(erng.random() * 0.6, 6)
                    for _ in range(spec.struct_width)],
            avf=round(erng.random(), 6),
        )

    return DesignCase(spec=spec, module=module, structures=structures,
                      ctrl_names=ctrl_names, loop_seeds=loop_seeds)


def _fsm_ring(b: ModuleBuilder, rng: random.Random, pool: list[str],
              tag: str) -> list[str]:
    """A 3-flop ring with external excitation (a multi-node seq SCC)."""
    nets = [f"{tag}_q{i}" for i in range(3)]
    for net in nets:
        b.module.add_net(net)
    stim = rng.choice(pool)
    mix = b.xor_(nets[2], stim)
    b.dff(mix, q=nets[0], name=f"{tag}_r0")
    b.dff(nets[0], q=nets[1], name=f"{tag}_r1")
    b.dff(nets[1], q=nets[2], name=f"{tag}_r2")
    return nets


def _stall_flop(b: ModuleBuilder, rng: random.Random, pool: list[str],
                tag: str) -> str:
    """An enable-hold flop: extraction gives it a self edge (stall loop)."""
    q = f"{tag}_q"
    b.module.add_net(q)
    en = rng.choice(pool)
    d = rng.choice(pool)
    b.dff(d, en=en, q=q, name=f"{tag}_r")
    return q


def _pointer_counter(b: ModuleBuilder, rng: random.Random, pool: list[str],
                     tag: str) -> list[str]:
    """A 3-bit incrementing pointer: each bit toggles on carry-in."""
    qs = [f"{tag}_q{i}" for i in range(3)]
    for net in qs:
        b.module.add_net(net)
    step = rng.choice(pool)
    carry = step
    for i, q in enumerate(qs):
        nxt = b.xor_(q, carry)
        carry = b.and_(q, carry)
        b.dff(nxt, q=q, name=f"{tag}_r{i}")
    return qs


# ----------------------------------------------------------------------
# circuit cases (lane-isolation simulation)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CircuitSpec:
    """Genome of one lane-isolation simulation case (JSON-safe)."""

    seed: int
    n_inputs: int = 4
    n_gates: int = 24
    n_dffs: int = 6
    with_mem: bool = False
    lanes: int = 5
    cycles: int = 12
    n_faults: int = 3           # random lane/net flips during the run
    stim_seed: int = 0

    def to_json(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> "CircuitSpec":
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})


def random_circuit_spec(rng: random.Random) -> CircuitSpec:
    return CircuitSpec(
        seed=rng.randrange(1_000_000),
        n_inputs=rng.randint(2, 5),
        n_gates=rng.randint(8, 40),
        n_dffs=rng.randint(2, 8),
        with_mem=rng.random() < 0.4,
        lanes=rng.randint(2, 9),
        cycles=rng.randint(6, 16),
        n_faults=rng.randint(0, 4),
        stim_seed=rng.randrange(1_000_000),
    )


def build_circuit(spec: CircuitSpec) -> Module:
    """Deterministically build the circuit a spec describes.

    Beyond ``tests/rtlsim/test_random_circuits.py`` this also drops in a
    small MEM array (write port fed from the fabric, read address from
    flops), which exercises the simulator's memory fast paths.
    """
    rng = random.Random(spec.seed)
    b = ModuleBuilder(f"vcirc{spec.seed}")
    pool = [b.input(f"in{i}") for i in range(spec.n_inputs)]
    q_nets = []
    for i in range(max(2, spec.n_dffs)):
        net = f"q{i}"
        b.module.add_net(net)
        q_nets.append(net)
        pool.append(net)
    for _ in range(spec.n_gates):
        kind = rng.choice(_GATES2 + ("NOT", "BUF", "MUX2"))
        if kind in ("NOT", "BUF"):
            net = b.gate(kind, [rng.choice(pool)])
        elif kind == "MUX2":
            net = b.gate(kind, [rng.choice(pool) for _ in range(3)])
        else:
            net = b.gate(kind, [rng.choice(pool), rng.choice(pool)])
        pool.append(net)
    if spec.with_mem:
        addr_bits = 2
        raddr = [rng.choice(q_nets) for _ in range(addr_bits)]
        waddr = [rng.choice(pool) for _ in range(addr_bits)]
        wdata = [rng.choice(pool) for _ in range(2)]
        wen = rng.choice(pool)
        rdata = b.mem(depth=4, width=2, raddrs=[raddr], waddr=waddr,
                      wdata=wdata, wen=wen, name="vmem",
                      init=[rng.randrange(4) for _ in range(4)])
        pool.extend(rdata[0])
    for i, q in enumerate(q_nets):
        d = rng.choice(pool)
        en = rng.choice(pool) if rng.random() < 0.4 else None
        b.dff(d, en=en, q=q, name=f"ff{i}", init=rng.randint(0, 1))
    for i in range(2):
        b.output(f"out{i}")
        b.gate("BUF", [rng.choice(pool)], out=f"out{i}")
    module = b.done()
    validate_module(module)
    return module


def circuit_schedule(spec: CircuitSpec, module: Module):
    """Deterministic stimulus + fault schedule for a circuit case.

    Returns ``(stimulus, faults)`` where ``stimulus[cycle]`` maps input
    nets to bits and ``faults`` is a list of ``(cycle, net, lane_mask)``
    flips (never lane 0, so the golden lane stays clean).
    """
    rng = random.Random(spec.stim_seed)
    inputs = module.input_ports()
    flippable = sorted(module.nets)
    stimulus = [
        {net: rng.randint(0, 1) for net in inputs} for _ in range(spec.cycles)
    ]
    faults = []
    for _ in range(spec.n_faults):
        lane = rng.randrange(1, max(2, spec.lanes))
        faults.append((
            rng.randrange(spec.cycles),
            rng.choice(flippable),
            1 << lane,
        ))
    return stimulus, faults
