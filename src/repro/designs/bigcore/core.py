"""Whole-core assembly of synthetic FUBs.

Fourteen FUB templates approximate the block structure of a large OoO
core front end / back end / memory subsystem. FUBs are wired in a
pipeline-with-feedback pattern: each FUB's inputs come from the previous
two FUBs' outputs (plus a top-level input bundle for the first), and a
few late FUBs feed back to early ones so that cross-partition relaxation
genuinely needs multiple iterations to converge.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace

from repro.designs.bigcore.fubs import FubResult, FubTemplate, generate_fub
from repro.netlist.builder import ModuleBuilder
from repro.netlist.netlist import Instance, Module
from repro.netlist.validate import validate_module

# Template set: (relative sizing tuned so scale=1.0 gives ~7k sequentials).
_TEMPLATES: tuple[FubTemplate, ...] = (
    FubTemplate("IFU", arrays=2, array_width=32, fabric_flops=420, ctrl_regs=10,
                fsms=2, structure_kind="fetch_buffer"),
    FubTemplate("BPU", arrays=2, array_width=24, fabric_flops=380, ctrl_regs=8,
                fsms=3, structure_kind="fetch_buffer"),
    FubTemplate("IDU", arrays=3, array_width=28, fabric_flops=520, ctrl_regs=12,
                fsms=2, structure_kind="inst_queue"),
    FubTemplate("RAT", arrays=2, array_width=20, fabric_flops=360, ctrl_regs=6,
                fsms=2, structure_kind="inst_queue"),
    FubTemplate("RSV", arrays=3, array_width=36, fabric_flops=560, ctrl_regs=8,
                fsms=3, structure_kind="inst_queue"),
    FubTemplate("IEU0", arrays=2, array_width=32, fabric_flops=480, ctrl_regs=6,
                fsms=1, structure_kind="regfile"),
    FubTemplate("IEU1", arrays=2, array_width=32, fabric_flops=480, ctrl_regs=6,
                fsms=1, structure_kind="regfile"),
    FubTemplate("FPU", arrays=2, array_width=40, fabric_flops=540, ctrl_regs=8,
                fsms=1, structure_kind="regfile"),
    FubTemplate("AGU", arrays=2, array_width=24, fabric_flops=340, ctrl_regs=4,
                fsms=2, structure_kind="load_queue"),
    FubTemplate("LSU", arrays=3, array_width=28, fabric_flops=520, ctrl_regs=8,
                fsms=3, structure_kind="load_queue"),
    FubTemplate("DCU", arrays=3, array_width=32, fabric_flops=540, ctrl_regs=10,
                fsms=2, structure_kind="store_buffer"),
    FubTemplate("ROB", arrays=3, array_width=36, fabric_flops=560, ctrl_regs=6,
                fsms=3, structure_kind="rob"),
    FubTemplate("RET", arrays=2, array_width=24, fabric_flops=360, ctrl_regs=6,
                fsms=2, structure_kind="rob"),
    FubTemplate("MSU", arrays=1, array_width=16, fabric_flops=280, ctrl_regs=24,
                fsms=2, structure_kind="store_buffer"),
)


# Largest node graph a generator config may ask for. It admits every
# size the repo runs (bigcore scale 4 is ~56k nodes, systolic 104x104
# 1,018,538) and refuses a size that would generate for hours.
MAX_NODES = 2_000_000


@dataclass(frozen=True)
class BigcoreConfig:
    """Generator parameters; a ``scale`` not above 0, a ``fub_count``
    below 1, a negative ``feedback_fubs``, an ``edit`` that names no
    selected FUB or a config above :data:`MAX_NODES` is a ValueError."""

    seed: int = 42
    scale: float = 1.0         # multiplies fabric size and array width
    fub_count: int | None = None  # use only the first N templates
    feedback_fubs: int = 3     # how many late FUBs feed back to early ones
    # ECO probe: name of one FUB to re-buffer post-generation (see
    # _apply_fub_edit). None builds the pristine design.
    edit: str | None = None

    def __post_init__(self):
        if not self.scale > 0:
            raise ValueError(f"scale must be > 0, got {self.scale:g}")
        if self.fub_count is not None and self.fub_count < 1:
            raise ValueError("fub_count must be >= 1")
        if self.feedback_fubs < 0:
            raise ValueError("feedback_fubs must be >= 0")
        fubs = [t.name for t in _TEMPLATES[: self.fub_count]]
        if self.edit is not None and self.edit not in fubs:
            raise ValueError(f"edit={self.edit!r} names no FUB; have {fubs}")
        try:
            nodes = _node_bound(self)
        except OverflowError:  # a scale int() cannot hold
            nodes = math.inf
        if nodes > MAX_NODES:
            raise ValueError(
                f"scale={self.scale:g} generates up to {nodes:.3g} nodes, "
                f"above the {MAX_NODES:,}-node ceiling"
            )


def _node_bound(config: BigcoreConfig) -> int:
    """Upper bound on the node count of the graph *config* generates.

    Per FUB: a node per staged input, control register and output
    buffer; three per FSM bit (flop, XOR, AND); two per array bit and
    fabric flop (the flop and the gate driving it); and, as if every FUB
    had them, the core's input and output nodes and four feedback flops.
    Plus the two ECO inverters.
    """
    return 2 + sum(
        2 * (t.inputs + t.outputs) + 4 + t.ctrl_regs + 3 * t.fsms * t.fsm_bits
        + 2 * (t.arrays * t.array_width + t.fabric_flops)
        for t in _templates(config)
    )


@dataclass
class BigcoreDesign:
    """The generated design plus its inventory."""

    module: Module
    fubs: list[FubResult]
    config: BigcoreConfig
    structure_kinds: dict[str, str] = field(default_factory=dict)  # array -> perf-model kind

    def array_names(self) -> list[str]:
        return [name for fub in self.fubs for name, _w in fub.arrays]

    def seq_count(self) -> int:
        return sum(f.seq_count for f in self.fubs)


def build_bigcore(config: BigcoreConfig | None = None) -> BigcoreDesign:
    """Generate the synthetic core (deterministic per config)."""
    config = config or BigcoreConfig()
    rng = random.Random(config.seed)
    templates = _templates(config)

    b = ModuleBuilder("bigcore")
    # Top-level stimulus bundle (the RTL boundary pseudo-structure).
    top_in = b.input_bus("core_in", templates[0].inputs)

    results: list[FubResult] = []
    available: list[str] = list(top_in)
    for idx, template in enumerate(templates):
        sources = list(available)
        rng.shuffle(sources)
        result = generate_fub(b, template, rng, sources)
        results.append(result)
        # Next FUB consumes this one's outputs plus some of the previous.
        available = list(result.output_ports)
        if idx >= 1:
            available += results[idx - 1].output_ports[: template.inputs // 2]

    # Feedback: wire a few late-FUB outputs back into early FUBs through
    # staging flops (creates cross-partition cycles for the relaxation).
    for k in range(min(config.feedback_fubs, len(results) - 1)):
        late = results[-(k + 1)]
        early = results[k]
        at = {"fub": early.name}
        for i, net in enumerate(late.output_ports[:4]):
            b.dff(net, name=f"{early.name}/fb{k}_{i}", attrs=at)

    # Expose the last FUB's outputs as primary outputs.
    for i, net in enumerate(results[-1].output_ports):
        port = f"core_out[{i}]"
        b.output(port)
        b.gate("BUF", [net], out=port, attrs={"fub": results[-1].name})

    module = b.done()
    if config.edit:
        _apply_fub_edit(module, config.edit)
    validate_module(module)
    return BigcoreDesign(module=module, fubs=results, config=config,
                         structure_kinds=structure_kinds(config))


def structure_kinds(config: BigcoreConfig) -> dict[str, str]:
    """Latch array -> performance-model kind of the design *config* makes.

    The arrays follow from the templates alone (``generate_fub`` names
    array *a* of FUB *F* ``F.arr<a>``), so this needs no build.
    """
    return {f"{t.name}.arr{a}": t.structure_kind
            for t in _templates(config) for a in range(t.arrays)}


def _apply_fub_edit(module: Module, fub: str) -> None:
    """The canonical one-FUB ECO: re-buffer one pipeline flop's input.

    Inserts a double inverter in front of the data pin of the
    first-by-name plain flop (no struct/ctrlreg role) inside *fub* —
    the netlist-level shape of a timing/drive-strength fix. Annotation
    sets pass through single-input combinational gates verbatim, so the
    converged solution of every pre-existing node is unchanged; that
    makes this edit the canonical probe for incremental re-solve (a
    correct ECO run must re-solve the edited FUB, find its boundary
    exports unchanged, and stop) and keeps warm-vs-cold comparisons
    meaningful at every scale.
    """
    target = min(
        (
            inst
            for inst in module.instances.values()
            if inst.kind == "DFF"
            and inst.attrs.get("fub") == fub
            and "struct" not in inst.attrs
            and "ctrlreg" not in inst.attrs
            and "d" in inst.conn
        ),
        key=lambda inst: inst.name,
    )
    source = target.conn["d"]
    mid = module.add_net(f"{fub}/eco$1")
    out = module.add_net(f"{fub}/eco$2")
    module.add_instance(Instance(
        f"{fub}/eco_inv1", "NOT", {"a": source, "y": mid}, attrs={"fub": fub}
    ))
    module.add_instance(Instance(
        f"{fub}/eco_inv2", "NOT", {"a": mid, "y": out}, attrs={"fub": fub}
    ))
    target.conn["d"] = out


def _templates(config: BigcoreConfig) -> list[FubTemplate]:
    """The FUB templates *config* selects, at its scale."""
    return [_scaled(t, config.scale) for t in _TEMPLATES[: config.fub_count]]


def _scaled(template: FubTemplate, scale: float) -> FubTemplate:
    if scale == 1.0:
        return template
    return replace(
        template,
        fabric_flops=max(20, int(template.fabric_flops * scale)),
        array_width=max(4, int(template.array_width * min(scale, 2.0))),
        ctrl_regs=max(2, int(template.ctrl_regs * min(scale, 2.0))),
        fsms=max(1, int(template.fsms * min(scale, 2.0))),
    )
