"""Annotated AVF model: node graph + structure/control/loop/boundary roles.

This is paper step 4 ("Map ACE structure bits to RTL bit names") plus the
assignment of every special role the walker understands:

* **Structure read-port bits** — forward sources carrying ``pAVF_R``:
  MEM read-data nets, and DFF bits tagged ``struct``/``bit``.
* **Structure write-port bits** — backward sinks carrying ``pAVF_W``:
  nets feeding MEM ``wdata`` pins, and the data inputs of structure DFFs.
* **Port address/enable nets** — also structure traffic: read addresses
  carry the port's ACE-read rate, write addresses/enables the ACE-write
  rate (these feed the Hamming-distance-1 style accounting).
* **Control registers** — forward sources at 100 % with no backward walk
  through them.
* **Loop boundaries** — pseudo-structures with the injected static pAVF.
* **RTL boundary** — primary inputs are read ports of a pseudo-structure,
  primary outputs write ports of one ("circuits that lie outside of the
  RTL being analyzed are grouped together into one or more
  pseudo-structures, with [their] own pAVF_R and pAVF_W values").

Role precedence on a sequential node: structure bit > control register >
loop boundary (a latch array flagged as a structure is never re-classified,
even when its enable gives it a hold loop).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.errors import MappingError
from repro.core.controlregs import find_control_registers
from repro.core.loops import find_loop_nets
from repro.core.pavf import (
    BOUNDARY,
    CONST,
    CTRL,
    LOOP,
    READ,
    WRITE,
    Atom,
)
from repro.netlist.graph import NetGraph


@dataclass
class StructurePorts:
    """Port-AVF inputs of one ACE structure (from the ACE model).

    ``pavf_r``/``pavf_w`` may be scalars (applied to every bit) or flat
    per-bit sequences. For a MEM with ``nread`` ports of ``width`` bits the
    read flat index is ``port * width + bit``; writes index ``bit``. For a
    DFF latch array both index the array bit.

    ``avf`` is the measured structure AVF (Eq 3) used in the final report
    for the structure's own storage bits; ``None`` defers to the
    environment default.

    ``deadlines`` optionally carries the structure's error-reporting
    deadline distribution (JSON-safe summary,
    :meth:`repro.ace.lifetime.StructureAvf.deadline_summary`). It rides
    along for reporting — the AVF walker itself never reads it.
    """

    name: str
    pavf_r: float | Sequence[float] = 1.0
    pavf_w: float | Sequence[float] = 1.0
    avf: float | None = None
    deadlines: Mapping | None = None

    def read_value(self, flat_bit: int) -> float:
        return _pick(self.pavf_r, flat_bit)

    def write_value(self, flat_bit: int) -> float:
        return _pick(self.pavf_w, flat_bit)

    def read_port_rate(self) -> float:
        """Rate applied to read-address nets (max bit value, conservative)."""
        return _rate(self.pavf_r)

    def write_port_rate(self) -> float:
        """Rate applied to write-address/enable nets."""
        return _rate(self.pavf_w)


def _pick(value: float | Sequence[float], bit: int) -> float:
    if isinstance(value, (int, float)):
        return float(value)
    if bit >= len(value):
        return float(value[-1]) if len(value) else 1.0
    return float(value[bit])


def _rate(value: float | Sequence[float]) -> float:
    if isinstance(value, (int, float)):
        return float(value)
    return max((float(v) for v in value), default=1.0)


@dataclass
class AvfModel:
    """Everything the propagation engines need, in one object."""

    graph: NetGraph
    # Forward-fixed nets: sources whose f-set never comes from fanin.
    forward_fixed: dict[str, frozenset[Atom]] = field(default_factory=dict)
    # Nets whose *drivers* receive a fixed set instead of the net's own
    # computed backward value (structure bits, loop nodes); control
    # registers map to the empty set (backward walk omitted).
    contrib_through: dict[str, frozenset[Atom]] = field(default_factory=dict)
    # Additional static backward contributions per net (mem write pins,
    # port addresses, primary outputs).
    static_sinks: dict[str, list[Atom]] = field(default_factory=dict)
    # net -> (structure, flat read bit) for structure storage-bit reporting.
    struct_nodes: dict[str, tuple[str, int]] = field(default_factory=dict)
    loop_nets: set[str] = field(default_factory=set)
    ctrl_nets: set[str] = field(default_factory=set)
    structures: dict[str, StructurePorts] = field(default_factory=dict)
    # atom -> (role, structure, flat bit); role in r/w/ra/wa/wen.
    atom_bindings: dict[Atom, tuple[str, str, int]] = field(default_factory=dict)

    def add_sink(self, net: str, atom: Atom) -> None:
        self.static_sinks.setdefault(net, []).append(atom)


def build_model(
    graph: NetGraph,
    structures: Mapping[str, StructurePorts] | None = None,
) -> AvfModel:
    """Assemble the annotated model: SART's one front end.

    Args:
        graph: Extracted node graph of the flattened design.
        structures: Port AVFs per structure name. Structures referenced by
            the netlist but missing here get conservative defaults.

    Structure bits come from DFF ``struct`` attrs and MEM instances;
    control registers from :func:`~repro.core.controlregs.
    find_control_registers`; loop boundaries from
    :func:`~repro.core.loops.find_loop_nets`, with the graph cut at the
    structure bits and control registers, where walks terminate. Address
    and enable nets of MEM ports receive the port's traffic rate as
    read/write atoms.
    """
    structures = dict(structures or {})
    model = AvfModel(graph=graph, structures=structures)

    def ports_for(name: str) -> StructurePorts:
        if name not in structures:
            structures[name] = StructurePorts(name=name)
        return structures[name]

    # ------------------------------------------------------------------
    # structure bits from DFF attributes
    # ------------------------------------------------------------------
    for net, attrs in graph.struct_tagged():
        try:
            bit = int(attrs.get("bit", "0"))
        except ValueError as exc:
            raise MappingError(
                f"node {net!r}: bad struct bit {attrs.get('bit')!r}"
            ) from exc
        sname = attrs["struct"]
        ports_for(sname)
        r_atom = Atom(READ, sname, bit)
        w_atom = Atom(WRITE, sname, bit)
        model.forward_fixed[net] = frozenset((r_atom,))
        model.contrib_through[net] = frozenset((w_atom,))
        model.struct_nodes[net] = (sname, bit)
        model.atom_bindings[r_atom] = ("r", sname, bit)
        model.atom_bindings[w_atom] = ("w", sname, bit)

    # ------------------------------------------------------------------
    # structure bits from MEM instances
    # ------------------------------------------------------------------
    for mem in graph.mems.values():
        sname = mem.attrs.get("struct", mem.inst)
        ports = ports_for(sname)
        width = mem.width
        for pidx, rport in enumerate(mem.read_ports):
            for i, net in enumerate(rport.data):
                flat = pidx * width + i
                atom = Atom(READ, sname, flat)
                model.forward_fixed[net] = frozenset((atom,))
                model.atom_bindings[atom] = ("r", sname, flat)
            ra_atom = Atom(READ, f"{sname}#raddr{pidx}", 0)
            model.atom_bindings[ra_atom] = ("ra", sname, pidx)
            for net in rport.addr:
                model.add_sink(net, ra_atom)
        for i, net in enumerate(mem.wdata):
            atom = Atom(WRITE, sname, i)
            model.atom_bindings[atom] = ("w", sname, i)
            model.add_sink(net, atom)
        wa_atom = Atom(WRITE, f"{sname}#waddr", 0)
        model.atom_bindings[wa_atom] = ("wa", sname, 0)
        for net in mem.waddr:
            model.add_sink(net, wa_atom)
        wen_atom = Atom(WRITE, f"{sname}#wen", 0)
        model.atom_bindings[wen_atom] = ("wen", sname, 0)
        model.add_sink(mem.wen, wen_atom)

    # ------------------------------------------------------------------
    # control registers (precedence: structures win)
    # ------------------------------------------------------------------
    for net in find_control_registers(graph):
        if net in model.struct_nodes:
            continue
        model.ctrl_nets.add(net)
        model.forward_fixed[net] = frozenset((Atom(CTRL, net),))
        # "we can omit walks up from these write-ports": drivers get nothing.
        model.contrib_through[net] = frozenset()

    # ------------------------------------------------------------------
    # loop boundaries (a cut node is never one)
    # ------------------------------------------------------------------
    for net in find_loop_nets(graph, model.struct_nodes.keys() | model.ctrl_nets):
        model.loop_nets.add(net)
        atom_set = frozenset((Atom(LOOP, net),))
        model.forward_fixed[net] = atom_set
        model.contrib_through[net] = atom_set

    # ------------------------------------------------------------------
    # constants and the RTL boundary pseudo-structure
    # ------------------------------------------------------------------
    for net in graph.const_nets():
        model.forward_fixed.setdefault(net, frozenset((Atom(CONST, net),)))
    for net in graph.input_nets():
        model.forward_fixed.setdefault(net, frozenset((Atom(BOUNDARY, net),)))
    for net in graph.outputs:
        model.add_sink(net, Atom(BOUNDARY, net))

    return model
