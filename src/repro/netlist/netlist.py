"""Core netlist datatypes: :class:`Port`, :class:`Instance`, :class:`Module`.

A :class:`Module` is a named collection of single-bit nets, ports and
instances. Instances reference either a primitive cell from
:mod:`repro.netlist.cells` or another module (by name) for hierarchy;
hierarchy is removed by :func:`repro.netlist.flatten.flatten` before
simulation or analysis, mirroring the paper's EXLIF expansion step
("each EXLIF file contains a single model statement that represents the
original FUB with all hierarchy removed").

Instances carry a free-form ``attrs`` dict. The attributes understood by
the rest of the library are:

``fub``
    Functional block name used for partitioned (per-FUB) analysis.
``struct`` / ``bit``
    Marks a DFF as one bit of an ACE structure (latch array): ``struct`` is
    the structure name, ``bit`` the bit index within it.
``ctrlreg``
    Marks a DFF as a configuration control register bit (the walker also
    auto-detects these by naming convention, see
    :mod:`repro.core.controlregs`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import NetlistError
from repro.netlist.cells import CELLS, mem_pins, variadic_pins

INPUT = "input"
OUTPUT = "output"


@dataclass(frozen=True)
class Port:
    """A single-bit module port."""

    name: str
    direction: str  # INPUT or OUTPUT

    def __post_init__(self) -> None:
        if self.direction not in (INPUT, OUTPUT):
            raise NetlistError(f"bad port direction {self.direction!r} for {self.name!r}")


@dataclass
class Instance:
    """One instantiated cell or submodule.

    Attributes:
        name: Instance name, unique within the parent module. After
            flattening the name is the hierarchical path joined with ``/``.
        kind: Primitive cell name (upper-case, in :data:`~repro.netlist.cells.CELLS`)
            or the name of another module.
        conn: Pin-to-net connection map.
        params: Cell parameters (``init`` for DFF; ``depth``/``width``/
            ``nread``/``init`` for MEM).
        attrs: Free-form string attributes (``fub``, ``struct``, ...).
    """

    name: str
    kind: str
    conn: dict[str, str] = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    attrs: dict[str, str] = field(default_factory=dict)

    @property
    def is_primitive(self) -> bool:
        return self.kind in CELLS

    def input_pins(self) -> list[str]:
        """Input pin names of this instance, in declaration order."""
        spec = CELLS.get(self.kind)
        if spec is None:
            raise NetlistError(f"instance {self.name!r}: {self.kind!r} is not a primitive")
        if spec.variadic:
            return variadic_pins(self.conn)
        if spec.name == "MEM":
            ins, _ = mem_pins(self.params["depth"], self.params["width"], self.params.get("nread", 1))
            return [p for p in ins if p in self.conn]
        if spec.name == "DFF":
            return [p for p in ("d", "en") if p in self.conn]
        return list(spec.inputs)

    def output_pins(self) -> list[str]:
        """Output pin names of this instance, in declaration order."""
        spec = CELLS.get(self.kind)
        if spec is None:
            raise NetlistError(f"instance {self.name!r}: {self.kind!r} is not a primitive")
        if spec.name == "MEM":
            _, outs = mem_pins(self.params["depth"], self.params["width"], self.params.get("nread", 1))
            return [p for p in outs if p in self.conn]
        return list(spec.outputs)


class Module:
    """A netlist module: ports, nets and instances.

    Nets are implicit — any string used in a port or connection is a net.
    ``add_net`` exists to declare internal nets explicitly, which the
    validator uses to flag typos (connections to undeclared nets).
    """

    def __init__(self, name: str):
        self.name = name
        self.ports: dict[str, Port] = {}
        self.nets: set[str] = set()
        self.instances: dict[str, Instance] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_port(self, name: str, direction: str) -> str:
        if name in self.ports:
            raise NetlistError(f"module {self.name!r}: duplicate port {name!r}")
        self.ports[name] = Port(name, direction)
        self.nets.add(name)
        return name

    def add_net(self, name: str) -> str:
        self.nets.add(name)
        return name

    def add_instance(self, inst: Instance) -> Instance:
        if inst.name in self.instances:
            raise NetlistError(f"module {self.name!r}: duplicate instance {inst.name!r}")
        self.instances[inst.name] = inst
        for net in inst.conn.values():
            self.nets.add(net)
        return inst

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def input_ports(self) -> list[str]:
        return [p.name for p in self.ports.values() if p.direction == INPUT]

    def output_ports(self) -> list[str]:
        return [p.name for p in self.ports.values() if p.direction == OUTPUT]

    def drivers(self) -> dict[str, tuple[str, str]]:
        """Map each driven net to its ``(instance name, output pin)`` driver.

        Primary inputs are not included. Raises :class:`NetlistError` on
        multiply-driven nets.
        """
        driven: dict[str, tuple[str, str]] = {}
        for inst in self.instances.values():
            for pin in inst.output_pins():
                net = inst.conn[pin]
                if net in driven:
                    raise NetlistError(
                        f"module {self.name!r}: net {net!r} driven by both "
                        f"{driven[net][0]!r} and {inst.name!r}"
                    )
                driven[net] = (inst.name, pin)
        return driven

    def sequential_instances(self) -> list[Instance]:
        """All DFF instances (the sequential bits the paper analyzes)."""
        return [i for i in self.instances.values() if i.kind == "DFF"]

    def stats(self) -> dict[str, int]:
        """Simple size statistics (instances by kind, net count)."""
        counts: dict[str, int] = {}
        for inst in self.instances.values():
            counts[inst.kind] = counts.get(inst.kind, 0) + 1
        counts["nets"] = len(self.nets)
        counts["instances"] = len(self.instances)
        return counts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Module {self.name} insts={len(self.instances)} nets={len(self.nets)}>"
