"""Node-graph extraction from a flattened netlist.

The sequential-AVF methodology operates on "a node graph extracted from
RTL". This module produces that graph: one node per driven net (gate
output, flop output, memory read-data bit, constant) plus one node per
primary input. Edges run from driver nodes to the outputs of the instances
that consume them.

Two modelling choices mirror the paper:

* **Enabled flops hold state.** A DFF with an enable pin keeps its value
  while disabled, which in gate terms is a mux from Q back to D — so the
  extracted graph gives such a flop a self-edge (and an edge from the
  enable net). SCC detection in :mod:`repro.core.loops` then classifies it
  as a loop node automatically, matching the paper's observation that
  "sequentials that behave as ACE structures (data is read/written via
  enable/enabled clock signals)" must not be treated as simple pipeline
  stages.
* **Memories are structures, not logic.** MEM read-data bits appear as
  source-like nodes with no fan-in; the write-side connectivity is recorded
  in :class:`MemInfo` so the AVF layer can treat the nets feeding
  ``wdata`` as structure write-port bits (walk sinks).

The graph is stored as columns (interned names, a fan-in CSR, kind and
FUB columns) that the compiled engine reads directly; ``graph.nodes``
builds a :class:`Node` view per access for code that wants one node at a
time. Every graph is built by one :class:`GraphBuilder` and one per-cell
lowering (:func:`lower_cell`), fed either by :func:`extract_graph` from a
:class:`~repro.netlist.netlist.Module` or line by line by the EXLIF
reader (:func:`repro.netlist.exlif.read_exlif_graph`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from repro.errors import NetlistError
from repro.netlist.cells import CELLS, mem_addr_bits, variadic_pins
from repro.netlist.netlist import Module


class NodeKind:
    """Node kind constants."""

    INPUT = "input"
    CONST = "const"
    COMB = "comb"
    SEQ = "seq"
    MEM_RDATA = "mem_rdata"


@dataclass
class Node:
    """A view of one graph node (identified by its net name)."""

    net: str
    kind: str
    inst: str | None = None  # driving instance name (None for primary inputs)
    cell: str | None = None  # driving cell kind
    fub: str = ""
    attrs: dict[str, str] = field(default_factory=dict)
    fanin: tuple[str, ...] = ()


@dataclass
class MemReadPort:
    addr: list[str]
    data: list[str]


@dataclass
class MemInfo:
    """Connectivity of one MEM instance (an ACE structure in RTL)."""

    inst: str
    depth: int
    width: int
    fub: str
    attrs: dict[str, str]
    read_ports: list[MemReadPort]
    waddr: list[str]
    wdata: list[str]
    wen: str


class _NodeViews(Mapping):
    """``net -> Node`` over a graph's columns; views are built per access
    and never cached, so iterating a large graph pins no object per node."""

    __slots__ = ("_graph",)

    def __init__(self, graph: "NetGraph"):
        self._graph = graph

    def __getitem__(self, net: str) -> Node:
        return self._graph.node(self._graph.ids[net])

    def __iter__(self) -> Iterator[str]:
        return iter(self._graph.names)

    def __len__(self) -> int:
        return len(self._graph.names)

    def __contains__(self, net) -> bool:
        return net in self._graph.ids


class NetGraph:
    """The extracted node graph, stored as columns.

    Attributes:
        names: Dense node id -> net name, in driven order.
        ids: Net name -> dense node id.
        kinds / fubs / cells: Per-node columns aligned with ``names``.
        fanin_ptr / fanin_ix: Fan-in CSR over dense ids.
        insts: Node id -> driving instance name, only where it differs
            from the net (INPUT nodes have none).
        node_attrs: Node id -> instance attributes (tagged nodes only).
        outputs: Primary-output net names (RTL boundary sinks).
        mems: MEM instance name -> :class:`MemInfo`.
    """

    def __init__(self, name: str):
        self.name = name
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.kinds: list[str] = []
        self.fubs: list[str] = []
        self.cells: list[str | None] = []
        self.fanin_ptr: list[int] = [0]
        self.fanin_ix: list[int] = []
        self.insts: dict[int, str] = {}
        self.node_attrs: dict[int, dict[str, str]] = {}
        self.outputs: list[str] = []
        self.mems: dict[str, MemInfo] = {}
        self._fanins: dict[str, tuple[str, ...]] | None = None
        self._fanout: dict[str, list[str]] | None = None

    @property
    def nodes(self) -> Mapping[str, Node]:
        """Net name -> :class:`Node` view, in node order."""
        return _NodeViews(self)

    def node(self, nid: int) -> Node:
        """The :class:`Node` view of node id *nid*."""
        names = self.names
        lo, hi = self.fanin_ptr[nid], self.fanin_ptr[nid + 1]
        return Node(
            net=names[nid],
            kind=self.kinds[nid],
            inst=self.inst(nid),
            cell=self.cells[nid],
            fub=self.fubs[nid],
            attrs=self.node_attrs.get(nid, {}),
            fanin=tuple(names[j] for j in self.fanin_ix[lo:hi]),
        )

    def inst(self, nid: int) -> str | None:
        """Name of the instance driving node *nid* (None for inputs)."""
        inst = self.insts.get(nid)
        if inst is None and self.kinds[nid] != NodeKind.INPUT:
            return self.names[nid]
        return inst

    def fanins(self) -> dict[str, tuple[str, ...]]:
        """Net -> fan-in nets (cached): for walks that look fan-ins up
        by name many times, instead of a :class:`Node` view per lookup."""
        if self._fanins is None:
            names, ptr, ix = self.names, self.fanin_ptr, self.fanin_ix
            self._fanins = {
                net: tuple(names[j] for j in ix[ptr[nid]:ptr[nid + 1]])
                for nid, net in enumerate(names)
            }
        return self._fanins

    def fanout(self) -> dict[str, list[str]]:
        """Net -> nets whose driving instance consumes it (cached)."""
        if self._fanout is None:
            names, ptr, ix = self.names, self.fanin_ptr, self.fanin_ix
            fo: dict[str, list[str]] = {net: [] for net in names}
            for nid, net in enumerate(names):
                for i in range(ptr[nid], ptr[nid + 1]):
                    fo[names[ix[i]]].append(net)
            self._fanout = fo
        return self._fanout

    def _nets_of(self, kind: str) -> list[str]:
        return [net for net, k in zip(self.names, self.kinds) if k == kind]

    def seq_nets(self) -> list[str]:
        """Nets driven by flip-flops — the paper's 'sequentials'."""
        return self._nets_of(NodeKind.SEQ)

    def input_nets(self) -> list[str]:
        return self._nets_of(NodeKind.INPUT)

    def const_nets(self) -> list[str]:
        return self._nets_of(NodeKind.CONST)

    def nets_by_fub(self) -> dict[str, list[str]]:
        """FUB name -> nets of nodes tagged with that FUB."""
        by_fub: dict[str, list[str]] = {}
        for net, fub in zip(self.names, self.fubs):
            by_fub.setdefault(fub, []).append(net)
        return by_fub

    def struct_tagged(self):
        """Yield ``(net, attrs)`` of SEQ nodes carrying a ``struct`` attr."""
        kinds, names = self.kinds, self.names
        for nid, attrs in self.node_attrs.items():
            if kinds[nid] == NodeKind.SEQ and "struct" in attrs:
                yield names[nid], attrs

    def seq_items(self):
        """Yield ``(net, inst, attrs)`` for every sequential node."""
        empty: dict[str, str] = {}
        names, insts, attrs = self.names, self.insts, self.node_attrs
        for nid, kind in enumerate(self.kinds):
            if kind == NodeKind.SEQ:
                yield names[nid], insts.get(nid, names[nid]), attrs.get(nid, empty)

    def __len__(self) -> int:
        return len(self.names)


class GraphBuilder:
    """Builds one :class:`NetGraph` node by node.

    Node ids are assigned in driven order. A node may name fan-in nets
    that are driven only later (EXLIF allows forward references), so the
    fan-in is kept by net name and resolved to ids at :meth:`finish`.
    """

    def __init__(self, name: str):
        self.graph = NetGraph(name)
        self._strings: dict[str, str] = {}  # one str object per net/FUB name
        self._row: list[str] = []            # fan-in CSR over net names

    def add_node(
        self,
        net: str,
        kind: str,
        fanin: Iterable[str] = (),
        fub: str = "",
        cell: str | None = None,
        inst: str | None = None,
        attrs: dict[str, str] | None = None,
    ) -> None:
        """Add the node driving *net*."""
        graph = self.graph
        ids, strings, row = graph.ids, self._strings, self._row
        if net in ids:
            raise NetlistError(f"net {net!r} driven twice")
        net = strings.setdefault(net, net)
        nid = ids[net] = len(graph.names)
        graph.names.append(net)
        graph.kinds.append(kind)
        graph.fubs.append(strings.setdefault(fub, fub))
        graph.cells.append(cell)
        for src in fanin:
            row.append(strings.setdefault(src, src))
        graph.fanin_ptr.append(len(row))
        if inst is not None and inst != net:
            graph.insts[nid] = inst
        if attrs:
            graph.node_attrs[nid] = attrs

    def finish(self) -> NetGraph:
        """Resolve the fan-in to node ids and return the graph."""
        graph = self.graph
        ids = graph.ids
        try:
            graph.fanin_ix = [ids[src] for src in self._row]
        except KeyError:
            missing = sorted({src for src in self._row if src not in ids})
            raise NetlistError(f"graph references undriven nets: {missing[:10]}") from None
        return graph


def lower_cell(
    builder: GraphBuilder,
    name: str,
    kind: str,
    conn: Mapping[str, str],
    params: Mapping,
    attrs: dict[str, str],
) -> None:
    """Add the nodes one primitive instance drives to *builder*.

    The one per-cell rule set: a CONST drives a source node, a gate a
    COMB node over its inputs (variadic pins in index order), a DFF a SEQ
    node whose enable adds the hold path (``en`` and Q itself), and a MEM
    one source node per read-data bit plus its :class:`MemInfo`.
    """
    spec = CELLS.get(kind)
    if spec is None:
        raise NetlistError(f"extract_graph requires a flat module; {name!r} is {kind!r}")
    fub = attrs.get("fub", "")
    add = builder.add_node
    if kind == "MEM":
        depth, width = params["depth"], params["width"]
        abits = mem_addr_bits(depth)
        ports = []
        for p in range(params.get("nread", 1)):
            data = _bus(conn, f"rdata{p}_", width)
            ports.append(MemReadPort(addr=_bus(conn, f"raddr{p}_", abits), data=data))
            for net in data:
                add(net, NodeKind.MEM_RDATA, (), fub, "MEM", name, attrs)
        builder.graph.mems[name] = MemInfo(
            inst=name, depth=depth, width=width, fub=fub, attrs=attrs,
            read_ports=ports,
            waddr=_bus(conn, "waddr_", abits),
            wdata=_bus(conn, "wdata_", width),
            wen=conn["wen"],
        )
    elif kind == "DFF":
        q = conn["q"]
        fanin = [conn["d"]]
        if "en" in conn:
            # Hold path: enable mux feeds Q back to D (see module docstring).
            fanin.extend([conn["en"], q])
        add(q, NodeKind.SEQ, fanin, fub, "DFF", name, attrs)
    elif kind in ("CONST0", "CONST1"):
        add(conn["y"], NodeKind.CONST, (), fub, spec.name, name, attrs)
    else:
        pins = variadic_pins(conn) if spec.variadic else spec.inputs
        add(conn["y"], NodeKind.COMB, [conn[p] for p in pins], fub, spec.name,
            name, attrs)


def _bus(conn: Mapping[str, str], prefix: str, width: int) -> list[str]:
    return [conn[f"{prefix}{i}"] for i in range(width)]


def extract_graph(module: Module) -> NetGraph:
    """Extract the node graph of a flattened *module*."""
    builder = GraphBuilder(module.name)
    for net in module.input_ports():
        builder.add_node(net, NodeKind.INPUT)
    builder.graph.outputs = module.output_ports()
    for inst in module.instances.values():
        try:
            lower_cell(builder, inst.name, inst.kind, inst.conn, inst.params,
                       inst.attrs)
        except KeyError as exc:
            raise NetlistError(f"instance {inst.name!r}: missing pin {exc}") from None
    return builder.finish()
