"""Structural netlist validation (lint).

Run after flattening and before simulation or AVF analysis. Checks:

* every net has exactly one driver (primary input, or one instance output);
* every pin a cell needs is connected, and every input pin connects to a
  driven net;
* primary outputs are driven;
* no combinational cycles (cycles must be cut by DFFs — the paper's
  one-cycle-latency model, and a hard requirement of the cycle-based
  simulator);
* MEM parameters are sane.

One walk over the instances collects the drivers, the reads of nets not
yet driven and the combinational dependencies, on integer net ids; a
cycle is found by Kahn's algorithm and named from the nets it leaves.
:func:`validate_module` raises :class:`~repro.errors.ValidationError` with
all problems listed, or returns simple statistics when clean.
"""

from __future__ import annotations

from repro.errors import ValidationError
from repro.netlist.cells import CELLS, variadic_pins
from repro.netlist.netlist import Module


class _Scan:
    """What one walk over a module's instances finds."""

    def __init__(self, module: Module, require_flat: bool) -> None:
        self.problems: list[str] = []   # per instance, in instance order
        self.multiple: list[str] = []   # nets with a second driver
        self.ids: dict[str, int] = {}
        self.driver: list[str | None] = []  # net id -> driving instance
        self.readers: list[int] = []    # net id -> combinational reads
        self.deps: dict[int, list[int]] = {}  # comb output -> input ids
        # (instance, pin, net, net id) for reads of a net no driver had
        # yet driven when the walk reached them
        self.early: list[tuple[str, str, str, int]] = []
        self.primary = set(module.input_ports())
        # The walk is the hot path of every generated design's build, so
        # the id, read and drive steps are written out inline.
        ids, driver, readers = self.ids, self.driver, self.readers
        early, primary, problems = self.early, self.primary, self.problems
        get = ids.get
        for inst in module.instances.values():
            spec = CELLS.get(inst.kind)
            if spec is None:
                if require_flat:
                    problems.append(
                        f"instance {inst.name!r}: non-primitive kind {inst.kind!r}")
                continue
            conn, name = inst.conn, inst.name
            if spec.name == "MEM":
                ins, outs = self._mem_pins(inst)
            else:
                ins, outs = self._input_pins(inst, spec), spec.outputs
            out = None
            for pin in outs:
                net = conn.get(pin)
                if net is None:
                    problems.append(f"instance {name!r}: output pin {pin!r} unconnected")
                    continue
                nid = get(net)
                if nid is None:
                    nid = ids[net] = len(driver)
                    driver.append(name)
                    readers.append(0)
                elif driver[nid] is None:
                    driver[nid] = name
                else:
                    self.multiple.append(
                        f"net {net!r} driven by both {driver[nid]!r} and {name!r}")
                if out is None:
                    out = nid
            comb = out is not None and not spec.is_sequential
            in_ids = []
            for pin in ins:
                net = conn[pin]
                nid = get(net)
                if nid is None:
                    nid = ids[net] = len(driver)
                    driver.append(None)
                    readers.append(0)
                if driver[nid] is None and net not in primary:
                    early.append((name, pin, net, nid))
                if comb:
                    readers[nid] += 1
                    in_ids.append(nid)
            if comb:
                self._arc(out, in_ids)
            elif spec.name == "MEM":
                # Read data depends combinationally on the read address
                # only: the stored word was written at an earlier edge.
                for port in range(inst.params.get("nread", 1)):
                    addr = [self._id(n) for p, n in conn.items()
                            if p.startswith(f"raddr{port}_")]
                    for pin, net in conn.items():
                        if pin.startswith(f"rdata{port}_"):
                            for nid in addr:
                                readers[nid] += 1
                            self._arc(self._id(net), addr)

    def _id(self, net: str) -> int:
        nid = self.ids.get(net)
        if nid is None:
            nid = self.ids[net] = len(self.driver)
            self.driver.append(None)
            self.readers.append(0)
        return nid

    def _arc(self, out: int, ins: list[int]) -> None:
        """Record that net *out* depends combinationally on *ins*."""
        if out in self.deps:
            self.deps[out].extend(ins)
        else:
            self.deps[out] = list(ins)

    def _input_pins(self, inst, spec) -> tuple[str, ...] | list[str]:
        conn = inst.conn
        if spec.variadic:
            try:
                return variadic_pins(conn)
            except ValueError:
                self.problems.append(
                    f"instance {inst.name!r}: {inst.kind} input pins must be a0..a<n>")
                return [p for p in conn if p not in spec.outputs]
        if spec.name == "DFF":
            if "d" not in conn:
                self.problems.append(f"DFF {inst.name!r}: no data input")
                return ("en",) if "en" in conn else ()
            return spec.inputs if "en" in conn else ("d",)
        missing = [p for p in spec.inputs if p not in conn]
        if not missing:
            return spec.inputs
        for pin in missing:
            self.problems.append(f"instance {inst.name!r}: input pin {pin!r} unconnected")
        return [p for p in spec.inputs if p in conn]

    def _mem_pins(self, inst) -> tuple[list[str], list[str]]:
        """A MEM's connected input and output pins. Its read-address and
        read-data pins are named by convention, so a MEM whose parameters
        are bad still has every pin checked."""
        depth = inst.params.get("depth", 0)
        width = inst.params.get("width", 0)
        if depth < 2 or width < 1:
            self.problems.append(f"MEM {inst.name!r}: bad depth/width {depth}x{width}")
            conn = inst.conn
            return ([p for p in conn if not p.startswith("rdata")],
                    [p for p in conn if p.startswith("rdata")])
        return inst.input_pins(), inst.output_pins()

    def undriven(self) -> list[str]:
        return [
            f"instance {inst!r} pin {pin!r}: net {net!r} undriven"
            for inst, pin, net, nid in self.early
            if self.driver[nid] is None
        ]

    def cycle(self) -> list[str] | None:
        """Nets on a combinational cycle, or None when there is none.

        Kahn's algorithm on the reversed dependencies: a combinational
        output that no remaining cell reads is removed, and each net its
        cell reads loses a reader. What is left reads into a cycle: every
        net left is read by a combinational cell whose output is also
        left. Following such readers from any net left must revisit one,
        and the nets between the two visits are a cycle. The list is
        returned in dependency order: each net is driven by a cell that
        reads the next, and the last net repeats the first.
        """
        deps, remaining = self.deps, list(self.readers)
        stack = [out for out in deps if not remaining[out]]
        removed = 0
        while stack:
            removed += 1
            for nid in deps[stack.pop()]:
                remaining[nid] -= 1
                if not remaining[nid] and nid in deps:
                    stack.append(nid)
        if removed == len(deps):
            return None
        left = {out for out in deps if remaining[out]}
        reader: dict[int, int] = {}
        for out in left:
            for nid in deps[out]:
                if nid in left:
                    reader.setdefault(nid, out)
        path = [min(left)]
        seen = {path[0]: 0}
        while (nxt := reader[path[-1]]) not in seen:
            seen[nxt] = len(path)
            path.append(nxt)
        loop = path[seen[nxt]:] + [nxt]
        names = {i: net for net, i in self.ids.items()}
        return [names[nid] for nid in reversed(loop)]


def validate_module(module: Module, require_flat: bool = True) -> dict[str, int]:
    """Validate *module*; raise :class:`ValidationError` on any problem."""
    scan = _Scan(module, require_flat)
    problems = scan.problems + scan.multiple + scan.undriven()
    for out in module.output_ports():
        nid = scan.ids.get(out)
        if (nid is None or scan.driver[nid] is None) and out not in scan.primary:
            problems.append(f"primary output {out!r} undriven")
    comb_cycle = scan.cycle()
    if comb_cycle:
        problems.append("combinational cycle through nets: " + " -> ".join(comb_cycle[:12]))
    if problems:
        raise ValidationError(
            f"module {module.name!r}: {len(problems)} problem(s):\n  " + "\n  ".join(problems)
        )
    return module.stats()


def find_combinational_cycle(module: Module) -> list[str] | None:
    """Return a list of nets on a combinational cycle, or None when acyclic.

    Only combinational cells propagate dependencies; DFF and MEM outputs
    are cycle-breaking (their outputs depend on *previous*-cycle inputs —
    MEM reads are asynchronous in *data* but the stored word was written at
    an earlier edge, so the read-address-to-read-data arc is the only
    combinational arc through a MEM). Each net listed is driven by a cell
    that reads the next; the last repeats the first.
    """
    return _Scan(module, require_flat=False).cycle()
