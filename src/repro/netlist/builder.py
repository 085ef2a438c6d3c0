"""Programmatic netlist construction.

:class:`ModuleBuilder` is the ergonomic front end used by the tinycore CPU
and the bigcore synthetic-design generator. It offers bit-level primitives
(``gate``, ``dff``) plus bus helpers; word-level arithmetic (adders,
comparators, shifters) lives in :mod:`repro.netlist.wordlib` and is built on
top of this class.

Buses are plain lists of net names, index 0 being the least significant
bit. :func:`bus` formats the conventional ``name[i]`` net names.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Sequence

from repro.errors import NetlistError
from repro.netlist.cells import CELLS, mem_addr_bits
from repro.netlist.netlist import INPUT, OUTPUT, Instance, Module


def bus(name: str, width: int) -> list[str]:
    """Net names of a *width*-bit bus: ``name[0] .. name[width-1]``."""
    return [f"{name}[{i}]" for i in range(width)]


class ModuleBuilder:
    """Builds a :class:`~repro.netlist.netlist.Module` incrementally.

    All ``attrs`` passed to the constructor are applied to every instance
    created through this builder (used to tag whole blocks with their FUB
    name); per-call ``attrs`` override them.
    """

    def __init__(self, name: str, default_attrs: dict[str, str] | None = None):
        self.module = Module(name)
        self.default_attrs = dict(default_attrs or {})
        self._gensym = 0

    # ------------------------------------------------------------------
    # names and ports
    # ------------------------------------------------------------------
    @contextmanager
    def attrs(self, **attrs: str):
        """Temporarily extend the default attributes.

        Used to tag whole sections built through helpers (e.g. the word
        library) with their FUB::

            with b.attrs(fub="EX"):
                total, _ = wordlib.ripple_add(b, a, c)
        """
        saved = self.default_attrs
        self.default_attrs = {**saved, **attrs}
        try:
            yield self
        finally:
            self.default_attrs = saved

    def fresh(self, prefix: str = "n") -> str:
        """Return a fresh internal net name."""
        self._gensym += 1
        name = f"{prefix}${self._gensym}"
        self.module.add_net(name)
        return name

    def input(self, name: str) -> str:
        return self.module.add_port(name, INPUT)

    def output(self, name: str) -> str:
        return self.module.add_port(name, OUTPUT)

    def input_bus(self, name: str, width: int) -> list[str]:
        return [self.input(n) for n in bus(name, width)]

    # ------------------------------------------------------------------
    # instances
    # ------------------------------------------------------------------
    def _attrs(self, attrs: dict[str, str] | None) -> dict[str, str]:
        merged = dict(self.default_attrs)
        if attrs:
            merged.update(attrs)
        return merged

    def _inst_name(self, prefix: str, name: str | None) -> str:
        if name is not None:
            return name
        self._gensym += 1
        return f"{prefix}${self._gensym}"

    def gate(
        self,
        kind: str,
        inputs: Sequence[str],
        out: str | None = None,
        name: str | None = None,
        attrs: dict[str, str] | None = None,
    ) -> str:
        """Instantiate a combinational gate; return the output net."""
        kind = kind.upper()
        spec = CELLS.get(kind)
        if spec is None or spec.is_sequential:
            raise NetlistError(f"{kind!r} is not a combinational cell")
        out = out if out is not None else self.fresh()
        if spec.variadic:
            if not inputs:
                raise NetlistError(f"{kind} gate needs at least one input")
            conn = {f"a{i}": net for i, net in enumerate(inputs)}
        else:
            pins = [p for p in spec.inputs]
            if len(inputs) != len(pins):
                raise NetlistError(
                    f"{kind} expects {len(pins)} inputs ({pins}), got {len(inputs)}"
                )
            conn = dict(zip(pins, inputs))
        conn["y"] = out
        inst = Instance(self._inst_name(kind.lower(), name), kind, conn, attrs=self._attrs(attrs))
        self.module.add_instance(inst)
        return out

    # Convenience wrappers -------------------------------------------------
    def not_(self, a: str, **kw) -> str:
        return self.gate("NOT", [a], **kw)

    def buf(self, a: str, **kw) -> str:
        return self.gate("BUF", [a], **kw)

    def and_(self, *ins: str, **kw) -> str:
        return self.gate("AND", list(ins), **kw)

    def or_(self, *ins: str, **kw) -> str:
        return self.gate("OR", list(ins), **kw)

    def nor_(self, *ins: str, **kw) -> str:
        return self.gate("NOR", list(ins), **kw)

    def xor_(self, *ins: str, **kw) -> str:
        return self.gate("XOR", list(ins), **kw)

    def xnor_(self, *ins: str, **kw) -> str:
        return self.gate("XNOR", list(ins), **kw)

    def mux2(self, a: str, b: str, sel: str, **kw) -> str:
        """2:1 mux — ``a`` when ``sel`` is 0, ``b`` when ``sel`` is 1."""
        return self.gate("MUX2", [a, b, sel], **kw)

    def const0(self, **kw) -> str:
        return self.gate("CONST0", [], **kw)

    def const1(self, **kw) -> str:
        return self.gate("CONST1", [], **kw)

    def dff(
        self,
        d: str,
        en: str | None = None,
        q: str | None = None,
        name: str | None = None,
        init: int = 0,
        attrs: dict[str, str] | None = None,
    ) -> str:
        """Instantiate a flip-flop; return the Q output net."""
        q = q if q is not None else self.fresh("q")
        conn = {"d": d, "q": q}
        if en is not None:
            conn["en"] = en
        inst = Instance(
            self._inst_name("dff", name),
            "DFF",
            conn,
            params={"init": init & 1},
            attrs=self._attrs(attrs),
        )
        self.module.add_instance(inst)
        return q

    def dff_bus(
        self,
        d: Sequence[str],
        en: str | None = None,
        q: Sequence[str] | None = None,
        name: str | None = None,
        init: int = 0,
        attrs: dict[str, str] | None = None,
    ) -> list[str]:
        """A register: one DFF per bit of *d*; returns the Q bus."""
        outs = []
        for i, dbit in enumerate(d):
            qname = q[i] if q is not None else None
            iname = f"{name}[{i}]" if name is not None else None
            outs.append(
                self.dff(dbit, en=en, q=qname, name=iname, init=(init >> i) & 1, attrs=attrs)
            )
        return outs

    def mem(
        self,
        depth: int,
        width: int,
        raddrs: Sequence[Sequence[str]],
        waddr: Sequence[str],
        wdata: Sequence[str],
        wen: str,
        name: str | None = None,
        init: Sequence[int] | None = None,
        attrs: dict[str, str] | None = None,
    ) -> list[list[str]]:
        """Instantiate a MEM array; return one rdata bus per read port."""
        abits = mem_addr_bits(depth)
        for label, addr in [("waddr", waddr)] + [(f"raddr{i}", a) for i, a in enumerate(raddrs)]:
            if len(addr) != abits:
                raise NetlistError(f"MEM {label} must be {abits} bits, got {len(addr)}")
        if len(wdata) != width:
            raise NetlistError(f"MEM wdata must be {width} bits, got {len(wdata)}")
        iname = self._inst_name("mem", name)
        conn: dict[str, str] = {"wen": wen}
        for i, net in enumerate(waddr):
            conn[f"waddr_{i}"] = net
        for i, net in enumerate(wdata):
            conn[f"wdata_{i}"] = net
        rdata: list[list[str]] = []
        for port, addr in enumerate(raddrs):
            for i, net in enumerate(addr):
                conn[f"raddr{port}_{i}"] = net
            outs = [self.fresh(f"{iname}_rd{port}") for _ in range(width)]
            for i, net in enumerate(outs):
                conn[f"rdata{port}_{i}"] = net
            rdata.append(outs)
        params: dict = {"depth": depth, "width": width, "nread": len(raddrs)}
        if init is not None:
            params["init"] = list(init)
        inst = Instance(iname, "MEM", conn, params=params, attrs=self._attrs(attrs))
        self.module.add_instance(inst)
        return rdata

    def subckt(
        self,
        module_name: str,
        conn: dict[str, str],
        name: str | None = None,
        attrs: dict[str, str] | None = None,
    ) -> Instance:
        """Instantiate another module (resolved during flattening)."""
        inst = Instance(
            self._inst_name(module_name, name), module_name, dict(conn), attrs=self._attrs(attrs)
        )
        self.module.add_instance(inst)
        return inst

    def done(self) -> Module:
        """Return the finished module."""
        return self.module
