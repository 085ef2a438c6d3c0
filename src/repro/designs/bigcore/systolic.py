"""Systolic MAC-array generator: the 10^6-node scale substrate.

An output-stationary ``rows x cols`` multiply-accumulate array, the kind
of datapath fabric that dominates node counts in real designs. Each
processing element (PE) carries:

* an **activation pipeline register** (``data_width`` DFFs) shifting
  operands east,
* a **weight buffer** (``data_width`` enabled DFFs) loaded over a
  north-south shift chain and tagged ``@struct``/``@bit`` per tile — an
  ACE structure the walker must cut,
* a **product stage** (``data_width`` AND gates), and
* an **accumulator** (``acc_width`` DFFs behind a ripple adder) whose
  self-feedback makes every accumulator bit a genuine propagation loop.

PEs are grouped into ``tile x tile`` FUBs (``TILE_{tr}_{tc}``); each
tile owns a ``cfg_wload_*`` register on a config shift chain, matching
the control-register naming convention. Per-column OR chains reduce the
accumulator sign bits to primary outputs.

The same emitter drives two sinks: :class:`ModuleSink` materializes a
:class:`~repro.netlist.netlist.Module` (for the registry / pipeline
path), :class:`ExlifSink` streams EXLIF text straight to a file — byte
for byte what ``write_exlif`` would produce for the Module — so a
mega-scale netlist can be written without a Module and analyzed through
``exlif:``, which reads a flat file line by line into the columnar node
graph.

Node counts: ``~(3*data_width + acc_width + adder) + 1`` graph nodes
per PE (:func:`node_count` is exact); ``rows = cols = 102`` at the
default widths crosses 10^6.
"""

from __future__ import annotations

import io
import os
from contextlib import nullcontext
from dataclasses import dataclass
from typing import IO

from repro.designs.bigcore.core import MAX_NODES
from repro.netlist.exlif import cell_line
from repro.netlist.netlist import INPUT, OUTPUT, Instance, Module
from repro.netlist.validate import validate_module


@dataclass(frozen=True)
class SystolicConfig:
    """Generator parameters (deterministic; no RNG involved)."""

    rows: int = 8
    cols: int = 8
    data_width: int = 8
    acc_width: int = 16
    tile: int = 8               # PEs per FUB edge

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("systolic array needs rows >= 1 and cols >= 1")
        if self.data_width < 1:
            raise ValueError("data_width must be >= 1")
        if self.acc_width < self.data_width:
            raise ValueError("acc_width must be >= data_width")
        if self.tile < 1:
            raise ValueError("tile must be >= 1")
        nodes = node_count(self)
        if nodes > MAX_NODES:
            raise ValueError(
                f"the array is {nodes:.3g} nodes, above the "
                f"{MAX_NODES:,}-node ceiling"
            )


@dataclass
class SystolicDesign:
    """The generated array plus its inventory."""

    module: Module
    config: SystolicConfig
    structures: list[str]       # WBUF_T* structure names (one per tile)


def node_count(config: SystolicConfig) -> int:
    """Exact node count of the extracted graph for *config*."""
    c = config
    dw, aw = c.data_width, c.acc_width
    per_pe = dw * 3 + aw + (5 * dw - 3 + 2 * (aw - dw)) + 1  # +1: column OR/BUF
    tiles = _ceil_div(c.rows, c.tile) * _ceil_div(c.cols, c.tile)
    inputs = c.rows * dw + c.cols * dw + 1               # act, weight, cfg_in
    return c.rows * c.cols * per_pe + tiles + inputs


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


# ----------------------------------------------------------------------
# sinks
# ----------------------------------------------------------------------

class ModuleSink:
    """Collects emitted cells into a :class:`Module`."""

    def __init__(self, name: str):
        self.module = Module(name)

    def ports(self, inputs: list[str], outputs: list[str]) -> None:
        for net in inputs:
            self.module.add_port(net, INPUT)
        for net in outputs:
            self.module.add_port(net, OUTPUT)

    def gate(self, kind: str, name: str, conn: dict[str, str],
             attrs: dict[str, str]) -> None:
        self.module.add_instance(Instance(name, kind, conn, attrs=attrs))

    def latch(self, name: str, conn: dict[str, str],
              attrs: dict[str, str]) -> None:
        self.module.add_instance(
            Instance(name, "DFF", conn, params={"init": 0}, attrs=attrs)
        )

    def finish(self) -> Module:
        return self.module


class ExlifSink:
    """Streams emitted cells as EXLIF text.

    Each cell goes through :func:`repro.netlist.exlif.cell_line`, the
    line writer :func:`~repro.netlist.exlif.write_exlif` uses, so the
    bytes equal ``write_exlif`` of the equivalent Module.
    """

    def __init__(self, name: str, handle: IO[str]):
        self._out = handle
        self._out.write("# exlif-1\n")
        self._out.write(f".model {name}\n")

    def ports(self, inputs: list[str], outputs: list[str]) -> None:
        if inputs:
            self._out.write(".inputs " + " ".join(inputs) + "\n")
        if outputs:
            self._out.write(".outputs " + " ".join(outputs) + "\n")

    def gate(self, kind: str, name: str, conn: dict[str, str],
             attrs: dict[str, str]) -> None:
        self._out.write(cell_line(name, kind, conn, {}, attrs))

    def latch(self, name: str, conn: dict[str, str],
              attrs: dict[str, str]) -> None:
        self._out.write(cell_line(name, "DFF", conn, {"init": 0}, attrs))

    def finish(self) -> None:
        self._out.write(".end\n")


# ----------------------------------------------------------------------
# the emitter
# ----------------------------------------------------------------------

def _emit(config: SystolicConfig, sink) -> list[str]:
    """Drive *sink* through the whole array; return structure names."""
    c = config
    dw, aw, tile = c.data_width, c.acc_width, c.tile
    rows, cols = c.rows, c.cols

    act_in = [[f"act_in_r{r}[{i}]" for i in range(dw)] for r in range(rows)]
    w_in = [[f"w_in_c{q}[{i}]" for i in range(dw)] for q in range(cols)]
    inputs = [net for bus in act_in for net in bus]
    inputs += [net for bus in w_in for net in bus]
    inputs.append("cfg_in")
    outputs = [f"y_c{q}" for q in range(cols)]
    sink.ports(inputs, outputs)

    def fub_of(r: int, q: int) -> str:
        return f"TILE_{r // tile}_{q // tile}"

    # Config shift chain: one weight-load enable register per tile.
    tile_en: dict[tuple[int, int], str] = {}
    structures: list[str] = []
    prev = "cfg_in"
    for tr in range(_ceil_div(rows, tile)):
        for tc in range(_ceil_div(cols, tile)):
            net = f"cfg_wload_T{tr}_{tc}"
            sink.latch(net, {"d": prev, "q": net},
                       {"fub": f"TILE_{tr}_{tc}"})
            tile_en[(tr, tc)] = net
            structures.append(f"WBUF_T{tr}_{tc}")
            prev = net

    for r in range(rows):
        for q in range(cols):
            fub = {"fub": fub_of(r, q)}
            pe = f"pe{r}_{q}"
            en = tile_en[(r // tile, q // tile)]
            # Weight-buffer flat bit index within the tile's structure.
            local = (r % tile) * min(tile, cols - (q // tile) * tile) + (q % tile)
            sname = f"WBUF_T{r // tile}_{q // tile}"

            act_q, w_q, prod = [], [], []
            for i in range(dw):
                # Activation pipeline: operands shift east.
                a = f"{pe}/act{i}"
                d = act_in[r][i] if q == 0 else f"pe{r}_{q - 1}/act{i}"
                sink.latch(a, {"d": d, "q": a}, fub)
                act_q.append(a)
                # Weight buffer: enabled shift chain south, ACE-tagged.
                w = f"{pe}/w{i}"
                wd = w_in[q][i] if r == 0 else f"pe{r - 1}_{q}/w{i}"
                sink.latch(
                    w, {"d": wd, "q": w, "en": en},
                    {**fub, "struct": sname, "bit": str(local * dw + i)},
                )
                w_q.append(w)
            for i in range(dw):
                p = f"{pe}/p{i}"
                sink.gate("AND", p, {"a0": act_q[i], "a1": w_q[i], "y": p}, fub)
                prod.append(p)

            # Output-stationary accumulator: acc <= acc + prod. The
            # ripple adder feeds every accumulator bit back to itself,
            # so each bit forms a propagation loop the SCC pass must cut.
            carry = None
            for j in range(aw):
                acc = f"{pe}/acc{j}"
                if j < dw:
                    s1 = f"{pe}/s{j}"
                    sink.gate("XOR", s1, {"a0": acc, "a1": prod[j], "y": s1}, fub)
                    ca = f"{pe}/ca{j}"
                    sink.gate("AND", ca, {"a0": acc, "a1": prod[j], "y": ca}, fub)
                    if carry is None:
                        d, new_carry = s1, ca
                    else:
                        d = f"{pe}/d{j}"
                        sink.gate("XOR", d, {"a0": s1, "a1": carry, "y": d}, fub)
                        cb = f"{pe}/cb{j}"
                        sink.gate("AND", cb, {"a0": s1, "a1": carry, "y": cb}, fub)
                        new_carry = f"{pe}/cy{j}"
                        sink.gate("OR", new_carry,
                                  {"a0": ca, "a1": cb, "y": new_carry}, fub)
                else:
                    d = f"{pe}/d{j}"
                    sink.gate("XOR", d, {"a0": acc, "a1": carry, "y": d}, fub)
                    new_carry = f"{pe}/cy{j}"
                    sink.gate("AND", new_carry,
                              {"a0": acc, "a1": carry, "y": new_carry}, fub)
                sink.latch(acc, {"d": d, "q": acc}, fub)
                carry = new_carry

    # Column OR chains over the accumulator sign bits -> primary outputs.
    msb = aw - 1
    for q in range(cols):
        chain = f"pe0_{q}/acc{msb}"
        for r in range(1, rows):
            nxt = f"or_c{q}_r{r}"
            sink.gate("OR", nxt,
                      {"a0": chain, "a1": f"pe{r}_{q}/acc{msb}", "y": nxt},
                      {"fub": fub_of(r, q)})
            chain = nxt
        sink.gate("BUF", f"y_c{q}", {"a": chain, "y": f"y_c{q}"},
                  {"fub": fub_of(rows - 1, q)})

    return structures


def build_systolic(config: SystolicConfig | None = None) -> SystolicDesign:
    """Generate the array as a validated :class:`Module`."""
    config = config or SystolicConfig()
    sink = ModuleSink("systolic")
    structures = _emit(config, sink)
    module = sink.finish()
    validate_module(module)
    return SystolicDesign(module=module, config=config, structures=structures)


def write_systolic_exlif(
    config: SystolicConfig, target: str | os.PathLike | IO[str]
) -> None:
    """Stream the array as EXLIF text without building a Module.

    *target* is a path or an open text handle. Peak memory is one line
    of text; ``exlif:`` reads the file back without a Module either.
    """
    opened = isinstance(target, (str, os.PathLike))
    with open(target, "w", buffering=1 << 20) if opened else nullcontext(target) as handle:
        sink = ExlifSink("systolic", handle)
        _emit(config, sink)
        sink.finish()


def systolic_exlif_text(config: SystolicConfig) -> str:
    """The EXLIF text of the array (small configs / tests)."""
    out = io.StringIO()
    write_systolic_exlif(config, out)
    return out.getvalue()
