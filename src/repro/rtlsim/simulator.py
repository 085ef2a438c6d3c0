"""Lane-parallel cycle-based gate-level simulator.

A net value is one Python integer: bit ``k`` is the net's boolean value
in lane ``k``, and ``lanes`` independent simulations advance together.
Python bigints give arbitrary lane counts for free — a 256-lane pass
simply carries 256-bit integers — and the netlist is levelized once and
compiled into straight-line statements (one per gate), which stay an
order of magnitude faster than interpreting it gate by gate. Per-gate
cost grows sublinearly with lane count (CPython bigint limbs), so wider
passes amortize the fixed per-cycle interpreter overhead.

Memory primitives use a golden-base-plus-per-lane-overlay
representation (:class:`MemState`), and every per-lane slow path
iterates only the lanes that actually diverge from the golden lane, so
mostly-golden fault-injection passes stay near fault-free cost at any
lane count.

Simulation contract (single implicit clock):

1. ``poke`` primary inputs for the cycle,
2. observation (``peek``) sees settled combinational values,
3. ``step()`` commits the clock edge (flop/memory update) and advances
   ``cycle``.

Fault injection uses :meth:`Simulator.flip` on a flop output between steps,
which is exactly the paper's SFI fault model ("artificially flipping a
random bit at a random timestep").
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.netlist.cells import mem_addr_bits
from repro.netlist.netlist import Instance, Module
from repro.rtlsim.levelize import GATE, MEM_READ, levelize

_CHUNK = 4000  # generated statements per compiled function

#: Hard sanity cap on lanes per pass. Far above the useful range; passes
#: wider than this should be split into multiple passes.
MAX_LANES = 1 << 16


def compile_chunks(tag: str, lines: list[str], args: str) -> list:
    """Compile statement lines into chunked functions ``f(args)``.

    Chunking keeps each generated function below CPython's practical
    limits for very large netlists and keeps compile times linear.
    """
    fns = []
    for start in range(0, len(lines), _CHUNK):
        body = "\n    ".join(lines[start:start + _CHUNK]) or "pass"
        src = f"def _{tag}_{start}({args}):\n    {body}\n"
        ns: dict = {}
        exec(src, ns)  # noqa: S102 - trusted, self-generated code
        fns.append(ns[f"_{tag}_{start}"])
    return fns


def iter_bits(bits: int):
    """Yield the set-bit positions of *bits*, ascending."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def _uniform_scan(v: list[int], idxs: list[int], mask: int) -> tuple[int, int]:
    """(word assembled from lane 0's bits, mask of lanes differing).

    The returned divergence mask is the union over all bit nets of the
    XOR against lane 0's uniform pattern — exactly the lanes for which a
    per-lane slow path is needed.
    """
    word = 0
    div = 0
    for i, idx in enumerate(idxs):
        val = v[idx]
        if val & 1:
            word |= 1 << i
            div |= mask ^ val
        else:
            div |= val
    return word, div


def _gather(v: list[int], idxs: list[int], lane: int) -> int:
    """Assemble one lane's word from a list of bit nets (LSB first)."""
    word = 0
    for i, idx in enumerate(idxs):
        if (v[idx] >> lane) & 1:
            word |= 1 << i
    return word


class MemState:
    """State and lane-parallel access logic of one MEM instance.

    Invariant maintained by every mutation: an overlay entry always
    differs from the shared base word at the same address, so two lanes
    see identical memory contents iff their overlay dicts are equal.
    """

    def __init__(self, inst: Instance, index: dict[str, int], lanes: int):
        self.inst = inst
        self.depth: int = inst.params["depth"]
        self.width: int = inst.params["width"]
        self.lanes = lanes
        self.mask = (1 << lanes) - 1
        abits = mem_addr_bits(self.depth)
        self.abits = abits
        self._init = list(inst.params.get("init", []))
        nread = inst.params.get("nread", 1)
        self.raddr = [
            [index[inst.conn[f"raddr{p}_{i}"]] for i in range(abits)] for p in range(nread)
        ]
        self.rdata = [
            [index[inst.conn[f"rdata{p}_{i}"]] for i in range(self.width)] for p in range(nread)
        ]
        self.waddr = [index[inst.conn[f"waddr_{i}"]] for i in range(abits)]
        self.wdata = [index[inst.conn[f"wdata_{i}"]] for i in range(self.width)]
        self.wen = index[inst.conn["wen"]]
        self.base: list[int] = []
        self.overlays: dict[int, dict[int, int]] = {}
        self.reset()

    def reset(self) -> None:
        self.base = [0] * self.depth
        for addr, word in enumerate(self._init[: self.depth]):
            self.base[addr] = word & ((1 << self.width) - 1)
        self.overlays = {}

    # -- helpers -----------------------------------------------------------
    def lane_word(self, lane: int, addr: int) -> int:
        """Stored word at *addr* as seen by *lane*."""
        overlay = self.overlays.get(lane)
        if overlay is not None and addr in overlay:
            return overlay[addr]
        return self.base[addr]

    # -- simulation --------------------------------------------------------
    def read(self, v: list[int], port: int) -> None:
        ref_addr, div = _uniform_scan(v, self.raddr[port], self.mask)
        addr0 = ref_addr % self.depth
        word0 = self.base[addr0]
        mask = self.mask
        outs = [(mask if (word0 >> i) & 1 else 0) for i in range(self.width)]
        # Lanes that read the reference address but hold an overlay there.
        for lane, overlay in self.overlays.items():
            if (div >> lane) & 1:
                continue
            w = overlay.get(addr0)
            if w is None:
                continue
            bit = 1 << lane
            for i in iter_bits(w ^ word0):
                outs[i] ^= bit
        # Lanes whose read address diverges from the reference.
        for lane in iter_bits(div):
            addr = _gather(v, self.raddr[port], lane) % self.depth
            word = self.lane_word(lane, addr)
            bit = 1 << lane
            for i in iter_bits(word ^ word0):
                outs[i] ^= bit
        for idx, word in zip(self.rdata[port], outs):
            v[idx] = word

    def write(self, v: list[int]) -> None:
        wen = v[self.wen]
        if wen == 0:
            return
        mask = self.mask
        ref_w = wen & 1
        div = (mask ^ wen) if ref_w else wen
        a_word, a_div = _uniform_scan(v, self.waddr, mask)
        d_word, d_div = _uniform_scan(v, self.wdata, mask)
        div |= a_div | d_div
        if div == 0:
            # Every lane writes the same word to the same address.
            addr = a_word % self.depth
            self.base[addr] = d_word
            for overlay in self.overlays.values():
                overlay.pop(addr, None)
            return
        if ref_w:
            # The reference lane (and every non-diverged lane) writes
            # d_word at addr0: commit to the base, preserve the previous
            # word for diverged lanes that would otherwise see the change.
            addr0 = a_word % self.depth
            old = self.base[addr0]
            if d_word != old:
                self.base[addr0] = d_word
                for lane in iter_bits(div):
                    overlay = self.overlays.setdefault(lane, {})
                    cur = overlay.get(addr0)
                    if cur is None:
                        overlay[addr0] = old
                    elif cur == d_word:
                        del overlay[addr0]  # view now equals the new base
            for lane, overlay in self.overlays.items():
                if not (div >> lane) & 1:
                    overlay.pop(addr0, None)
        # Diverged lanes with their write enable set perform their own write.
        for lane in iter_bits(div & wen):
            addr = _gather(v, self.waddr, lane) % self.depth
            word = _gather(v, self.wdata, lane)
            overlay = self.overlays.setdefault(lane, {})
            if word == self.base[addr]:
                overlay.pop(addr, None)
            else:
                overlay[addr] = word

    def flip_bit(self, lane: int, addr: int, bit: int) -> None:
        """Invert one stored bit in one lane (particle strike model)."""
        addr %= self.depth
        word = self.lane_word(lane, addr) ^ (1 << (bit % self.width))
        overlay = self.overlays.setdefault(lane, {})
        if word == self.base[addr]:
            overlay.pop(addr, None)
        else:
            overlay[addr] = word

    def diverged_lanes(self) -> set[int]:
        """Lanes whose memory contents differ from the shared base."""
        return {lane for lane, overlay in self.overlays.items() if overlay}


class Simulator:
    """Compile and simulate a flattened module, ``lanes`` runs at a time."""

    def __init__(self, module: Module, lanes: int = 1):
        if lanes < 1:
            raise SimulationError("lanes must be >= 1")
        if lanes > MAX_LANES:
            raise SimulationError(
                f"lanes={lanes} exceeds the per-pass cap ({MAX_LANES}); "
                "split the campaign into more passes instead"
            )
        self.module = module
        self.lanes = lanes
        self.mask = (1 << lanes) - 1
        self.cycle = 0

        self.index: dict[str, int] = {}
        for net in sorted(module.nets):
            self.index[net] = len(self.index)

        self.mems: dict[str, MemState] = {}
        self._dffs: list[Instance] = []
        self._consts: list[tuple[int, int]] = []
        for inst in module.instances.values():
            if inst.kind == "MEM":
                self.mems[inst.name] = MemState(inst, self.index, lanes)
            elif inst.kind == "DFF":
                self._dffs.append(inst)
            elif inst.kind == "CONST0":
                self._consts.append((self.index[inst.conn["y"]], 0))
            elif inst.kind == "CONST1":
                self._consts.append((self.index[inst.conn["y"]], 1))

        n = len(self.index)
        self.values: list[int] = [0] * n
        self._next: list[int] = [0] * n
        self._comb_fns, self._seq_fns, self._commit_pairs = self._compile()
        self._dirty = True
        self.reset()

    # ------------------------------------------------------------------
    # compilation
    # ------------------------------------------------------------------
    def _gate_expr(self, inst: Instance) -> str:
        conn = inst.conn
        idx = self.index
        kind = inst.kind
        mask = self.mask

        def pin(name: str) -> str:
            return f"v[{idx[conn[name]]}]"

        if kind == "BUF":
            return pin("a")
        if kind == "NOT":
            return f"{mask} ^ {pin('a')}"
        if kind in ("AND", "OR", "XOR", "NAND", "NOR", "XNOR"):
            op = {"AND": " & ", "NAND": " & ", "OR": " | ", "NOR": " | ",
                  "XOR": " ^ ", "XNOR": " ^ "}[kind]
            terms = op.join(f"v[{idx[n]}]" for n in (conn[p] for p in inst.input_pins()))
            if kind in ("NAND", "NOR", "XNOR"):
                return f"{mask} ^ ({terms})"
            return terms
        if kind == "MUX2":
            a, b, s = pin("a"), pin("b"), pin("s")
            return f"({a} & ({mask} ^ {s})) | ({b} & {s})"
        raise SimulationError(f"no expression for cell {kind!r}")

    def _dff_line(self, inst: Instance) -> str:
        q = self.index[inst.conn["q"]]
        d = self.index[inst.conn["d"]]
        if "en" in inst.conn:
            en = self.index[inst.conn["en"]]
            expr = f"(v[{d}] & v[{en}]) | (v[{q}] & ({self.mask} ^ v[{en}]))"
        else:
            expr = f"v[{d}]"
        return f"nv[{q}] = {expr}"

    def _compile(self):
        # Combinational pass: statements per gate / one call per mem read.
        comb_lines: list[str] = []
        mem_readers: list = []
        for kind, inst, port in levelize(self.module):
            if kind == MEM_READ:
                reader = self.mems[inst.name]
                comb_lines.append(f"mr[{len(mem_readers)}](v, {port})")
                mem_readers.append(reader.read)
            elif kind == GATE:
                if inst.kind in ("CONST0", "CONST1"):
                    continue  # set once at reset
                out = self.index[inst.conn["y"]]
                comb_lines.append(f"v[{out}] = {self._gate_expr(inst)}")

        # Sequential pass: compute every next-state into nv, commit after.
        seq_lines: list[str] = []
        commit: list[int] = []
        for inst in self._dffs:
            seq_lines.append(self._dff_line(inst))
            commit.append(self.index[inst.conn["q"]])

        comb_fns = compile_chunks("comb", comb_lines, "v, mr")
        seq_fns = compile_chunks("seq", seq_lines, "v, nv")
        self._mem_readers = mem_readers
        return comb_fns, seq_fns, commit

    # ------------------------------------------------------------------
    # simulation control
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Power-on reset: flop init values, memory init images, inputs 0."""
        self.cycle = 0
        values = self.values
        for i in range(len(values)):
            values[i] = 0
        for idx, bit in self._consts:
            values[idx] = self.mask if bit else 0
        for inst in self._dffs:
            if inst.params.get("init", 0):
                values[self.index[inst.conn["q"]]] = self.mask
        for mem in self.mems.values():
            mem.reset()
        self._dirty = True

    def settle(self) -> None:
        """Evaluate combinational logic for the current cycle."""
        if not self._dirty:
            return
        v = self.values
        mr = self._mem_readers
        for fn in self._comb_fns:
            fn(v, mr)
        self._dirty = False

    def step(self, n: int = 1) -> None:
        """Advance *n* clock cycles (settle + edge commit per cycle)."""
        for _ in range(n):
            self.settle()
            v = self.values
            nv = self._next
            for fn in self._seq_fns:
                fn(v, nv)
            for mem in self.mems.values():
                mem.write(v)
            for q in self._commit_pairs:
                v[q] = nv[q]
            self.cycle += 1
            self._dirty = True

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def poke(self, net: str, value: int) -> None:
        """Set a primary-input net (lane-parallel value)."""
        self.values[self.index[net]] = value & self.mask
        self._dirty = True

    def poke_all_lanes(self, net: str, bit: int) -> None:
        """Set a primary input to the same boolean in every lane."""
        self.poke(net, self.mask if bit else 0)

    def poke_word(self, nets: list[str], word: int) -> None:
        """Drive a bus with the same word in every lane (LSB first)."""
        for i, net in enumerate(nets):
            self.poke_all_lanes(net, (word >> i) & 1)

    def peek(self, net: str) -> int:
        """Lane-parallel value of a net (settles combinational logic)."""
        self.settle()
        return self.values[self.index[net]]

    def peek_lane(self, net: str, lane: int) -> int:
        self.settle()
        return (self.values[self.index[net]] >> lane) & 1

    def peek_word(self, nets: list[str], lane: int) -> int:
        self.settle()
        v = self.values
        idx = self.index
        word = 0
        for i, net in enumerate(nets):
            if (v[idx[net]] >> lane) & 1:
                word |= 1 << i
        return word

    def flip(self, net: str, lane_mask: int) -> None:
        """Invert a state bit in the lanes selected by *lane_mask*.

        Intended for flop outputs between clock edges (the SFI fault
        model); flipping a combinational net would be overwritten by the
        next settle.
        """
        self.values[self.index[net]] ^= lane_mask & self.mask
        self._dirty = True

    def seq_state(self, lane: int) -> tuple[int, ...]:
        """All flop values of one lane, in a stable order."""
        v = self.values
        return tuple((v[q] >> lane) & 1 for q in self._commit_pairs)

    def lanes_differing_from(self, reference_lane: int = 0) -> set[int]:
        """Lanes whose architectural state differs from *reference_lane*.

        Compares every flop bit and every memory word; used by the SFI
        classifier to detect still-latent (unknown) faults.
        """
        diffs: set[int] = set()
        v = self.values
        ref_bit = 1 << reference_lane
        mask = self.mask
        for q in self._commit_pairs:
            val = v[q]
            pattern = mask if val & ref_bit else 0
            for lane in iter_bits((val ^ pattern) & mask):
                diffs.add(lane)
        for mem in self.mems.values():
            ref_overlay = mem.overlays.get(reference_lane, {})
            lanes_to_check = set(mem.overlays)
            if ref_overlay:
                lanes_to_check.update(range(self.lanes))
            for lane in lanes_to_check:
                if lane != reference_lane and mem.overlays.get(lane, {}) != ref_overlay:
                    diffs.add(lane)
        diffs.discard(reference_lane)
        return diffs
