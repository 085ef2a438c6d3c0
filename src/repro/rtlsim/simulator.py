"""Lane-parallel cycle-based gate-level simulator.

A net value is one Python integer: bit ``k`` is the net's boolean value
in lane ``k``, and ``lanes`` independent simulations advance together.
Python bigints give arbitrary lane counts for free — a 256-lane pass
simply carries 256-bit integers — and the netlist is levelized once and
compiled into straight-line statements (one per gate), which stay an
order of magnitude faster than interpreting it gate by gate. Per-gate
cost grows sublinearly with lane count (CPython bigint limbs), so wider
passes amortize the fixed per-cycle interpreter overhead.

Memory primitives are bit-sliced the same way (:class:`MemState`): a
row holds one lane mask per bit, and an access partitions its lanes by
address, so its cost follows the number of distinct addresses the lanes
drive, not the number of lanes. :meth:`Simulator.snapshot` records one
lane's state and :meth:`Simulator.restore` puts it into every lane, so a
fault-injection pass can start where its first fault lands.

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

from dataclasses import dataclass

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


def _split_by_address(v: list[int], steps: list[tuple[int, int]],
                      lanes: int) -> tuple[int, list[tuple[int, int]]]:
    """Partition *lanes* by the address they drive on a bus.

    *steps* pairs each address-bit net with its place value. Returns the
    address bits every lane in *lanes* sets, plus ``(lane mask,
    address)`` groups holding the remaining bits; each address bit on
    which the lanes disagree splits the groups once, so the work follows
    the number of distinct addresses, not the number of lanes.
    """
    common = 0
    groups = [(lanes, 0)]
    for idx, step in steps:
        bits = v[idx] & lanes
        if not bits:
            continue
        if bits == lanes:
            common |= step
            continue
        split = []
        for group, addr in groups:
            high = group & bits
            if not high:
                split.append((group, addr))
            elif high == group:
                split.append((group, addr | step))
            else:
                split.append((group ^ high, addr))
                split.append((high, addr | step))
        groups = split
    return common, groups


def _lane_bits(masks, lane: int) -> int:
    """One lane's bits of a sequence of lane masks, as a word (LSB first)."""
    word = 0
    for i, bits in enumerate(masks):
        if (bits >> lane) & 1:
            word |= 1 << i
    return word


class MemState:
    """State and lane-parallel access logic of one MEM instance.

    Storage is bit-sliced: ``rows[addr]`` is a tuple of ``width`` lane
    masks, bit ``k`` of mask ``i`` being bit ``i`` of the word lane
    ``k`` holds at *addr*. A read or write partitions its lanes by the
    address they drive (:func:`_split_by_address`) and moves whole lane
    masks, so its cost follows the number of distinct addresses, not the
    number of lanes that diverge.

    Invariant: outside ``touched``, every lane holds ``image[addr]``
    (``rows[addr]`` broadcasts it). Each write and strike adds its
    address to ``touched``; :meth:`divergence` folds the rows it finds
    uniform back into ``image``, so it and :meth:`lane_word` visit only
    rows that may differ across lanes.
    """

    def __init__(self, inst: Instance, index: dict[str, int], lanes: int):
        self.inst = inst
        self.depth: int = inst.params["depth"]
        self.width: int = inst.params["width"]
        self.mask = (1 << lanes) - 1
        abits = mem_addr_bits(self.depth)
        self._init = [0] * self.depth
        for addr, word in enumerate(inst.params.get("init", [])[: self.depth]):
            self._init[addr] = word & ((1 << self.width) - 1)
        nread = inst.params.get("nread", 1)
        self.raddr = [
            [(index[inst.conn[f"raddr{p}_{i}"]], 1 << i) for i in range(abits)]
            for p in range(nread)
        ]
        self.rdata = [
            [index[inst.conn[f"rdata{p}_{i}"]] for i in range(self.width)] for p in range(nread)
        ]
        self.waddr = [(index[inst.conn[f"waddr_{i}"]], 1 << i) for i in range(abits)]
        self.wdata = [index[inst.conn[f"wdata_{i}"]] for i in range(self.width)]
        self.wen = index[inst.conn["wen"]]
        self.image: list[int] = []
        self.rows: list[tuple[int, ...]] = []
        self.touched: set[int] = set()
        self.reset()

    def reset(self) -> None:
        self.load(self._init)

    def load(self, words) -> None:
        """Store *words* (one per address) in every lane."""
        mask, bits = self.mask, range(self.width)
        self.image = list(words)
        row_of = {word: tuple(mask if (word >> i) & 1 else 0 for i in bits)
                  for word in set(self.image)}
        self.rows = [row_of[word] for word in self.image]
        self.touched = set()

    # -- helpers -----------------------------------------------------------
    def lane_word(self, lane: int, addr: int) -> int:
        """Stored word at *addr* as seen by *lane*."""
        if addr in self.touched:
            return _lane_bits(self.rows[addr], lane)
        return self.image[addr]

    def lane_words(self, lane: int) -> list[int]:
        """Every stored word as seen by *lane*, one per address."""
        words = list(self.image)
        for addr in self.touched:
            words[addr] = _lane_bits(self.rows[addr], lane)
        return words

    def divergence(self, reference_lane: int = 0) -> int:
        """Mask of the lanes whose stored words differ from *reference_lane*'s."""
        mask = self.mask
        ref = 1 << reference_lane
        div = 0
        rows = self.rows
        for addr in list(self.touched):
            row_div = 0
            for bits in rows[addr]:
                row_div |= (mask ^ bits) if bits & ref else bits
            if row_div:
                div |= row_div
            else:
                self.image[addr] = _lane_bits(rows[addr], reference_lane)
                self.touched.discard(addr)
        return div

    # -- simulation --------------------------------------------------------
    def read(self, v: list[int], port: int) -> None:
        common, groups = _split_by_address(v, self.raddr[port], self.mask)
        rows, depth = self.rows, self.depth
        if len(groups) == 1:
            words = rows[common % depth]
        else:
            words = [0] * self.width
            for lanes, addr in groups:
                for i, bits in enumerate(rows[(common | addr) % depth]):
                    words[i] |= bits & lanes
        for idx, bits in zip(self.rdata[port], words):
            v[idx] = bits

    def write(self, v: list[int]) -> None:
        wen = v[self.wen]
        if wen == 0:
            return
        common, groups = _split_by_address(v, self.waddr, wen)
        data = tuple(map(v.__getitem__, self.wdata))
        rows, depth, mask = self.rows, self.depth, self.mask
        for lanes, addr in groups:
            addr = (common | addr) % depth
            if lanes == mask:
                rows[addr] = data
            else:
                keep = mask ^ lanes
                rows[addr] = tuple([
                    (old & keep) | (new & lanes) for old, new in zip(rows[addr], data)
                ])
            self.touched.add(addr)

    def flip_bit(self, lane: int, addr: int, bit: int) -> None:
        """Invert one stored bit in one lane (particle strike model)."""
        addr %= self.depth
        row = list(self.rows[addr])
        row[bit % self.width] ^= 1 << lane
        self.rows[addr] = tuple(row)
        self.touched.add(addr)


@dataclass(frozen=True)
class SimState:
    """One lane's state at the start of a cycle: what :meth:`Simulator.restore`
    needs to continue from there in every lane."""

    cycle: int
    flops: int                              # bit i: flop i, in commit order
    mems: tuple[tuple[int, ...], ...]       # per MEM, one word per address


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
    def _clear(self, cycle: int) -> None:
        """Every net 0 but the constants, at *cycle*; settle on next use."""
        self.cycle = cycle
        values = self.values
        for i in range(len(values)):
            values[i] = 0
        for idx, bit in self._consts:
            values[idx] = self.mask if bit else 0
        self._dirty = True

    def reset(self) -> None:
        """Power-on reset: flop init values, memory init images, inputs 0."""
        self._clear(0)
        for inst in self._dffs:
            if inst.params.get("init", 0):
                self.values[self.index[inst.conn["q"]]] = self.mask
        for mem in self.mems.values():
            mem.reset()

    def snapshot(self, lane: int = 0) -> SimState:
        """*lane*'s flops, memory words and the cycle, for :meth:`restore`."""
        v = self.values
        flops = 0
        for i, q in enumerate(self._commit_pairs):
            if (v[q] >> lane) & 1:
                flops |= 1 << i
        mems = tuple(tuple(mem.lane_words(lane)) for mem in self.mems.values())
        return SimState(cycle=self.cycle, flops=flops, mems=mems)

    def restore(self, state: SimState) -> None:
        """Put *state* into every lane: a reset that lands at ``state.cycle``."""
        self._clear(state.cycle)
        values = self.values
        for i, q in enumerate(self._commit_pairs):
            if (state.flops >> i) & 1:
                values[q] = self.mask
        for mem, words in zip(self.mems.values(), state.mems):
            mem.load(words)

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
        classifier to detect still-latent (unknown) faults. The
        divergence masks of all flops and of the memory rows that may
        differ are ORed, and the union is expanded once.
        """
        v = self.values
        ref_bit = 1 << reference_lane
        mask = self.mask
        div = 0
        for q in self._commit_pairs:
            val = v[q]
            div |= (mask ^ val) if val & ref_bit else val
        for mem in self.mems.values():
            div |= mem.divergence(reference_lane)
        return set(iter_bits(div & ~ref_bit))
