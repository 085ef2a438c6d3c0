"""Cell library for the netlist substrate.

Every primitive the simulator and the AVF walker understand is declared
here. Cells fall into three groups:

* **Combinational gates** — ``BUF``, ``NOT``, and the variadic gates
  ``AND``/``OR``/``NAND``/``NOR``/``XOR``/``XNOR`` plus ``MUX2``. Variadic
  gates take input pins ``a0 .. a{n-1}`` and drive pin ``y``.
* **Sequential** — ``DFF``: a positive-edge flip-flop with an optional
  enable pin. Pins ``d`` (data), ``en`` (optional enable) and ``q``
  (output). Parameter ``init`` gives the power-on value. A single implicit
  clock domain is assumed, as in the paper's one-cycle-latency analysis.
* **Memory** — ``MEM``: a word-addressed array primitive with asynchronous
  read ports and one synchronous write port. Arrays are the paper's "ACE
  structures": they are analyzed by ACE lifetime analysis in the
  performance model, *not* by the sequential-AVF walker, so modelling them
  behaviourally (rather than as a sea of flops) is faithful and keeps
  simulation fast. Pins are bit-blasted: ``raddr{p}_{i}``, ``rdata{p}_{i}``,
  ``waddr_{i}``, ``wdata_{i}``, ``wen``. Parameters: ``depth``, ``width``,
  ``nread`` and optional ``init`` (list of words).

Gate evaluation functions are *lane-parallel*: a net value is a Python
integer whose bit ``k`` is the net's boolean value in simulation lane ``k``.
This lets one simulation pass carry one golden lane plus dozens of
fault-injected lanes (see :mod:`repro.rtlsim.simulator`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Callable, Iterable, Sequence

# Names of the variadic combinational gates (pins a0..a{n-1} -> y).
VARIADIC_GATES = ("AND", "OR", "NAND", "NOR", "XOR", "XNOR")

# Cells whose output does not depend combinationally on any pin.
SEQUENTIAL_CELLS = ("DFF",)


@dataclass(frozen=True)
class CellSpec:
    """Static description of a primitive cell.

    Attributes:
        name: Cell type name (upper-case).
        variadic: True when the cell accepts ``a0..a{n-1}`` inputs.
        inputs: Fixed input pin names (empty for variadic cells).
        outputs: Output pin names.
        is_sequential: True when outputs change only at the clock edge.
        evaluate: Lane-parallel evaluation ``(inputs, mask) -> output`` for
            fixed-function combinational cells; ``None`` for DFF/MEM, which
            the simulator handles specially.
    """

    name: str
    variadic: bool
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    is_sequential: bool
    evaluate: Callable[[Sequence[int], int], int] | None = None


def _eval_buf(ins: Sequence[int], mask: int) -> int:
    return ins[0] & mask


def _eval_not(ins: Sequence[int], mask: int) -> int:
    return ~ins[0] & mask


def _eval_and(ins: Sequence[int], mask: int) -> int:
    return reduce(lambda a, b: a & b, ins) & mask


def _eval_or(ins: Sequence[int], mask: int) -> int:
    return reduce(lambda a, b: a | b, ins) & mask


def _eval_nand(ins: Sequence[int], mask: int) -> int:
    return ~reduce(lambda a, b: a & b, ins) & mask


def _eval_nor(ins: Sequence[int], mask: int) -> int:
    return ~reduce(lambda a, b: a | b, ins) & mask


def _eval_xor(ins: Sequence[int], mask: int) -> int:
    return reduce(lambda a, b: a ^ b, ins) & mask


def _eval_xnor(ins: Sequence[int], mask: int) -> int:
    return ~reduce(lambda a, b: a ^ b, ins) & mask


def _eval_mux2(ins: Sequence[int], mask: int) -> int:
    a, b, s = ins
    return ((a & ~s) | (b & s)) & mask


def _eval_const0(ins: Sequence[int], mask: int) -> int:
    return 0


def _eval_const1(ins: Sequence[int], mask: int) -> int:
    return mask


CELLS: dict[str, CellSpec] = {
    "BUF": CellSpec("BUF", False, ("a",), ("y",), False, _eval_buf),
    "NOT": CellSpec("NOT", False, ("a",), ("y",), False, _eval_not),
    "AND": CellSpec("AND", True, (), ("y",), False, _eval_and),
    "OR": CellSpec("OR", True, (), ("y",), False, _eval_or),
    "NAND": CellSpec("NAND", True, (), ("y",), False, _eval_nand),
    "NOR": CellSpec("NOR", True, (), ("y",), False, _eval_nor),
    "XOR": CellSpec("XOR", True, (), ("y",), False, _eval_xor),
    "XNOR": CellSpec("XNOR", True, (), ("y",), False, _eval_xnor),
    # MUX2: y = a when s=0, b when s=1.
    "MUX2": CellSpec("MUX2", False, ("a", "b", "s"), ("y",), False, _eval_mux2),
    "CONST0": CellSpec("CONST0", False, (), ("y",), False, _eval_const0),
    "CONST1": CellSpec("CONST1", False, (), ("y",), False, _eval_const1),
    # DFF: q <= (en ? d : q) at the clock edge; en pin optional.
    "DFF": CellSpec("DFF", False, ("d", "en"), ("q",), True, None),
    # MEM: bit-blasted pins generated from depth/width/nread parameters.
    "MEM": CellSpec("MEM", False, (), (), True, None),
}


def mem_pins(depth: int, width: int, nread: int) -> tuple[list[str], list[str]]:
    """Return ``(input_pins, output_pins)`` of a MEM instance.

    The address is ``ceil(log2(depth))`` bits wide (minimum one bit).
    """
    abits = mem_addr_bits(depth)
    inputs: list[str] = []
    outputs: list[str] = []
    for port in range(nread):
        inputs.extend(f"raddr{port}_{i}" for i in range(abits))
        outputs.extend(f"rdata{port}_{i}" for i in range(width))
    inputs.extend(f"waddr_{i}" for i in range(abits))
    inputs.extend(f"wdata_{i}" for i in range(width))
    inputs.append("wen")
    return inputs, outputs


def mem_addr_bits(depth: int) -> int:
    """Number of address bits for a MEM of the given depth."""
    return max(1, (depth - 1).bit_length())


def variadic_pins(conn: Iterable[str]) -> list[str]:
    """The ``a<i>`` input pins of a variadic gate, in index order.

    Raises :class:`ValueError` for an ``a`` pin whose index is not an
    integer.
    """
    return sorted([p for p in conn if p.startswith("a")], key=lambda p: int(p[1:]))


# Arity above which truth-table enumeration (2^k patterns) gives way to
# the closed forms for the wide variadic gates.
_SENS_ENUM_CAP = 12


@lru_cache(maxsize=None)
def input_sensitivities(kind: str, arity: int) -> tuple[float, ...]:
    """Per-pin sensitization probabilities of a combinational cell.

    Entry *i* is the probability, under uniformly random inputs, that
    flipping input *i* flips the output — the masking quantity logic
    derating composes along combinational paths (Asadi & Tahoori style).
    Computed exactly by truth-table enumeration with the cell's own
    lane-parallel ``evaluate`` (one lane per input pattern); gates wider
    than ``2^12`` patterns use the closed forms instead (AND/OR families:
    ``2^-(k-1)``, XOR family: ``1``), which the enumeration matches on
    every narrower arity.
    """
    spec = CELLS.get(kind)
    if spec is None or spec.evaluate is None:
        raise ValueError(f"no combinational evaluate for cell {kind!r}")
    if not spec.variadic:
        arity = len(spec.inputs)
    if arity <= 0:
        return ()
    if arity > _SENS_ENUM_CAP:
        if kind in ("AND", "OR", "NAND", "NOR"):
            return (2.0 ** (1 - arity),) * arity
        return (1.0,) * arity  # XOR / XNOR
    lanes = 1 << arity
    mask = (1 << lanes) - 1
    ins = [_sens_pattern(i, lanes) for i in range(arity)]
    y = spec.evaluate(ins, mask) & mask
    out = []
    for i in range(arity):
        flipped = list(ins)
        flipped[i] ^= mask
        y_i = spec.evaluate(flipped, mask) & mask
        out.append(bin(y ^ y_i).count("1") / lanes)
    return tuple(out)


def _sens_pattern(i: int, lanes: int) -> int:
    """Lane value of input *i* enumerating all input patterns.

    Bit ``L`` of the result is bit *i* of pattern index ``L``: blocks of
    ``2^i`` zeros alternating with ``2^i`` ones.
    """
    block = 1 << i
    unit = ((1 << block) - 1) << block      # one zero-block + one one-block
    period = 2 * block
    value = 0
    for offset in range(0, lanes, period):
        value |= unit << offset
    return value & ((1 << lanes) - 1)
