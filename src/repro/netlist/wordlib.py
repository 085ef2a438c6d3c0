"""Word-level combinational building blocks.

These helpers generate gate networks on top of a
:class:`~repro.netlist.builder.ModuleBuilder`. A *word* is a list of net
names, LSB first. They are used heavily by the tinycore CPU datapath and
the bigcore synthetic FUB generators.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import NetlistError
from repro.netlist.builder import ModuleBuilder


def word_not(b: ModuleBuilder, a: Sequence[str]) -> list[str]:
    return [b.not_(bit) for bit in a]


def word_and(b: ModuleBuilder, a: Sequence[str], c: Sequence[str]) -> list[str]:
    _check_widths(a, c)
    return [b.and_(x, y) for x, y in zip(a, c)]


def word_or(b: ModuleBuilder, a: Sequence[str], c: Sequence[str]) -> list[str]:
    _check_widths(a, c)
    return [b.or_(x, y) for x, y in zip(a, c)]


def word_xor(b: ModuleBuilder, a: Sequence[str], c: Sequence[str]) -> list[str]:
    _check_widths(a, c)
    return [b.xor_(x, y) for x, y in zip(a, c)]


def word_mux2(b: ModuleBuilder, a: Sequence[str], c: Sequence[str], sel: str) -> list[str]:
    """Word-wide 2:1 mux: *a* when sel=0, *c* when sel=1."""
    _check_widths(a, c)
    return [b.mux2(x, y, sel) for x, y in zip(a, c)]


def word_mux(b: ModuleBuilder, words: Sequence[Sequence[str]], sel: Sequence[str]) -> list[str]:
    """N:1 word mux as a tree of 2:1 muxes.

    *words* must have ``2**len(sel)`` entries; ``sel[0]`` is the LSB.
    """
    if len(words) != (1 << len(sel)):
        raise NetlistError(f"word_mux needs {1 << len(sel)} inputs, got {len(words)}")
    level = [list(w) for w in words]
    for sbit in sel:
        nxt = []
        for i in range(0, len(level), 2):
            nxt.append(word_mux2(b, level[i], level[i + 1], sbit))
        level = nxt
    return level[0]


def full_adder(b: ModuleBuilder, a: str, c: str, cin: str) -> tuple[str, str]:
    """One-bit full adder; returns ``(sum, carry_out)``."""
    axc = b.xor_(a, c)
    s = b.xor_(axc, cin)
    cout = b.or_(b.and_(a, c), b.and_(axc, cin))
    return s, cout


def ripple_add(
    b: ModuleBuilder, a: Sequence[str], c: Sequence[str], cin: str | None = None
) -> tuple[list[str], str]:
    """Ripple-carry adder; returns ``(sum word, carry_out)``."""
    _check_widths(a, c)
    carry = cin if cin is not None else b.const0()
    out = []
    for x, y in zip(a, c):
        s, carry = full_adder(b, x, y, carry)
        out.append(s)
    return out, carry


def ripple_sub(b: ModuleBuilder, a: Sequence[str], c: Sequence[str]) -> tuple[list[str], str]:
    """a - c via two's complement; returns ``(difference, carry_out)``.

    ``carry_out`` is 1 when there was **no** borrow (i.e. a >= c unsigned).
    """
    return ripple_add(b, a, word_not(b, c), cin=b.const1())


def increment(b: ModuleBuilder, a: Sequence[str], by_one: str | None = None) -> list[str]:
    """a + 1 (or a + by_one when a control net is supplied)."""
    carry = by_one if by_one is not None else b.const1()
    out = []
    for bit in a:
        out.append(b.xor_(bit, carry))
        carry = b.and_(bit, carry)
    return out


def word_eq(b: ModuleBuilder, a: Sequence[str], c: Sequence[str]) -> str:
    """1 when the two words are bit-for-bit equal."""
    _check_widths(a, c)
    return b.and_(*[b.xnor_(x, y) for x, y in zip(a, c)]) if len(a) > 1 else b.xnor_(a[0], c[0])


def word_eq_const(b: ModuleBuilder, a: Sequence[str], value: int) -> str:
    """1 when the word equals a compile-time constant."""
    terms = []
    for i, bit in enumerate(a):
        terms.append(bit if (value >> i) & 1 else b.not_(bit))
    return b.and_(*terms) if len(terms) > 1 else terms[0]


def shift_left_const(b: ModuleBuilder, a: Sequence[str], amount: int) -> list[str]:
    """Logical shift left by a constant, zero filled."""
    zero = b.const0()
    width = len(a)
    return [zero] * min(amount, width) + list(a[: max(0, width - amount)])


def shift_right_const(b: ModuleBuilder, a: Sequence[str], amount: int) -> list[str]:
    """Logical shift right by a constant, zero filled."""
    zero = b.const0()
    width = len(a)
    return list(a[min(amount, width):]) + [zero] * min(amount, width)


def rotate_left_const(b: ModuleBuilder, a: Sequence[str], amount: int) -> list[str]:
    """Rotate left by a constant amount."""
    width = len(a)
    amount %= width
    return list(a[width - amount:]) + list(a[: width - amount])


def parity(b: ModuleBuilder, a: Sequence[str]) -> str:
    """XOR-reduce: odd parity of the word."""
    return b.xor_(*a) if len(a) > 1 else b.buf(a[0])


def decoder(b: ModuleBuilder, sel: Sequence[str], en: str | None = None) -> list[str]:
    """One-hot decoder: output ``i`` is 1 when sel == i (and en, if given)."""
    outs = []
    for value in range(1 << len(sel)):
        hit = word_eq_const(b, sel, value)
        outs.append(b.and_(hit, en) if en is not None else hit)
    return outs


def _check_widths(a: Sequence[str], c: Sequence[str]) -> None:
    if len(a) != len(c):
        raise NetlistError(f"width mismatch: {len(a)} vs {len(c)}")
