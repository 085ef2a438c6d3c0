"""Word-level building blocks, verified by simulation against Python ints."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netlist import wordlib
from repro.netlist.builder import ModuleBuilder
from repro.rtlsim.simulator import Simulator

WIDTH = 8
MASK = (1 << WIDTH) - 1


def _build_and_sim(make_outputs):
    """Build a module whose outputs are produced by *make_outputs(b, a, c)*."""
    b = ModuleBuilder("m")
    a = b.input_bus("a", WIDTH)
    c = b.input_bus("c", WIDTH)
    outs = make_outputs(b, a, c)
    for i, net in enumerate(outs):
        b.output(f"y[{i}]")
        b.gate("BUF", [net], out=f"y[{i}]")
    sim = Simulator(b.done(), lanes=1)
    ybus = [f"y[{i}]" for i in range(len(outs))]

    def run(x, z):
        sim.poke_word(a, x)
        sim.poke_word(c, z)
        return sim.peek_word(ybus, 0)

    return run


@settings(max_examples=40)
@given(st.integers(0, MASK), st.integers(0, MASK))
def test_ripple_add_matches_python(x, z):
    run = _ripple_add_runner()
    assert run(x, z) == (x + z) & MASK


def _ripple_add_runner():
    # One simulator per test run would be slow under hypothesis; cache it.
    if not hasattr(_ripple_add_runner, "run"):
        _ripple_add_runner.run = _build_and_sim(
            lambda b, a, c: wordlib.ripple_add(b, a, c)[0]
        )
    return _ripple_add_runner.run


@settings(max_examples=40)
@given(st.integers(0, MASK), st.integers(0, MASK))
def test_ripple_sub_matches_python(x, z):
    if not hasattr(test_ripple_sub_matches_python, "run"):
        test_ripple_sub_matches_python.run = _build_and_sim(
            lambda b, a, c: wordlib.ripple_sub(b, a, c)[0]
        )
    assert test_ripple_sub_matches_python.run(x, z) == (x - z) & MASK


@pytest.mark.parametrize(
    "op,py",
    [
        (wordlib.word_and, lambda x, z: x & z),
        (wordlib.word_or, lambda x, z: x | z),
        (wordlib.word_xor, lambda x, z: x ^ z),
    ],
)
def test_bitwise_words(op, py):
    run = _build_and_sim(lambda b, a, c: op(b, a, c))
    for x, z in [(0, 0), (MASK, 0x5A), (0x33, 0xCC), (MASK, MASK)]:
        assert run(x, z) == py(x, z)


def test_word_not():
    run = _build_and_sim(lambda b, a, c: wordlib.word_not(b, a))
    assert run(0x5A, 0) == (~0x5A) & MASK


def test_increment():
    run = _build_and_sim(lambda b, a, c: wordlib.increment(b, a))
    assert run(0, 0) == 1
    assert run(MASK, 0) == 0
    assert run(0x7F, 0) == 0x80


def test_is_zero_and_eq():
    run = _build_and_sim(lambda b, a, c: [wordlib.word_eq(b, a, c)])
    assert run(0, 7) == 0
    assert run(9, 9) == 1
    assert run(0, 0) == 1


def test_word_eq_const():
    run = _build_and_sim(lambda b, a, c: [wordlib.word_eq_const(b, a, 0xA5)])
    assert run(0xA5, 0) == 1
    assert run(0xA4, 0) == 0


def test_constant_shifts_and_rotate():
    def make(b, a, c):
        return (
            wordlib.shift_left_const(b, a, 3)
            + wordlib.shift_right_const(b, a, 2)
            + wordlib.rotate_left_const(b, a, 1)
        )

    run = _build_and_sim(make)
    x = 0b1011_0110
    got = run(x, 0)
    left = got & MASK
    right = (got >> WIDTH) & MASK
    rot = (got >> (2 * WIDTH)) & MASK
    assert left == (x << 3) & MASK
    assert right == x >> 2
    assert rot == ((x << 1) | (x >> (WIDTH - 1))) & MASK


def test_parity_and_decoder():
    def make(b, a, c):
        return [wordlib.parity(b, a)] + wordlib.decoder(b, a[:3])

    run = _build_and_sim(make)
    got = run(5, 0)  # 5 = 0b101, parity 0 over 8 bits? 5 has two bits -> even
    assert got & 1 == 0
    onehot = got >> 1
    assert onehot == 1 << 5


def test_word_mux_tree():
    def make(b, a, c):
        words = [[b.const1() if (v >> i) & 1 else b.const0() for i in range(4)]
                 for v in (1, 2, 4, 8)]
        return wordlib.word_mux(b, words, c[:2])

    run = _build_and_sim(make)
    for sel, expect in [(0, 1), (1, 2), (2, 4), (3, 8)]:
        assert run(0, sel) == expect
