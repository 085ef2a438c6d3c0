"""Unit tests for the cell library."""

import pytest

from repro.netlist.cells import (
    CELLS,
    VARIADIC_GATES,
    mem_addr_bits,
    mem_pins,
)


def test_every_variadic_gate_declared():
    for name in VARIADIC_GATES:
        assert CELLS[name].variadic
        assert not CELLS[name].is_sequential


def test_dff_and_mem_are_sequential():
    assert CELLS["DFF"].is_sequential
    assert CELLS["MEM"].is_sequential
    assert not CELLS["AND"].is_sequential


@pytest.mark.parametrize(
    "kind,inputs,expected",
    [
        ("BUF", [0b1010], 0b1010),
        ("NOT", [0b1010], 0b0101),
        ("AND", [0b1100, 0b1010], 0b1000),
        ("OR", [0b1100, 0b1010], 0b1110),
        ("NAND", [0b1100, 0b1010], 0b0111),
        ("NOR", [0b1100, 0b1010], 0b0001),
        ("XOR", [0b1100, 0b1010], 0b0110),
        ("XNOR", [0b1100, 0b1010], 0b1001),
        # MUX2(a, b, s): a where s=0, b where s=1.
        ("MUX2", [0b1100, 0b1010, 0b0011], 0b1110),
        ("CONST0", [], 0b0000),
        ("CONST1", [], 0b1111),
    ],
)
def test_lane_parallel_evaluation(kind, inputs, expected):
    assert CELLS[kind].evaluate(inputs, 0b1111) == expected


def test_three_input_gates_reduce():
    assert CELLS["AND"].evaluate([0b111, 0b110, 0b011], 0b111) == 0b010
    assert CELLS["XOR"].evaluate([0b111, 0b110, 0b011], 0b111) == 0b010


def test_not_masks_high_bits():
    # Complement must never leak bits above the lane mask.
    assert CELLS["NOT"].evaluate([0b01], 0b11) == 0b10


@pytest.mark.parametrize("depth,expected", [(2, 1), (4, 2), (5, 3), (8, 3), (9, 4), (256, 8)])
def test_mem_addr_bits(depth, expected):
    assert mem_addr_bits(depth) == expected


def test_mem_pins_layout():
    ins, outs = mem_pins(depth=8, width=4, nread=2)
    assert "raddr0_0" in ins and "raddr1_2" in ins
    assert "waddr_2" in ins and "wdata_3" in ins and "wen" in ins
    assert outs == [f"rdata0_{i}" for i in range(4)] + [f"rdata1_{i}" for i in range(4)]
