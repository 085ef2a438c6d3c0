"""Structural Verilog export / strict-subset import."""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExlifParseError, ReproError
from repro.netlist.builder import ModuleBuilder
from repro.netlist.graph import extract_graph
from repro.netlist.netlist import Module
from repro.netlist.verilog import parse_structural_verilog, write_verilog
from repro.rtlsim.simulator import Simulator
from tests.conftest import make_fig7


def _gate_soup():
    b = ModuleBuilder("soup")
    a = b.input("a")
    c = b.input("c")
    s = b.input("s")
    n1 = b.and_(a, c)
    n2 = b.nor_(n1, s)
    n3 = b.xor_(a, n2, c)
    n4 = b.mux2(n1, n3, s)
    n5 = b.not_(n4)
    q = b.dff(n5, init=1)
    q2 = b.dff(q, en=s)
    b.output("y")
    b.gate("BUF", [q2], out="y")
    return b.done()


def test_write_contains_expected_idioms():
    text, names = write_verilog(_gate_soup())
    assert text.startswith("// generated")
    assert "module soup(" in text
    assert "always @(posedge clk)" in text
    assert "if (" in text          # enabled flop
    assert "? " in text            # mux ternary
    assert "initial" in text       # init values
    assert text.strip().endswith("endmodule")
    # every net has a mangled name and no illegal characters remain
    for mangled in names.values():
        assert "[" not in mangled and "$" not in mangled and "/" not in mangled


def test_name_mangling_collisions_resolved():
    b = ModuleBuilder("m")
    b.input("x[0]")
    b.input("x_0")
    b.output("y")
    b.gate("OR", ["x[0]", "x_0"], out="y")
    text, names = write_verilog(b.done())
    assert len(set(names.values())) == len(names)


def test_roundtrip_behavioural_equivalence():
    """Export -> parse -> simulate both, compare cycle by cycle."""
    original = _gate_soup()
    text, names = write_verilog(original)
    again = parse_structural_verilog(text)

    sim_a = Simulator(original, lanes=1)
    sim_b = Simulator(again, lanes=1)
    for step in range(24):
        stim = [(step >> 0) & 1, (step >> 1) & 1, (step >> 2) & 1]
        sim_a.poke("a", stim[0]); sim_a.poke("c", stim[1]); sim_a.poke("s", stim[2])
        sim_b.poke(names["a"], stim[0]); sim_b.poke(names["c"], stim[1])
        sim_b.poke(names["s"], stim[2])
        assert sim_a.peek("y") == sim_b.peek(names["y"]), step
        sim_a.step(); sim_b.step()


def test_roundtrip_preserves_structure_counts():
    original = _gate_soup()
    text, _ = write_verilog(original)
    again = parse_structural_verilog(text)
    orig_stats = original.stats()
    new_stats = again.stats()
    assert new_stats["DFF"] == orig_stats["DFF"]
    assert sum(v for k, v in new_stats.items() if k in ("AND", "NOR", "XOR"))\
        == sum(v for k, v in orig_stats.items() if k in ("AND", "NOR", "XOR"))


def test_mem_export_emits_array():
    b = ModuleBuilder("m")
    ra = b.input_bus("ra", 2)
    wa = b.input_bus("wa", 2)
    wd = b.input_bus("wd", 4)
    we = b.input("we")
    rd = b.mem(4, 4, [ra], wa, wd, we, name="arr", init=[1, 2, 3])[0]
    for i in range(4):
        b.output(f"y[{i}]")
        b.gate("BUF", [rd[i]], out=f"y[{i}]")
    text, _ = write_verilog(b.done())
    assert "reg [3:0] arr_mem [0:3];" in text
    assert "arr_mem[0] = 4'd1;" in text
    assert "always @(posedge clk) if (we) arr_mem[" in text


def test_parser_rejects_garbage():
    with pytest.raises(ExlifParseError, match="no module header"):
        parse_structural_verilog("this is not verilog")
    bad = "module m(clk);\n  input clk;\n  assign y = a + b;\nendmodule\n"
    with pytest.raises(ExlifParseError, match="unsupported expression"):
        parse_structural_verilog(bad)


def test_fig7_exports_cleanly():
    module, _ = make_fig7()
    text, names = write_verilog(module)
    again = parse_structural_verilog(text)
    assert len(again.sequential_instances()) == len(module.sequential_instances())
    # graph extraction works on the re-imported netlist too
    g = extract_graph(again)
    assert len(g.seq_nets()) == len(module.sequential_instances())


# ----------------------------------------------------------------------
# fuzz: the writer's output for real cores, mutated line by line
# ----------------------------------------------------------------------

@functools.cache
def _core_texts() -> tuple[str, ...]:
    from repro.designs.bigcore import BigcoreConfig, build_bigcore
    from repro.designs.tinycore.core import build_tinycore
    from repro.designs.tinycore.programs import default_dmem, program

    tiny = build_tinycore(program("fib"), default_dmem("fib")).module
    big = build_bigcore(BigcoreConfig(scale=0.1)).module
    return tuple(write_verilog(module)[0] for module in (tiny, big))


_JUNK = ("$", "{", "}", "(", ")", ";", "=", "<=", "?", ":", "~", "1'bx",
         "8'd7", "[0]", "module", "endmodule", "assign", "input", "output",
         "always", "initial", "begin", "//", "\\", "\t", "é")
_OPERATORS = ("&", "|", "^", "~", "?", ":", "=", "<=", "(", ")", ";")


def _mutate_verilog(text: str, kind: str, pick: int) -> str:
    lines = text.split("\n")
    at = pick % len(lines)
    if kind == "truncate":
        return text[: pick % (len(text) + 1)]
    if kind == "truncate-line":
        lines[at] = lines[at][: (pick // 7) % (len(lines[at]) + 1)]
    elif kind == "drop-line":
        del lines[at]
    elif kind == "duplicate-line":
        lines.insert((pick // 7) % len(lines), lines[at])
    elif kind == "double-operator":
        present = [op for op in _OPERATORS if op in lines[at]]
        if present:
            op = present[(pick // 7) % len(present)]
            lines[at] = lines[at].replace(op, op + " " + op, 1)
    elif kind == "junk-token":
        tokens = lines[at].split(" ")
        tokens.insert((pick // 7) % (len(tokens) + 1), _JUNK[(pick // 11) % len(_JUNK)])
        lines[at] = " ".join(tokens)
    return "\n".join(lines)


VERILOG_MUTATIONS = ("truncate", "truncate-line", "drop-line", "duplicate-line",
                     "double-operator", "junk-token")


@pytest.mark.fuzz
@settings(max_examples=300)
@given(
    core=st.sampled_from((0, 1)),
    mutations=st.lists(
        st.tuples(st.sampled_from(VERILOG_MUTATIONS), st.integers(0, 1 << 30)),
        min_size=1, max_size=4,
    ),
)
def test_fuzz_importer_parses_or_raises_a_repro_error(core, mutations):
    """A mutated core netlist parses to a Module or raises a ReproError."""
    text = _core_texts()[core]
    for kind, pick in mutations:
        text = _mutate_verilog(text, kind, pick)
    try:
        module = parse_structural_verilog(text)
    except ReproError:
        return
    assert isinstance(module, Module)
