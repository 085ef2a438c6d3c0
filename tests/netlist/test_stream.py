"""The EXLIF line reader: one graph, whichever front-end built it.

``read_exlif_graph`` lowers a flat single-model file line by line — no
Module, no per-instance objects — through the same tokenizer, per-line
checks and per-cell lowering as ``parse_exlif`` + ``extract_graph``, so
every column of the two graphs (node order, connectivity, kinds, FUBs,
instance names, attributes, memories) and every ``Node`` view match for
the same text. ``exlif:`` designs take this path whenever the file is
flat; the fuzz test at the end holds it to that on mutated netlists.
"""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExlifParseError, NetlistError, ReproError
from repro.netlist.builder import ModuleBuilder
from repro.netlist.exlif import (
    FlattenRequired,
    parse_exlif,
    read_exlif_graph,
    write_exlif,
)
from repro.netlist.flatten import flatten
from repro.netlist.graph import extract_graph
from repro.pipeline.registry import resolve_design
from tests.rtlsim.test_random_circuits import _random_module


def _rich_module():
    """One of everything: mem, consts, enabled DFF, struct/ctrl/fub tags,
    variadic gates, multiple outputs."""
    b = ModuleBuilder("rich")
    a, c = b.input("a"), b.input("c")
    en = b.input("en")
    ra = b.input_bus("ra", 2)
    wa = b.input_bus("wa", 2)
    wd = b.input_bus("wd", 3)
    we = b.input("we")
    zero = b.const0(name="z0", attrs={"fub": "MISC"})
    one = b.const1(name="z1", attrs={"fub": "MISC"})
    rdata = b.mem(4, 3, [ra], wa, wd, we, name="arr",
                  attrs={"struct": "MEMS", "fub": "MEMF"})[0]
    g = b.and_(a, c, rdata[0], attrs={"fub": "ALU"})
    h = b.or_(g, zero, one, attrs={"fub": "ALU"})
    q = b.dff(h, en=en, name="hold",
              attrs={"fub": "ALU", "struct": "REGS", "bit": "0"})
    cfg = b.dff(q, name="cfg_mode", attrs={"fub": "ALU"})
    m = b.mux2(q, cfg, a, attrs={"fub": "ALU"})
    b.output(b.buf(m, name="out", attrs={"fub": "ALU"}))
    b.output(rdata[1])
    return b.done()


def _columns(graph) -> dict:
    """Every column and table of a graph (the caches excluded)."""
    return {k: v for k, v in vars(graph).items() if not k.startswith("_")}


def _assert_graphs_equal(obj, read):
    assert _columns(obj) == _columns(read)
    assert list(obj.nodes) == list(read.nodes)
    for net, node in obj.nodes.items():
        assert node == read.nodes[net], net
    assert obj.fanins() == read.fanins()
    assert obj.fanout() == read.fanout()


class TestEquivalence:
    def test_rich_module_matches_object_path(self, tmp_path):
        module = _rich_module()
        text = write_exlif(module)
        path = tmp_path / "rich.exlif"
        path.write_text(text)
        read = resolve_design(f"exlif:{path}").build().graph
        _assert_graphs_equal(extract_graph(parse_exlif(text)[module.name]), read)

    def test_line_iterable_source(self):
        module = _rich_module()
        text = write_exlif(module)
        obj = extract_graph(parse_exlif(text)[module.name])
        _assert_graphs_equal(obj, read_exlif_graph(text.splitlines()))
        _assert_graphs_equal(obj, read_exlif_graph(io.StringIO(text)))

    def test_systolic_solves_identically_through_both_paths(self):
        from repro.core.sart import SartConfig, run_sart
        from repro.designs.bigcore.systolic import (
            SystolicConfig,
            build_systolic,
            systolic_exlif_text,
        )

        cfg = SystolicConfig(rows=3, cols=3, data_width=2, acc_width=4,
                             tile=2)
        module = build_systolic(cfg).module
        read = read_exlif_graph(systolic_exlif_text(cfg).splitlines())
        _assert_graphs_equal(extract_graph(module), read)
        sart_cfg = SartConfig()
        assert (
            run_sart(module, config=sart_cfg).node_avfs
            == run_sart(read, config=sart_cfg).node_avfs
        )

    def test_forward_references_allowed(self):
        # A gate may mention nets driven only later in the file.
        lines = [
            ".model fwd",
            ".inputs a",
            ".gate AND g a0=a a1=later y=g",
            ".latch later d=g q=later init=0",
            ".end",
        ]
        graph = read_exlif_graph(lines)
        assert list(graph.nodes) == ["a", "g", "later"]
        assert graph.nodes["g"].fanin == ("a", "later")

    def test_hierarchical_file_lowers_after_flattening(self, tmp_path):
        # .subckt, several models or late ports: the file itself sends
        # exlif: through parse_exlif + flatten, into the same lowering.
        child = ModuleBuilder("child")
        child.output("z")
        child.gate("NOT", [child.input("a")], out="z")
        top = ModuleBuilder("top")
        top.output("y")
        top.subckt("child", {"a": top.input("x"), "z": "y"}, name="u0",
                   attrs={"fub": "F"})
        modules = {"top": top.done(), "child": child.done()}
        path = tmp_path / "hier.exlif"
        path.write_text(write_exlif(modules))
        graph = resolve_design(f"exlif:{path}").build().graph
        _assert_graphs_equal(extract_graph(flatten(modules["top"], modules)), graph)

        late = tmp_path / "late.exlif"
        late.write_text(".model m\n.gate BUF g a=a y=y\n.inputs a\n"
                        ".outputs y\n.end\n")
        graph = resolve_design(f"exlif:{late}").build().graph
        assert list(graph.nodes) == ["a", "y"]


class TestErrors:
    def _stream(self, lines):
        return read_exlif_graph(lines)

    def test_undriven_net_rejected(self):
        lines = [".model m", ".inputs a",
                 ".gate AND g a0=a a1=ghost y=g", ".end"]
        with pytest.raises(NetlistError, match="undriven nets.*ghost"):
            self._stream(lines)

    def test_net_driven_twice_rejected(self):
        lines = [".model m", ".inputs a", ".gate BUF g a=a y=g",
                 ".gate NOT g a=a y=g", ".end"]
        with pytest.raises(ExlifParseError, match="driven twice"):
            self._stream(lines)

    def test_subckt_rejected(self):
        lines = [".model m", ".subckt child u1 a=a", ".end"]
        with pytest.raises(ExlifParseError, match="flat module"):
            self._stream(lines)

    def test_second_module_rejected(self):
        lines = [".model m", ".end", ".model n", ".end"]
        with pytest.raises(ExlifParseError, match="single-module"):
            self._stream(lines)

    def test_unterminated_module_rejected(self):
        with pytest.raises(ExlifParseError, match="not terminated"):
            self._stream([".model m", ".inputs a"])

    def test_no_model_rejected(self):
        with pytest.raises(ExlifParseError, match="no .model"):
            self._stream(["# just a comment"])

    def test_unknown_cell_rejected(self):
        lines = [".model m", ".inputs a", ".gate FROB g a=a y=g", ".end"]
        with pytest.raises(ExlifParseError, match="unknown combinational"):
            self._stream(lines)

    def test_latch_missing_q_rejected(self):
        lines = [".model m", ".inputs a", ".latch r d=a init=0", ".end"]
        with pytest.raises(ExlifParseError, match="requires d= and q="):
            self._stream(lines)

    def test_error_carries_line_number(self):
        lines = [".model m", ".inputs a", ".gate FROB g a=a y=g", ".end"]
        with pytest.raises(ExlifParseError) as err:
            self._stream(lines)
        assert err.value.line_number == 3


# A valid file with one line swapped for a malformed one; each case names
# the line the error must point at.
_HEAD = ".model m\n.inputs a b\n.outputs y\n"
_TAIL = ".gate BUF yb a=x y=y\n.end\n"
_MEM = "raddr0_0=a rdata0_0=x waddr_0=a wdata_0=b wen=b"
MALFORMED = {
    "gate-without-y": (".gate AND g a0=a a1=b\n", 4, "missing pin 'y'"),
    "latch-init-x": (".latch r d=a q=x init=x\n", 4, "init='x' is not an integer"),
    "variadic-pin-ax": (".gate AND g a0=a ax=b y=x\n", 4, "bad variadic pin"),
    "mem-depth-two": (f".mem r depth=two width=1 {_MEM}\n", 4,
                      "depth='two' is not an integer"),
    "mem-init-z": (f".mem r depth=2 width=1 {_MEM} init=1,z\n", 4,
                   "init='z' is not an integer"),
    "net-driven-twice": (".gate BUF g1 a=a y=x\n.gate NOT g2 a=b y=x\n", 5,
                         "net 'x' driven twice"),
    "mem-name-twice": (f".mem r depth=2 width=1 {_MEM}\n"
                       ".mem r depth=2 width=1 raddr0_0=b rdata0_0=x2 "
                       "waddr_0=b wdata_0=a wen=a\n", 5, "duplicate instance 'r'"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_line_is_one_typed_error(case, tmp_path):
    from repro.pipeline import RunSpec, SartSpec, execute

    line, lineno, match = MALFORMED[case]
    text = _HEAD + line + _TAIL
    with pytest.raises(ExlifParseError, match=match) as parsed:
        parse_exlif(text)
    assert parsed.value.line_number == lineno
    path = tmp_path / "bad.exlif"
    path.write_text(text)
    with pytest.raises(ExlifParseError, match=match) as ran:
        execute(RunSpec(design=f"exlif:{path}", sart=SartSpec()))
    assert ran.value.line_number == lineno


# ----------------------------------------------------------------------
# fuzz: random netlists, mutated line by line
# ----------------------------------------------------------------------

def _mutate(text: str, kind: str, pick: int) -> str:
    lines = text.split("\n")
    at = pick % len(lines)
    if kind == "drop-line":
        del lines[at]
    elif kind == "duplicate-line":
        lines.insert((pick // 7) % len(lines), lines[at])
    elif kind == "drop-token":
        tokens = lines[at].split()
        if tokens:
            del tokens[(pick // 7) % len(tokens)]
        lines[at] = " ".join(tokens)
    elif kind == "word-for-integer":
        tokens = lines[at].split()
        numbered = [i for i, t in enumerate(tokens) if any(c.isdigit() for c in t)]
        if numbered:
            i = numbered[(pick // 7) % len(numbered)]
            tokens[i] = "".join("word" if c.isdigit() else c for c in tokens[i])
        lines[at] = " ".join(tokens)
    elif kind == "truncate":
        return text[: pick % (len(text) + 1)]
    elif kind == "insert-subckt":
        lines.insert(at, ".subckt child u_fuzz a=in0 z=fuzz_z")
    elif kind == "rename-cell":
        # Give one cell another cell's instance name; its outputs stay.
        cells = [(i, tokens) for i, tokens in enumerate(map(str.split, lines))
                 if tokens and len(tokens) > _NAME_AT.get(tokens[0], len(tokens))]
        if len(cells) > 1:
            (_, src), (dst, tokens) = cells[at % len(cells)], cells[(pick // 7) % len(cells)]
            tokens[_NAME_AT[tokens[0]]] = src[_NAME_AT[src[0]]]
            lines[dst] = " ".join(tokens)
    return "\n".join(lines)


# Cell directive -> position of the instance name among the line's tokens.
_NAME_AT = {".gate": 2, ".subckt": 2, ".latch": 1, ".mem": 1}


MUTATIONS = ("drop-line", "duplicate-line", "drop-token", "word-for-integer",
             "truncate", "insert-subckt", "rename-cell")


def _outcome(fn):
    try:
        return fn()
    except ReproError:
        return None


@pytest.mark.fuzz
@settings(max_examples=300)
@given(
    seed=st.integers(0, 10_000),
    mutations=st.lists(
        st.tuples(st.sampled_from(MUTATIONS), st.integers(0, 1 << 30)),
        max_size=3,
    ),
)
def test_fuzz_one_reader(tmp_path_factory, seed, mutations):
    """Both front-ends parse or raise a ReproError; on a flat single-model
    file they accept or reject it alike and build the same graph."""
    text = write_exlif(_random_module(seed, n_gates=12, n_dffs=3))
    for kind, pick in mutations:
        text = _mutate(text, kind, pick)
    path = tmp_path_factory.mktemp("fuzz") / "f.exlif"
    path.write_text(text)
    _outcome(lambda: resolve_design(f"exlif:{path}").build())
    modules = _outcome(lambda: parse_exlif(text))
    try:
        graph = read_exlif_graph(io.StringIO(text))
    except FlattenRequired:
        return                      # not flat: parse_exlif + flatten only
    except ReproError:
        graph = None
    expected = None
    if modules is not None and len(modules) == 1:
        (module,) = modules.values()
        expected = _outcome(lambda: extract_graph(module))
    assert (graph is None) == (expected is None)
    if graph is not None:
        assert _columns(graph) == _columns(expected)
