"""Hierarchy flattening and structural validation."""

import re

import pytest

from repro.errors import NetlistError, ValidationError
from repro.netlist.builder import ModuleBuilder
from repro.netlist.flatten import flatten
from repro.netlist.netlist import INPUT, Instance, Module
from repro.netlist.validate import find_combinational_cycle, validate_module


def _leaf():
    b = ModuleBuilder("leaf")
    a = b.input("a")
    b.output("y")
    q = b.dff(a, name="reg")
    b.gate("BUF", [q], out="y")
    return b.done()


def _mid():
    b = ModuleBuilder("mid")
    a = b.input("a")
    b.output("y")
    b.add_net = b.module.add_net
    mid_net = b.fresh("w")
    b.subckt("leaf", {"a": a, "y": mid_net}, name="u0", attrs={"fub": "MID"})
    b.subckt("leaf", {"a": mid_net, "y": "y"}, name="u1")
    return b.done()


def test_flatten_two_levels():
    lib = {"leaf": _leaf(), "mid": _mid()}
    b = ModuleBuilder("top")
    a = b.input("a")
    b.output("y")
    b.subckt("mid", {"a": a, "y": "y"}, name="core", attrs={"fub": "TOP"})
    flat = flatten(b.done(), lib)
    names = set(flat.instances)
    assert "core/u0/reg" in names and "core/u1/reg" in names
    # attrs inherit downward; closest setting wins
    assert flat.instances["core/u0/reg"].attrs["fub"] == "MID"
    assert flat.instances["core/u1/reg"].attrs["fub"] == "TOP"
    validate_module(flat)


def test_flatten_missing_module():
    b = ModuleBuilder("top")
    a = b.input("a")
    b.subckt("ghost", {"a": a}, name="u")
    with pytest.raises(NetlistError, match="ghost"):
        flatten(b.done(), {})


def test_flatten_unconnected_port():
    b = ModuleBuilder("top")
    a = b.input("a")
    b.subckt("leaf", {"a": a}, name="u")  # y missing
    with pytest.raises(NetlistError, match="unconnected"):
        flatten(b.done(), {"leaf": _leaf()})


def test_flatten_recursion_detected():
    b = ModuleBuilder("rec")
    a = b.input("a")
    b.output("y")
    b.subckt("rec", {"a": a, "y": "y"}, name="self")
    m = b.done()
    with pytest.raises(NetlistError, match="recursive"):
        flatten(m, {"rec": m})


def test_validate_flags_undriven_net():
    b = ModuleBuilder("m")
    b.output("y")
    b.gate("BUF", ["nowhere"], out="y")
    with pytest.raises(ValidationError, match="undriven"):
        validate_module(b.done())


def test_validate_flags_undriven_output():
    b = ModuleBuilder("m")
    b.input("a")
    b.output("y")
    with pytest.raises(ValidationError, match="primary output"):
        validate_module(b.done())


def test_validate_flags_combinational_cycle():
    b = ModuleBuilder("m")
    a = b.input("a")
    m = b.module
    m.add_net("n1")
    m.add_net("n2")
    b.gate("AND", [a, "n2"], out="n1")
    b.gate("BUF", ["n1"], out="n2")
    b.output("y")
    b.gate("BUF", ["n1"], out="y")
    with pytest.raises(ValidationError, match="combinational cycle"):
        validate_module(b.done())


def test_dff_breaks_cycle():
    b = ModuleBuilder("m")
    a = b.input("a")
    m = b.module
    m.add_net("loop")
    g = b.gate("AND", [a, "loop"])
    b.dff(g, q="loop")
    assert find_combinational_cycle(b.done()) is None
    validate_module(b.done())


def test_mem_read_addr_to_data_is_combinational():
    # raddr -> rdata is a combinational arc: routing rdata back into raddr
    # through gates must be flagged as a cycle.
    b = ModuleBuilder("m")
    wa = b.input_bus("wa", 1)
    wd = b.input_bus("wd", 1)
    we = b.input("we")
    m = b.module
    m.add_net("ra0")
    rdata = b.mem(2, 1, [["ra0"]], wa, wd, we, name="mm")[0]
    b.gate("BUF", [rdata[0]], out="ra0")
    assert find_combinational_cycle(b.done()) is not None


def test_validate_rejects_nonflat_when_required():
    b = ModuleBuilder("m")
    a = b.input("a")
    b.subckt("child", {"a": a}, name="u")
    with pytest.raises(ValidationError, match="primitive"):
        validate_module(b.done(), require_flat=True)


# A cell missing a pin it needs is one listed problem, never a KeyError
# (or, for a variadic pin that is not a<index>, a ValueError).
MISSING_PIN_CASES = [
    ("NOT", {"a": "a"}, {}, "instance 'u': output pin 'y' unconnected"),
    ("DFF", {"d": "a"}, {}, "instance 'u': output pin 'q' unconnected"),
    ("AND", {"a0": "a", "a1": "b"}, {}, "instance 'u': output pin 'y' unconnected"),
    ("MUX2", {"a": "a", "b": "b", "y": "n"}, {},
     "instance 'u': input pin 's' unconnected"),
    ("BUF", {"y": "n"}, {}, "instance 'u': input pin 'a' unconnected"),
    ("DFF", {"en": "a", "q": "n"}, {}, "DFF 'u': no data input"),
    ("OR", {"a0": "a", "ab": "b", "y": "n"}, {},
     "instance 'u': OR input pins must be a0..a<n>"),
    ("MEM", {"raddr0_0": "a", "rdata0_0": "n"}, {"width": 1},
     "MEM 'u': bad depth/width 0x1"),
]


def _module_with(*instances: Instance) -> Module:
    module = Module("m")
    for port in ("a", "b"):
        module.add_port(port, INPUT)
    for inst in instances:
        module.add_instance(inst)
    return module


@pytest.mark.parametrize(
    "kind, conn, params, problem", MISSING_PIN_CASES,
    ids=[f"{kind}-{problem.split(': ', 1)[1]}" for kind, _, _, problem in MISSING_PIN_CASES],
)
def test_validate_lists_a_missing_pin(kind, conn, params, problem):
    module = _module_with(Instance("u", kind, dict(conn), dict(params)))
    with pytest.raises(ValidationError) as err:
        validate_module(module)
    assert str(err.value).splitlines()[1:] == [f"  {problem}"]


def test_validate_lists_every_problem_at_once():
    broken = [
        Instance(f"u{k}", kind,
                 {pin: f"n{k}" if net == "n" else net for pin, net in conn.items()},
                 dict(params))
        for k, (kind, conn, params, _) in enumerate(MISSING_PIN_CASES)
    ]
    module = _module_with(*broken, Instance("v", "BUF", {"a": "nowhere", "y": "n3"}))
    with pytest.raises(ValidationError) as err:
        validate_module(module)
    problems = [line.strip() for line in str(err.value).splitlines()[1:]]
    assert problems == [
        problem.replace("'u'", f"'u{k}'")
        for k, (_, _, _, problem) in enumerate(MISSING_PIN_CASES)
    ] + [
        "net 'n3' driven by both 'u3' and 'v'",
        "instance 'v' pin 'a': net 'nowhere' undriven",
    ]


def _cycle_of(module: Module) -> list[str]:
    with pytest.raises(ValidationError) as err:
        validate_module(module)
    found = re.search(r"combinational cycle through nets: (.*)", str(err.value))
    assert found is not None
    return found.group(1).split(" -> ")


def _reads_combinationally(module: Module, net: str, source: str) -> bool:
    """Whether the cell driving *net* reads *source* combinationally."""
    name, pin = module.drivers()[net]
    inst = module.instances[name]
    if inst.kind == "MEM":
        port = pin[len("rdata"):].split("_")[0]
        return any(p.startswith(f"raddr{port}_") and n == source
                   for p, n in inst.conn.items())
    return source in (inst.conn[p] for p in inst.input_pins())


def _assert_names_a_cycle(module: Module) -> None:
    nets = _cycle_of(module)
    assert nets == find_combinational_cycle(module)
    assert len(nets) >= 2 and nets[0] == nets[-1]
    assert len(set(nets[:-1])) == len(nets) - 1
    for net, source in zip(nets, nets[1:]):
        assert _reads_combinationally(module, net, source), (net, source)


def test_cycle_error_names_a_cycle_past_logic_feeding_it():
    b = ModuleBuilder("m")
    a = b.input("a")
    m = b.module
    for net in ("c0", "c1", "c2", "c3"):
        m.add_net(net)
    # Combinational logic upstream of the loop comes first, so its nets
    # have the lowest ids; logic downstream of the loop comes last.
    up = b.gate("NOT", [b.gate("BUF", [a], out="up0")], out="up1")
    b.gate("AND", [up, "c3"], out="c0")
    b.gate("XOR", ["c0", a], out="c1")
    b.gate("NOT", ["c1"], out="c2")
    b.gate("OR", ["c2", up], out="c3")
    b.dff(b.gate("BUF", ["c2"], out="down"), name="sink")
    _assert_names_a_cycle(b.done())


def test_cycle_error_names_a_self_loop():
    b = ModuleBuilder("m")
    b.input("a")
    b.module.add_net("x")
    b.gate("BUF", ["x"], out="x")
    assert _cycle_of(b.done()) == ["x", "x"]


def test_cycle_error_names_a_cycle_through_a_mem_read():
    b = ModuleBuilder("m")
    wa = b.input_bus("wa", 1)
    wd = b.input_bus("wd", 1)
    we = b.input("we")
    b.module.add_net("ra0")
    rdata = b.mem(2, 1, [["ra0"]], wa, wd, we, name="mm")[0]
    b.gate("NOT", [b.gate("BUF", [rdata[0]], out="mid")], out="ra0")
    module = b.done()
    _assert_names_a_cycle(module)
    assert rdata[0] in _cycle_of(module)


def test_generated_designs_have_no_combinational_cycle():
    from repro.designs.bigcore import BigcoreConfig, build_bigcore
    from repro.designs.bigcore.systolic import SystolicConfig, build_systolic
    from repro.designs.tinycore.core import build_tinycore
    from repro.designs.tinycore.programs import default_dmem, program

    modules = [
        build_tinycore(program("fib"), default_dmem("fib")).module,
        build_bigcore(BigcoreConfig(scale=0.3)).module,
        build_systolic(SystolicConfig(rows=3, cols=3)).module,
    ]
    for module in modules:
        assert find_combinational_cycle(module) is None
