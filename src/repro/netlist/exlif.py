"""EXLIF: the textual netlist interchange format.

The paper's flow compiles RTL into "intermediate-format RTL files (called
EXLIF files)". We define a BLIF-inspired line format that round-trips the
:class:`~repro.netlist.netlist.Module` model:

.. code-block:: text

    # comment
    .model ieu
    .inputs a[0] a[1]
    .outputs y[0]
    .gate AND g1 a0=a[0] a1=a[1] y=n$1 @fub=IEU
    .latch q1 d=n$1 q=y[0] en=stall init=0 @struct=rob @bit=3
    .mem rf depth=8 width=16 nread=2 wen=we waddr_0=wa0 ... init=0,0,...
    .subckt adder u_add a=x[0] b=y[0] s=s[0]
    .end

* Tokens never contain whitespace; ``pin=net`` binds pins, ``@key=value``
  sets instance attributes, ``key=value`` before ``@`` tokens are pins or
  parameters depending on the directive.
* A file may contain several ``.model`` blocks; :func:`parse_exlif`
  returns them in file order as a name->Module dict.

One line loop (:func:`_records`) tokenizes and checks every line, and
two front-ends consume it: :func:`parse_exlif` builds Modules, and
:func:`read_exlif_graph` lowers a flat single-model file straight into a
:class:`~repro.netlist.graph.NetGraph` without one. Lines end at ``\\n``,
``\\r\\n`` or ``\\r``.
"""

from __future__ import annotations

import io
from typing import Any, Iterable, Iterator, Mapping

from repro.errors import ExlifParseError
from repro.netlist.cells import CELLS, mem_pins, variadic_pins
from repro.netlist.graph import GraphBuilder, NetGraph, NodeKind, lower_cell
from repro.netlist.netlist import INPUT, OUTPUT, Instance, Module

_FORMAT_VERSION = "exlif-1"


def write_exlif(modules: Module | dict[str, Module] | list[Module]) -> str:
    """Serialize one or more modules to EXLIF text."""
    if isinstance(modules, Module):
        modules = [modules]
    elif isinstance(modules, dict):
        modules = list(modules.values())
    out = io.StringIO()
    out.write(f"# {_FORMAT_VERSION}\n")
    for module in modules:
        _write_module(out, module)
    return out.getvalue()


def _write_module(out: io.StringIO, module: Module) -> None:
    out.write(f".model {module.name}\n")
    inputs = module.input_ports()
    outputs = module.output_ports()
    if inputs:
        out.write(".inputs " + " ".join(inputs) + "\n")
    if outputs:
        out.write(".outputs " + " ".join(outputs) + "\n")
    for inst in module.instances.values():
        out.write(cell_line(inst.name, inst.kind, inst.conn, inst.params, inst.attrs))
    out.write(".end\n")


def cell_line(
    name: str,
    kind: str,
    conn: Mapping[str, str],
    params: Mapping,
    attrs: Mapping[str, str],
) -> str:
    """One instance as an EXLIF line, newline included.

    Pins and attributes are written sorted, a latch as ``d q [en] init``
    and a memory with its parameters first: the one field order every
    EXLIF writer uses.
    """
    tail = "".join(f" @{k}={v}" for k, v in sorted(attrs.items())) + "\n"
    if kind == "DFF":
        fields = [f"d={conn['d']}", f"q={conn['q']}"]
        if "en" in conn:
            fields.append(f"en={conn['en']}")
        fields.append(f"init={params.get('init', 0)}")
        return f".latch {name} " + " ".join(fields) + tail
    pins = [f"{pin}={net}" for pin, net in sorted(conn.items())]
    if kind == "MEM":
        fields = [
            f"depth={params['depth']}",
            f"width={params['width']}",
            f"nread={params.get('nread', 1)}",
            *pins,
        ]
        if "init" in params:
            fields.append("init=" + ",".join(str(v) for v in params["init"]))
        return f".mem {name} " + " ".join(fields) + tail
    directive = ".gate" if kind in CELLS else ".subckt"
    return f"{directive} {kind} {name} " + " ".join(pins) + tail


# ----------------------------------------------------------------------
# reading: one line loop, two front-ends
# ----------------------------------------------------------------------

def _records(lines: Iterable[str]) -> Iterator[tuple[int, str, Any]]:
    """Tokenize and check EXLIF *lines*; yield ``(lineno, directive, value)``.

    ``value`` is the module name for ``.model``/``.end``, the net list
    for ``.inputs``/``.outputs``, and ``(name, kind, conn, params,
    attrs)`` for a cell line. Every malformed line raises
    :class:`ExlifParseError` carrying its line number, including a net
    driven twice (by an input or a primitive cell) and a repeated port or
    instance name within one module.
    """
    model: str | None = None
    model_line = 0
    ports: set[str] = set()
    driven: set[str] = set()
    insts: set[str] = set()
    for lineno, raw in enumerate(lines, start=1):
        tokens = raw.partition("#")[0].split()
        if not tokens:
            continue
        directive = tokens[0]
        if directive == ".model":
            if model is not None:
                raise ExlifParseError("nested .model (missing .end?)", lineno)
            if len(tokens) != 2:
                raise ExlifParseError(".model needs exactly one name", lineno)
            model, model_line = tokens[1], lineno
            ports, driven, insts = set(), set(), set()
            yield lineno, directive, model
        elif model is None:
            raise ExlifParseError(f"directive {directive!r} outside .model", lineno)
        elif directive == ".end":
            yield lineno, directive, model
            model = None
        elif directive in (".inputs", ".outputs"):
            nets = tokens[1:]
            _claim(ports, nets, "duplicate port {!r}", lineno)
            if directive == ".inputs":
                _claim(driven, nets, "net {!r} driven twice", lineno)
            yield lineno, directive, nets
        else:
            parse = _CELL_LINES.get(directive)
            if parse is None:
                raise ExlifParseError(f"unknown directive {directive!r}", lineno)
            cell, outputs = parse(tokens, lineno)
            _claim(driven, outputs, "net {!r} driven twice", lineno)
            _claim(insts, (cell[0],), "duplicate instance {!r}", lineno)
            yield lineno, directive, cell
    if model is not None:
        raise ExlifParseError(f"module {model!r} not terminated by .end", model_line)


def _claim(seen: set[str], names: Iterable[str], message: str, lineno: int) -> None:
    for name in names:
        if name in seen:
            raise ExlifParseError(message.format(name), lineno)
        seen.add(name)


def _split_fields(tokens: list[str], lineno: int) -> tuple[dict[str, str], dict[str, str]]:
    """Split remaining tokens into ``pin=net`` fields and ``@key=value`` attrs."""
    fields: dict[str, str] = {}
    attrs: dict[str, str] = {}
    for token in tokens:
        key, eq, value = token.partition("=")
        if not eq:
            raise ExlifParseError(f"malformed field {token!r}", lineno)
        target = fields
        if key.startswith("@"):
            key, target = key[1:], attrs
        if key in target:
            raise ExlifParseError(f"duplicate field {key!r}", lineno)
        target[key] = value
    return fields, attrs


def _int(raw: str, key: str, lineno: int) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ExlifParseError(f"{key}={raw!r} is not an integer", lineno) from None


def _require(conn: Mapping[str, str], pins: Iterable[str], what: str, lineno: int) -> None:
    for pin in pins:
        if pin not in conn:
            raise ExlifParseError(f"{what} missing pin {pin!r}", lineno)


# Each cell-line check returns ``((name, kind, conn, params, attrs),
# nets the cell drives)``; a ``.subckt`` drives none the reader can see.

def _gate_line(tokens: list[str], lineno: int) -> tuple:
    if len(tokens) < 4:
        raise ExlifParseError(".gate needs KIND NAME and pins", lineno)
    kind, name = tokens[1], tokens[2]
    spec = CELLS.get(kind)
    if spec is None or spec.is_sequential:
        raise ExlifParseError(f"unknown combinational cell {kind!r}", lineno)
    conn, attrs = _split_fields(tokens[3:], lineno)
    if spec.variadic:
        try:
            variadic_pins(conn)
        except ValueError as exc:
            raise ExlifParseError(f".gate {name!r}: bad variadic pin: {exc}", lineno) from None
    _require(conn, spec.inputs + spec.outputs, f".gate {name!r}", lineno)
    return (name, kind, conn, {}, attrs), [conn["y"]]


def _latch_line(tokens: list[str], lineno: int) -> tuple:
    if len(tokens) < 3:
        raise ExlifParseError(".latch needs NAME and pins", lineno)
    name = tokens[1]
    conn, attrs = _split_fields(tokens[2:], lineno)
    init = _int(conn.pop("init", "0"), "init", lineno)
    if "d" not in conn or "q" not in conn:
        raise ExlifParseError(".latch requires d= and q=", lineno)
    return (name, "DFF", conn, {"init": init}, attrs), [conn["q"]]


def _mem_line(tokens: list[str], lineno: int) -> tuple:
    if len(tokens) < 3:
        raise ExlifParseError(".mem needs NAME and fields", lineno)
    name = tokens[1]
    conn, attrs = _split_fields(tokens[2:], lineno)
    params: dict = {}
    for key, default, least in (("depth", None, 1), ("width", None, 1), ("nread", "1", 0)):
        raw = conn.pop(key, default)
        if raw is None:
            raise ExlifParseError(f".mem missing parameter {key!r}", lineno)
        params[key] = value = _int(raw, key, lineno)
        if value < least:
            raise ExlifParseError(f".mem {key}={value} is below {least}", lineno)
    if "init" in conn:
        params["init"] = [_int(v, "init", lineno) for v in conn.pop("init").split(",") if v]
    inputs, outputs = mem_pins(params["depth"], params["width"], params["nread"])
    _require(conn, inputs + outputs, f".mem {name!r}", lineno)
    return (name, "MEM", conn, params, attrs), [conn[p] for p in outputs]


def _subckt_line(tokens: list[str], lineno: int) -> tuple:
    if len(tokens) < 3:
        raise ExlifParseError(".subckt needs MODULE NAME and pins", lineno)
    kind, name = tokens[1], tokens[2]
    if kind in CELLS:
        raise ExlifParseError(f".subckt of primitive cell {kind!r}", lineno)
    conn, attrs = _split_fields(tokens[3:], lineno)
    return (name, kind, conn, {}, attrs), ()


_CELL_LINES = {
    ".gate": _gate_line,
    ".latch": _latch_line,
    ".mem": _mem_line,
    ".subckt": _subckt_line,
}


def parse_exlif(text: str) -> dict[str, Module]:
    """Parse EXLIF text into name -> :class:`Module` (file order preserved)."""
    modules: dict[str, Module] = {}
    module: Module                # _records yields .model first
    for lineno, directive, value in _records(io.StringIO(text, newline=None)):
        if directive == ".model":
            if value in modules:
                raise ExlifParseError(f"duplicate module {value!r}", lineno)
            module = Module(value)
        elif directive == ".end":
            modules[value] = module
        elif directive in (".inputs", ".outputs"):
            direction = INPUT if directive == ".inputs" else OUTPUT
            for net in value:
                module.add_port(net, direction)
        else:
            module.add_instance(Instance(*value))
    return modules


class FlattenRequired(ExlifParseError):
    """The file is valid EXLIF but not in the layout the line reader lowers:
    it has ``.subckt`` instances, several ``.model`` blocks, or ports
    declared after cells. Such a file goes through :func:`parse_exlif`
    and :func:`~repro.netlist.flatten.flatten` instead."""


def read_exlif_graph(lines: Iterable[str]) -> NetGraph:
    """Lower a flat, single-model EXLIF file straight into a NetGraph.

    *lines* is an open text file or any iterable of lines; it is read
    once, and no Module is built. The graph equals
    ``extract_graph(parse_exlif(text)[name])`` for the same text, node
    order included. A file outside that layout raises
    :class:`FlattenRequired`.
    """
    builder: GraphBuilder | None = None
    cells = False
    for lineno, directive, value in _records(lines):
        if directive == ".model":
            if builder is not None:
                raise FlattenRequired("second .model: not a single-module file", lineno)
            builder = GraphBuilder(value)
        elif directive == ".inputs":
            if cells:
                raise FlattenRequired(".inputs after cells", lineno)
            for net in value:
                builder.add_node(net, NodeKind.INPUT)
        elif directive == ".outputs":
            builder.graph.outputs.extend(value)
        elif directive == ".subckt":
            raise FlattenRequired(".subckt: not a flat module", lineno)
        elif directive != ".end":
            lower_cell(builder, *value)
            cells = True
    if builder is None:
        raise ExlifParseError("no .model block found")
    return builder.finish()
