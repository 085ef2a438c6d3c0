"""RTL netlist substrate.

This subpackage provides everything the paper's tool flow assumes exists on
the RTL side: a bit-level structural netlist model (:mod:`~repro.netlist.netlist`),
a cell library (:mod:`~repro.netlist.cells`), a construction API
(:mod:`~repro.netlist.builder`), the EXLIF-like interchange text format
(:mod:`~repro.netlist.exlif`), hierarchy flattening
(:mod:`~repro.netlist.flatten`), structural validation
(:mod:`~repro.netlist.validate`) and node-graph extraction for the
sequential-AVF walker (:mod:`~repro.netlist.graph`).

All nets are single-bit; multi-bit buses are a naming convention
(``name[i]``) with helpers in the builder. This matches the paper's
bit-granular analysis: every pAVF walk is performed per structure *bit*.
"""

from repro.netlist.cells import CELLS, CellSpec
from repro.netlist.netlist import Instance, Module, Port
from repro.netlist.builder import ModuleBuilder, bus
from repro.netlist.flatten import flatten
from repro.netlist.validate import validate_module
from repro.netlist.graph import NetGraph, NodeKind, extract_graph
from repro.netlist.exlif import parse_exlif, write_exlif
from repro.netlist.verilog import parse_structural_verilog, write_verilog

__all__ = [
    "CELLS",
    "CellSpec",
    "Instance",
    "Module",
    "ModuleBuilder",
    "NetGraph",
    "NodeKind",
    "Port",
    "bus",
    "extract_graph",
    "flatten",
    "parse_exlif",
    "parse_structural_verilog",
    "validate_module",
    "write_exlif",
    "write_verilog",
]
