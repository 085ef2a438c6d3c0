"""Golden-output equivalence: the pipeline vs the hand-wired flows.

The refactor's core promise is that routing every flow through
``pipeline.execute`` changes *nothing numeric*: the per-FUB tables,
sweep curves, and campaign statistics are bit-identical to calling the
underlying libraries directly the way the old CLI bodies did.
"""

import pytest

from repro.core.sart import SartConfig, run_sart
from repro.pipeline import (
    ExportSpec,
    RunSpec,
    SartSpec,
    SfiSpec,
    SweepSpec,
    WorkloadsSpec,
    execute,
    sart_config,
)


def test_tinycore_report_equivalence():
    from repro.designs.tinycore.archsim import tinycore_structure_ports
    from repro.designs.tinycore.core import build_tinycore
    from repro.designs.tinycore.harness import run_gate_level
    from repro.designs.tinycore.programs import default_dmem, program

    words, dmem = program("fib"), default_dmem("fib")
    netlist = build_tinycore(words, dmem)
    run = run_gate_level(words, dmem, netlist=netlist)
    ports, trace, _ = tinycore_structure_ports(
        "fib", words, dmem, gate_cycles=run.cycles
    )
    direct = run_sart(netlist.module, ports, sart_config(SartSpec()))

    outcome = execute(RunSpec(design="tinycore:fib"))
    assert outcome.golden.cycles == run.cycles
    assert outcome.port_env.ace_fraction == trace.ace_fraction()
    piped = outcome.sart.result
    assert piped.report.table() == direct.report.table()
    assert piped.report.weighted_seq_avf == direct.report.weighted_seq_avf
    assert piped.node_avfs == direct.node_avfs


def test_bigcore_report_equivalence():
    from repro.ace.portavf import suite_ports_and_table
    from repro.designs.bigcore import map_structure_ports
    from repro.designs.bigcore.core import BigcoreConfig, build_bigcore
    from repro.workloads import default_suite

    design = build_bigcore(BigcoreConfig(scale=0.1))
    traces = default_suite(per_class=1, length=400)
    model_ports, _table = suite_ports_and_table(traces)
    ports = map_structure_ports(design, model_ports)
    direct = run_sart(design.module, ports, sart_config(SartSpec()))

    outcome = execute(RunSpec(
        design="bigcore@scale=0.1",
        workloads=WorkloadsSpec(per_class=1, length=400),
    ))
    piped = outcome.sart.result
    assert piped.report.table() == direct.report.table()
    assert piped.node_avfs == direct.node_avfs


def test_sweep_equivalence():
    from repro.ace.portavf import suite_ports_and_table
    from repro.designs.bigcore import map_structure_ports
    from repro.designs.bigcore.core import BigcoreConfig, build_bigcore
    from repro.workloads import default_suite

    design = build_bigcore(BigcoreConfig(scale=0.1))
    model_ports, _ = suite_ports_and_table(
        default_suite(per_class=1, length=400)
    )
    ports = map_structure_ports(design, model_ports)

    outcome = execute(RunSpec(
        design="bigcore@scale=0.1",
        workloads=WorkloadsSpec(per_class=1, length=400),
        sweep=SweepSpec(points=3),
    ))
    assert [p.value for p in outcome.sweep] == [0.0, 0.5, 1.0]
    for point in outcome.sweep:
        direct = run_sart(
            design.module, ports,
            SartConfig(loop_pavf=point.value),
        )
        assert (point.result.report.weighted_seq_avf
                == direct.report.weighted_seq_avf)


def test_sfi_equivalence():
    from repro.designs.tinycore.core import build_tinycore
    from repro.designs.tinycore.harness import run_gate_level
    from repro.designs.tinycore.programs import default_dmem, program
    from repro.netlist.graph import extract_graph
    from repro.sfi import plan_campaign, run_sfi_campaign

    words, dmem = program("fib"), default_dmem("fib")
    netlist = build_tinycore(words, dmem)
    run = run_gate_level(words, dmem, netlist=netlist)
    seqs = extract_graph(netlist.module).seq_nets()
    plans = plan_campaign(seqs, run.cycles - 2, 25, seed=1)
    direct = run_sfi_campaign(words, dmem, plans, netlist=netlist)

    outcome = execute(RunSpec(
        design="tinycore:fib", sfi=SfiSpec(injections=25, seed=1),
    ))
    assert outcome.sfi.result.counts() == direct.counts()
    assert outcome.sfi.result.avf() == direct.avf()


def test_exlif_export_roundtrip_equivalence(tmp_path):
    """Exported EXLIF analyzed externally == the in-memory design."""
    from repro.netlist.exlif import parse_exlif, write_exlif
    from repro.netlist.flatten import flatten

    outcome = execute(RunSpec(design="tinycore:fib"))
    module = outcome.design.module
    ports = outcome.port_env.ports

    path = tmp_path / "tinycore.exlif"
    path.write_text(write_exlif(module))
    modules = parse_exlif(path.read_text())
    reparsed = flatten(next(iter(modules.values())), modules)

    config = sart_config(SartSpec())
    direct = run_sart(reparsed, ports, config)
    assert direct.report.table() == outcome.sart.result.report.table()
    assert direct.node_avfs == outcome.sart.result.node_avfs


def test_exlif_export_roundtrip_via_registry(tmp_path):
    """The exported file analyzed through ``exlif:`` matches too."""
    outcome = execute(RunSpec(
        design="tinycore:fib",
        sart=SartSpec(),
        export=ExportSpec(output=str(tmp_path / "t.exlif")),
    ))
    ported = execute(RunSpec(
        design=f"exlif:{tmp_path / 't.exlif'}",
        ports_file=_write_ports(tmp_path, outcome.port_env.ports),
    ))
    assert (ported.sart.result.report.table()
            == outcome.sart.result.report.table())


def _write_ports(tmp_path, ports) -> str:
    lines = [
        f"{p.name} {p.pavf_r!r} {p.pavf_w!r} {p.avf!r}"
        for p in ports.values()
    ]
    path = tmp_path / "ports.txt"
    path.write_text("\n".join(lines) + "\n")
    return str(path)
