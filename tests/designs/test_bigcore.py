"""bigcore generator tests: determinism, inventory, SART integration."""

import pytest

from repro.core.graphmodel import StructurePorts
from repro.core.sart import build_plan, run_sart
from repro.designs.bigcore import BigcoreConfig, build_bigcore, map_structure_ports
from repro.designs.bigcore.core import _TEMPLATES, structure_kinds
from repro.designs.bigcore.mapping import JITTER
from repro.errors import MappingError
from repro.netlist.graph import extract_graph
from repro.netlist.validate import validate_module
from repro.verify.reference import run_relaxation

SMALL = BigcoreConfig(scale=0.15, fub_count=5, seed=3)


@pytest.fixture(scope="module")
def small():
    return build_bigcore(SMALL)


def _fake_model_ports():
    kinds = ["fetch_buffer", "inst_queue", "rob", "regfile", "load_queue", "store_buffer"]
    return {
        k: StructurePorts(k, pavf_r=0.1 + 0.05 * i, pavf_w=0.1 + 0.04 * i, avf=0.3)
        for i, k in enumerate(kinds)
    }


def test_determinism():
    a = build_bigcore(SMALL)
    b = build_bigcore(SMALL)
    assert set(a.module.instances) == set(b.module.instances)
    assert a.seq_count() == b.seq_count()


def test_seed_changes_fabric():
    a = build_bigcore(SMALL)
    b = build_bigcore(BigcoreConfig(scale=0.15, fub_count=5, seed=4))
    conns_a = {i.name: tuple(sorted(i.conn.items())) for i in a.module.instances.values()}
    conns_b = {i.name: tuple(sorted(i.conn.items())) for i in b.module.instances.values()}
    assert conns_a != conns_b


def test_structural_validity(small):
    validate_module(small.module)


def test_scale_grows_design():
    big = build_bigcore(BigcoreConfig(scale=0.4, fub_count=5, seed=3))
    assert big.seq_count() > build_bigcore(SMALL).seq_count() * 1.5


def test_inventory(small):
    assert len(small.fubs) == 5
    assert small.array_names()
    g = extract_graph(small.module)
    fubs = set(g.fubs)
    assert {"IFU", "BPU", "IDU", "RAT", "RSV"} <= fubs


def test_mapping(small):
    ports = map_structure_ports(small, _fake_model_ports())
    assert set(ports) == set(small.array_names())
    assert ports == map_structure_ports(small, _fake_model_ports())
    kinds = small.structure_kinds
    base = _fake_model_ports()
    for name, p in ports.items():
        assert 0.0 <= _scalar(p.pavf_r) <= 1.0
        # Each array's rate is its structure's, within the fixed jitter.
        want = base[kinds[name]].pavf_r
        assert abs(_scalar(p.pavf_r) - want) <= want * JITTER + 1e-12


@pytest.mark.parametrize("config", [
    SMALL,
    BigcoreConfig(scale=0.3, seed=2, edit="LSU"),
    BigcoreConfig(scale=2.5, fub_count=2, feedback_fubs=0),
], ids=["small", "edit", "wide"])
def test_structure_kinds_follow_from_the_config(config):
    design = build_bigcore(config)
    kinds = structure_kinds(config)
    assert list(kinds) == design.array_names()
    in_netlist = {inst.attrs["struct"] for inst in design.module.instances.values()
                  if "struct" in inst.attrs}
    assert set(kinds) == in_netlist
    kind_of = {t.name: t.structure_kind for t in _TEMPLATES}
    assert kinds == {name: kind_of[fub.name]
                     for fub in design.fubs for name, _w in fub.arrays}
    assert design.structure_kinds == kinds


def test_mapping_missing_kind(small):
    with pytest.raises(MappingError):
        map_structure_ports(small, {"rob": StructurePorts("rob")})


def test_sart_runs_on_bigcore(small):
    ports = map_structure_ports(small, _fake_model_ports())
    plan = build_plan(small.module, ports)
    res = run_sart(plan=plan)
    assert run_relaxation(plan).trace.converged
    assert res.report.visited_fraction > 0.93
    # loop fraction matches the paper's few-percent regime
    frac = res.stats["loop_bits"] / res.stats["sequentials"]
    assert 0.005 < frac < 0.10
    assert 0.0 < res.report.weighted_seq_avf < 0.5
    # control registers found by naming convention
    assert res.stats["ctrl_bits"] > 0


def test_partitioned_equals_monolithic(small):
    ports = map_structure_ports(small, _fake_model_ports())
    plan = build_plan(small.module, ports)
    part = run_relaxation(plan)
    assert part.trace.converged
    assert part.node_avfs == run_sart(plan=plan).node_avfs


def _scalar(v):
    return v if isinstance(v, (int, float)) else sum(v) / len(v)
