"""System-level property tests of the SART flow on random designs.

Invariants checked on randomly generated (but structurally legal)
netlists:

* every resolved AVF is a probability;
* raising any structure's port AVFs never lowers any node's AVF
  (monotonicity of the conservative estimate);
* the walk reference and the compiled engine resolve identically;
* closed-form re-evaluation equals a fresh run for arbitrary new pAVFs.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.graphmodel import StructurePorts
from repro.core.sart import SartConfig, run_sart
from repro.netlist.builder import ModuleBuilder
from repro.netlist.netlist import Module
from repro.verify.reference import run_reference


def _random_design(seed: int, n_structs: int = 3, n_flops: int = 25) -> tuple[Module, list[str]]:
    """A random legal design: structure bits sourcing a random fabric
    that sinks into other structure bits, with occasional FSM loops."""
    rng = random.Random(seed)
    b = ModuleBuilder("rand", default_attrs={"fub": "F0"})
    tie = b.input("tie_in")
    pool = []
    sink_drains = []
    for s in range(n_structs):
        q = b.dff(tie, name=f"s{s}", attrs={"struct": f"S{s}", "bit": "0"})
        pool.append(q)
    # a loop now and then
    if rng.random() < 0.5:
        b.module.add_net("fsm")
        n = b.xor_("fsm", rng.choice(pool))
        b.dff(n, q="fsm", name="fsm_r")
        pool.append("fsm")
    for i in range(n_flops):
        fub = f"F{i % 3}"
        if rng.random() < 0.4 and len(pool) >= 2:
            net = b.gate(rng.choice(("AND", "OR", "XOR")),
                         [rng.choice(pool), rng.choice(pool)], attrs={"fub": fub})
        else:
            net = rng.choice(pool)
        q = b.dff(net, name=f"p{i}", attrs={"fub": fub})
        pool.append(q)
    for s in range(n_structs):
        driver = rng.choice(pool)
        b.dff(driver, name=f"k{s}", attrs={"struct": f"K{s}", "bit": "0"})
    return b.done(), pool


def _ports(seed: int, n_structs: int = 3) -> dict[str, StructurePorts]:
    rng = random.Random(seed)
    out = {}
    for s in range(n_structs):
        out[f"S{s}"] = StructurePorts(f"S{s}", pavf_r=rng.random() * 0.5,
                                      pavf_w=0.0, avf=rng.random())
        out[f"K{s}"] = StructurePorts(f"K{s}", pavf_r=0.0,
                                      pavf_w=rng.random() * 0.5, avf=rng.random())
    return out


CFG = SartConfig(partition_by_fub=False)


@settings(max_examples=25)
@given(st.integers(0, 10_000), st.integers(0, 10_000))
def test_avfs_are_probabilities(design_seed, port_seed):
    module, _ = _random_design(design_seed)
    result = run_sart(module, _ports(port_seed), CFG)
    for node in result.node_avfs.values():
        assert 0.0 <= node.avf <= 1.0
        assert 0.0 <= node.forward <= 1.0
        assert 0.0 <= node.backward <= 1.0


@settings(max_examples=15)
@given(st.integers(0, 10_000), st.integers(0, 10_000))
def test_monotone_in_port_avfs(design_seed, port_seed):
    module, _ = _random_design(design_seed)
    base_ports = _ports(port_seed)
    low = run_sart(module, base_ports, CFG)

    boosted = {
        name: StructurePorts(
            name,
            pavf_r=min(1.0, _scalar(p.pavf_r) * 1.5 + 0.05),
            pavf_w=min(1.0, _scalar(p.pavf_w) * 1.5 + 0.05),
            avf=p.avf,
        )
        for name, p in base_ports.items()
    }
    module2, _ = _random_design(design_seed)
    high = run_sart(module2, boosted, CFG)
    for net, node in low.node_avfs.items():
        if node.role == "struct":
            continue  # measured AVFs held fixed
        assert high.avf(net) >= node.avf - 1e-9, net


@settings(max_examples=10)
@given(st.integers(0, 10_000), st.integers(0, 10_000))
def test_engines_agree_on_random_designs(design_seed, port_seed):
    module, _ = _random_design(design_seed)
    df = run_sart(module, _ports(port_seed),
                  SartConfig(partition_by_fub=False, dangling="top"))
    module2, _ = _random_design(design_seed)
    wk = run_reference(module2, _ports(port_seed),
                       SartConfig(partition_by_fub=False), engine="walk")
    for net in df.node_avfs:
        assert df.avf(net) == pytest.approx(wk.avf(net)), net


@settings(max_examples=10)
@given(st.integers(0, 10_000), st.integers(0, 10_000), st.integers(0, 10_000))
def test_closed_form_matches_fresh_run(design_seed, port_seed, new_seed):
    module, _ = _random_design(design_seed)
    base = run_sart(module, _ports(port_seed), CFG)
    new_ports = _ports(new_seed)
    module2, _ = _random_design(design_seed)
    fresh = run_sart(module2, new_ports, CFG)
    reevaluated = base.closed_form().evaluate(new_ports)
    for net, node in fresh.node_avfs.items():
        assert reevaluated[net] == node, net


@settings(max_examples=10)
@given(st.integers(0, 10_000), st.integers(0, 10_000))
def test_partitioned_converges_to_monolithic(design_seed, port_seed):
    module, _ = _random_design(design_seed)
    mono = run_sart(module, _ports(port_seed), CFG)
    module2, _ = _random_design(design_seed)
    part = run_sart(module2, _ports(port_seed),
                    SartConfig(partition_by_fub=True, iterations=30))
    for net in mono.node_avfs:
        assert part.avf(net) == pytest.approx(mono.avf(net), abs=0.02), net


def _scalar(v):
    return v if isinstance(v, (int, float)) else sum(v) / len(v)
