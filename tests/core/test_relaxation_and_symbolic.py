"""Partitioned relaxation (Section 5.2) and closed-form re-evaluation."""

import random

import pytest

from repro.core.graphmodel import StructurePorts
from repro.core.sart import SartConfig, build_env, build_plan, run_sart
from repro.core.graphmodel import build_model
from repro.netlist.builder import ModuleBuilder
from repro.netlist.graph import extract_graph
from repro.verify.dataflow import partition_by_fub, relax


def _chain_of_fubs(n_fubs=4, stages_per_fub=2):
    """Source structure in the first FUB, sink in the last, pipeline between.

    Returns (module, per-FUB stage nets).
    """
    b = ModuleBuilder("chain")
    tie = b.input("tie_in")
    cur = b.dff(tie, name="src", attrs={"struct": "SRC", "bit": "0", "fub": "FUB0"})
    fub_nets: dict[str, list[str]] = {}
    for f in range(n_fubs):
        fub = f"FUB{f}"
        nets = []
        for s in range(stages_per_fub):
            cur = b.dff(cur, name=f"f{f}s{s}", attrs={"fub": fub})
            nets.append(cur)
        fub_nets[fub] = nets
    b.dff(cur, name="snk", attrs={"struct": "SNK", "bit": "0", "fub": f"FUB{n_fubs-1}"})
    return b.done(), fub_nets


STRUCTS = {
    "SRC": StructurePorts("SRC", pavf_r=0.3, pavf_w=0.0, avf=0.5),
    "SNK": StructurePorts("SNK", pavf_r=0.0, pavf_w=0.1, avf=0.5),
}


def test_partition_by_fub_splits_and_finds_exports():
    module, fub_nets = _chain_of_fubs()
    g = extract_graph(module)
    model = build_model(g, STRUCTS)
    part = partition_by_fub(model)
    assert set(part.fubs) >= {"FUB0", "FUB1", "FUB2", "FUB3"}
    # Each FUB boundary contributes one forward and one backward export.
    assert len(part.forward_exports) >= 3
    assert len(part.backward_exports) >= 3


def test_relaxation_matches_monolithic():
    module, fub_nets = _chain_of_fubs()
    mono = run_sart(module, STRUCTS, SartConfig(partition_by_fub=False))
    part = run_sart(module, STRUCTS, SartConfig(partition_by_fub=True, iterations=20))
    for nets in fub_nets.values():
        for net in nets:
            assert part.avf(net) == pytest.approx(mono.avf(net)), net
            assert part.avf(net) == pytest.approx(0.1)  # min(0.3, 0.1)


def test_value_crosses_one_partition_per_iteration():
    # "any walk can only cross one partition during each iteration"
    module, fub_nets = _chain_of_fubs(n_fubs=4)
    g = extract_graph(module)
    model = build_model(g, STRUCTS)
    env = build_env(model, SartConfig())
    # After 1 iteration, FUB3 has not yet seen SRC's forward value: its
    # forward estimate is the conservative TOP (1.0).
    one = relax(model, env, iterations=1)
    from repro.core.pavf import value_of, TOP_SET

    f3 = one.f_sets[fub_nets["FUB3"][0]]
    assert value_of(f3, env) == 1.0
    # After enough iterations it has converged to 0.3.
    full = relax(model, env, iterations=20)
    f3 = full.f_sets[fub_nets["FUB3"][0]]
    assert value_of(f3, env) == pytest.approx(0.3)
    assert full.trace.converged


def test_convergence_trace_monotone_flattening():
    module, _ = _chain_of_fubs(n_fubs=5)
    res = run_sart(module, STRUCTS, SartConfig(partition_by_fub=True, iterations=20))
    trace = res.trace
    assert trace is not None
    assert trace.converged
    # max delta shrinks to zero
    assert trace.max_delta[-1] <= 1e-9
    # per-FUB averages are recorded for every iteration
    for series in trace.fub_avg.values():
        assert len(series) == trace.iterations


def test_iteration_budget_respected():
    module, _ = _chain_of_fubs(n_fubs=6)
    res = run_sart(module, STRUCTS, SartConfig(partition_by_fub=True, iterations=2))
    assert res.trace.iterations == 2
    assert not res.trace.converged


class TestClosedForm:
    def test_reevaluation_matches_full_run(self):
        module, fub_nets = _chain_of_fubs()
        base = run_sart(module, STRUCTS, SartConfig(partition_by_fub=False))
        cf = base.closed_form()

        new_structs = {
            "SRC": StructurePorts("SRC", pavf_r=0.05, pavf_w=0.0, avf=0.5),
            "SNK": StructurePorts("SNK", pavf_r=0.0, pavf_w=0.9, avf=0.5),
        }
        module2, fub_nets2 = _chain_of_fubs()
        fresh = run_sart(module2, new_structs, SartConfig(partition_by_fub=False))
        reevaluated = cf.evaluate(new_structs)
        assert reevaluated == fresh.node_avfs
        for nets in fub_nets.values():
            for net in nets:
                assert reevaluated[net].avf == pytest.approx(0.05)

    def test_equation_rendering(self, fig7):
        module, nets, structs = fig7
        res = run_sart(module, structs, SartConfig(partition_by_fub=False))
        cf = res.closed_form()
        eq = cf.equation_for(nets["g2"])
        assert "pR(S1.0) + pR(S2.0)" in eq
        assert eq.startswith("AVF(")
        assert cf.term_count() > 0

    def test_structure_avf_override(self, fig7):
        module, nets, structs = fig7
        res = run_sart(module, structs, SartConfig(partition_by_fub=False))
        cf = res.closed_form()
        new = dict(structs)
        new["S1"] = StructurePorts("S1", pavf_r=0.10, pavf_w=0.0, avf=0.77)
        out = cf.evaluate(new)
        assert out[nets["s1"]].avf == pytest.approx(0.77)


@pytest.fixture(scope="module")
def small_bigcore():
    """A bigcore graph with random per-structure port AVFs."""
    from repro.designs.bigcore import BigcoreConfig, build_bigcore

    graph = extract_graph(build_bigcore(BigcoreConfig(scale=0.1, seed=42)).module)
    names = sorted(build_plan(graph).model.structures)

    def ports(seed):
        rng = random.Random(seed)
        return {name: StructurePorts(name, pavf_r=rng.uniform(0.0, 0.3),
                                     pavf_w=rng.uniform(0.0, 0.3), avf=rng.random())
                for name in names}

    return graph, ports


class TestClosedFormIsTheSolve:
    """A plug-in runs the solve's own resolution: equal, not approximately equal."""

    @pytest.mark.parametrize("partitioned", [False, True])
    def test_self_plug_in_equals_the_solve(self, small_bigcore, partitioned):
        graph, ports = small_bigcore
        res = run_sart(graph, ports(1), SartConfig(partition_by_fub=partitioned))
        assert res.closed_form().evaluate() == res.node_avfs
        assert res.closed_form().evaluate(ports(1)) == res.node_avfs

    def test_new_ports_plug_in_equals_a_fresh_solve(self, small_bigcore):
        graph, ports = small_bigcore
        cfg = SartConfig(partition_by_fub=False)
        closed = run_sart(graph, ports(1), cfg).closed_form()
        for seed in (2, 3):
            fresh = run_sart(graph, ports(seed), cfg)
            assert closed.evaluate(ports(seed)) == fresh.node_avfs

    def test_reference_results_have_no_closed_form(self):
        from repro.errors import SartError
        from repro.verify.reference import run_reference

        module, _ = _chain_of_fubs()
        with pytest.raises(SartError, match="SolvePlan"):
            run_reference(module, STRUCTS).closed_form()


def test_report_weighting(fig7):
    module, nets, structs = fig7
    res = run_sart(module, structs, SartConfig(partition_by_fub=False))
    rep = res.report
    # structure bits excluded from sequential aggregate
    assert rep.seq_count == 5  # q1a q2a q1b q3a q3b (structure bits excluded)
    assert 0.0 < rep.weighted_seq_avf < 1.0
    text = rep.table()
    assert "WEIGHTED AVG" in text
    assert rep.visited_fraction > 0.9
