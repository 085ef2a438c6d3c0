"""SFI campaign tests: planning, execution, classification, aggregation."""

import pytest

from repro.designs.tinycore.core import build_tinycore
from repro.designs.tinycore.harness import run_gate_level
from repro.designs.tinycore.programs import default_dmem, program
from repro.errors import CampaignError
from repro.netlist.graph import extract_graph
from repro.sfi import (
    FaultPlan,
    aggregate_by_node,
    overall_avf,
    plan_campaign,
    run_sfi_campaign,
    wilson_interval,
)
from repro.sfi.campaign import batches


@pytest.fixture(scope="module")
def fib_setup():
    words, dmem = program("fib"), default_dmem("fib")
    netlist = build_tinycore(words, dmem)
    golden = run_gate_level(words, dmem, netlist=netlist)
    seqs = extract_graph(netlist.module).seq_nets()
    return words, dmem, netlist, golden, seqs


class TestPlanning:
    def test_uniform_plan(self):
        plans = plan_campaign(["a", "b"], 100, 50, seed=1)
        assert len(plans) == 50
        assert all(0 <= p.cycle < 100 for p in plans)
        assert {p.net for p in plans} <= {"a", "b"}

    def test_per_node_plan(self):
        plans = plan_campaign(["a", "b", "c"], 10, 4, per_node=True)
        counts = {}
        for p in plans:
            counts[p.net] = counts.get(p.net, 0) + 1
        assert counts == {"a": 4, "b": 4, "c": 4}

    def test_plan_determinism(self):
        a = plan_campaign(["x", "y"], 50, 20, seed=9)
        b = plan_campaign(["x", "y"], 50, 20, seed=9)
        assert a == b

    def test_plan_errors(self):
        with pytest.raises(CampaignError):
            plan_campaign([], 10, 5)
        with pytest.raises(CampaignError):
            plan_campaign(["a"], 0, 5)

    def test_batches(self):
        plans = plan_campaign(["a"], 10, 130)
        chunks = batches(plans, 63)
        assert [len(c) for c in chunks] == [63, 63, 4]
        with pytest.raises(CampaignError):
            batches(plans, 0)


class TestExecution:
    def test_unknown_net_rejected(self, fib_setup):
        words, dmem, netlist, golden, seqs = fib_setup
        with pytest.raises(CampaignError, match="unknown net"):
            run_sfi_campaign(words, dmem, [FaultPlan("ghost", 1)], netlist=netlist)

    def test_campaign_counts_and_eq2(self, fib_setup):
        words, dmem, netlist, golden, seqs = fib_setup
        plans = plan_campaign(seqs, golden.cycles - 2, 126, seed=5)
        res = run_sfi_campaign(words, dmem, plans, netlist=netlist)
        counts = res.counts()
        assert sum(counts.values()) == 126
        assert counts["sdc"] > 0 and counts["masked"] > 0
        assert res.avf() == pytest.approx(
            (counts["sdc"] + counts["unknown"]) / 126
        )
        assert res.passes == 2

    def test_pc_faults_are_severe(self, fib_setup):
        # Injecting into the PC is nearly always fatal — a sanity anchor.
        words, dmem, netlist, golden, seqs = fib_setup
        pc_nets = [n for n in seqs if "pc[" in n]
        plans = plan_campaign(pc_nets, golden.cycles // 2, 40, seed=2)
        res = run_sfi_campaign(words, dmem, plans, netlist=netlist)
        assert res.avf() > 0.5

    def test_dead_control_faults_are_masked(self, fib_setup):
        # Flipping the store-data pipeline in a store-free program only
        # matters if it creates a spurious architectural write; the
        # st-data payload itself is dead.
        words, dmem, netlist, golden, seqs = fib_setup
        g = extract_graph(netlist.module)
        data_nets = [n for n in seqs if "me_st_data" in (g.nodes[n].inst or "")]
        assert data_nets
        plans = plan_campaign(data_nets, golden.cycles - 2, 30, seed=3)
        res = run_sfi_campaign(words, dmem, plans, netlist=netlist)
        assert res.counts()["sdc"] == 0

    def test_determinism(self, fib_setup):
        words, dmem, netlist, golden, seqs = fib_setup
        plans = plan_campaign(seqs, golden.cycles - 2, 40, seed=8)
        a = run_sfi_campaign(words, dmem, plans, netlist=netlist)
        b = run_sfi_campaign(words, dmem, plans, netlist=netlist)
        assert [o.outcome for o in a.outcomes] == [o.outcome for o in b.outcomes]


def _full_state_verdicts(run, latent):
    """Lane verdicts that compare every lane's architectural state."""
    from repro.sfi.campaign import DUE, MASKED, SDC, UNKNOWN

    golden_state = run.architectural_state(0)[1:]
    latent_lanes = run.sim.lanes_differing_from(0) if latent else ()
    due_net = run.netlist.due
    due_bits = run.sim.peek(due_net) if due_net is not None else 0
    verdicts = []
    for lane in range(1, run.sim.lanes):
        if (due_bits >> lane) & 1 and not due_bits & 1:
            verdicts.append(DUE)
        elif (run.outputs[lane] != run.outputs[0]
              or (lane in run.halted_lanes) != (0 in run.halted_lanes)):
            verdicts.append(SDC)
        elif (lane in latent_lanes
              or run.architectural_state(lane)[1:] != golden_state):
            verdicts.append(UNKNOWN)
        else:
            verdicts.append(MASKED)
    return verdicts


def test_lane_verdicts_equal_a_full_state_comparison(fib_setup):
    from repro.rtlsim.simulator import Simulator
    from repro.sfi.lanes import lane_verdicts

    words, dmem, netlist, golden, seqs = fib_setup
    plans = plan_campaign(seqs, golden.cycles - 2, 48, seed=5)
    # Lanes past the flop faults take a register-file or data-memory
    # strike, so the memory overlays are compared too.
    strikes = [("u_rf" if i % 2 else "u_dmem", 10 + 15 * i, i % 8, i % 16)
               for i in range(8)]
    sim = Simulator(netlist.module, lanes=1 + len(plans) + len(strikes))

    def inject(simulator, cycle):
        for lane, plan in enumerate(plans, start=1):
            if plan.cycle == cycle:
                simulator.flip(plan.net, 1 << lane)
        for lane, (mem, at, addr, bit) in enumerate(strikes,
                                                    start=1 + len(plans)):
            if at == cycle:
                simulator.mems[mem].flip_bit(lane, addr, bit)

    run = run_gate_level(words, dmem, netlist=netlist, sim=sim,
                         on_cycle=inject)
    for latent in (True, False):
        verdicts = lane_verdicts(run, latent=latent)
        assert verdicts == _full_state_verdicts(run, latent), latent
    assert {"masked", "unknown", "sdc"} <= set(lane_verdicts(run, latent=True))


class TestAggregation:
    def test_aggregate_by_node(self, fib_setup):
        words, dmem, netlist, golden, seqs = fib_setup
        plans = plan_campaign(seqs[:4], golden.cycles - 2, 10, per_node=True, seed=4)
        res = run_sfi_campaign(words, dmem, plans, netlist=netlist)
        per_node = aggregate_by_node(res.outcomes)
        assert set(per_node) == set(seqs[:4])
        for est in per_node.values():
            assert est.injections == 10
            assert 0.0 <= est.avf <= 1.0
            lo, hi = est.interval()
            assert lo <= est.avf <= hi

    def test_overall_avf(self, fib_setup):
        words, dmem, netlist, golden, seqs = fib_setup
        plans = plan_campaign(seqs, golden.cycles - 2, 63, seed=6)
        res = run_sfi_campaign(words, dmem, plans, netlist=netlist)
        avf, (lo, hi) = overall_avf(res.outcomes)
        assert lo <= avf <= hi


class TestWilson:
    def test_extremes(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)
        lo, hi = wilson_interval(0, 50)
        assert lo == 0.0 and hi < 0.15
        lo, hi = wilson_interval(50, 50)
        assert hi == 1.0 and lo > 0.85

    def test_narrows_with_trials(self):
        lo1, hi1 = wilson_interval(5, 10)
        lo2, hi2 = wilson_interval(500, 1000)
        assert (hi2 - lo2) < (hi1 - lo1)
