"""Parallel campaign execution: determinism and batching validation.

The worker-count contract: for a fixed seed, SFI and beam results are
bit-identical whether the passes run serially or across a process pool,
because every pass is planned up front and results are reassembled in
plan order.
"""

import pytest

from repro.designs.tinycore.core import build_tinycore
from repro.designs.tinycore.harness import run_gate_level
from repro.designs.tinycore.programs import default_dmem, program
from repro.errors import CampaignError
from repro.netlist.graph import extract_graph
from repro.ser.beam import BeamConfig, run_beam_test
from repro.sfi.campaign import (
    DEFAULT_FAULT_LANES,
    plan_campaign,
    resolve_lanes_per_pass,
)
from repro.sfi.injector import run_sfi_campaign
from repro.sfi.parallel import parallel_map, resolve_workers


def _fib():
    return program("fib"), default_dmem("fib")


def _fib_plans(injections, seed):
    words, dmem = _fib()
    netlist = build_tinycore(words, dmem)
    golden = run_gate_level(words, dmem, netlist=netlist)
    seqs = extract_graph(netlist.module).seq_nets()
    plans = plan_campaign(seqs, golden.cycles - 2, injections, seed=seed)
    return words, dmem, netlist, plans


def _outcome_sig(result):
    return [(o.plan.net, o.plan.cycle, o.outcome) for o in result.outcomes]


class TestSfiDeterminism:
    def test_workers_1_vs_4_identical(self):
        words, dmem, netlist, plans = _fib_plans(injections=40, seed=11)
        serial = run_sfi_campaign(words, dmem, plans, netlist=netlist,
                                  lanes_per_pass=10, workers=1)
        pooled = run_sfi_campaign(words, dmem, plans, netlist=netlist,
                                  lanes_per_pass=10, workers=4)
        assert _outcome_sig(serial) == _outcome_sig(pooled)
        assert serial.counts() == pooled.counts()
        assert serial.passes == pooled.passes == 4
        assert serial.simulated_cycles == pooled.simulated_cycles
        assert pooled.workers == 4

    def test_batch_width_does_not_change_outcomes(self):
        words, dmem, netlist, plans = _fib_plans(injections=30, seed=3)
        narrow = run_sfi_campaign(words, dmem, plans, netlist=netlist,
                                  lanes_per_pass=7)
        wide = run_sfi_campaign(words, dmem, plans, netlist=netlist,
                                lanes_per_pass=30)
        assert _outcome_sig(narrow) == _outcome_sig(wide)


class TestBeamDeterminism:
    def test_workers_1_vs_4_identical(self):
        words, dmem = _fib()
        config = BeamConfig(flux=5e-5, exposures=24, seed=9, lanes_per_pass=8)
        serial = run_beam_test(words, dmem, config, workers=1)
        pooled = run_beam_test(words, dmem, config, workers=4)
        assert serial.sdc_events == pooled.sdc_events
        assert serial.due_events == pooled.due_events
        assert serial.strikes == pooled.strikes
        assert serial.exposures == pooled.exposures == 24


class TestLanesPerPass:
    def test_default_is_default_fault_lanes(self):
        assert resolve_lanes_per_pass(None) == DEFAULT_FAULT_LANES == 63

    def test_explicit_width_passes_through(self):
        assert resolve_lanes_per_pass(10) == 10

    def test_rejects_non_positive(self):
        with pytest.raises(CampaignError, match="at least one fault lane"):
            resolve_lanes_per_pass(0)


class TestParallelMap:
    def test_serial_path_runs_initializer_in_process(self):
        seen = []

        def init(payload):
            seen.append(payload)

        results = parallel_map(str, init, "ctx", [1, 2, 3], workers=1)
        assert results == ["1", "2", "3"]
        assert seen == ["ctx"]

    def test_empty_items(self):
        assert parallel_map(str, lambda p: None, None, [], workers=4) == []

    def test_resolve_workers_normalizes_to_serial(self):
        assert resolve_workers(1) == 1
        assert resolve_workers(4) == 4
        assert resolve_workers(0) == 1
        assert resolve_workers(None) == 1
        assert resolve_workers(-3) == 1

    def test_resolve_workers_clamps_absurd_requests(self):
        # An oversized pool cannot outrun the core count; huge requests
        # are clamped instead of forking a thousand interpreters.
        huge = resolve_workers(10**9)
        assert 1 <= huge < 10**9
        assert resolve_workers(10**9) == resolve_workers(10**12)
