"""Campaign outcomes pinned trial by trial, and a proof that the pin bites.

The lists below were recorded from three fib campaigns while every pass
still ran from reset with its trials in plan order. Passes now take
trials sorted by first fault cycle and start from the golden lane's
state at their earliest fault, so these lists check that neither the
schedule nor the start moves a single outcome, at one worker and at two
(where the second process's first pass starts from reset). A pass that
starts one cycle late skips the faults of its first cycle, and the pins
must catch that.
"""

import pytest

import repro.sfi.lanes as lanes
from repro.designs.tinycore.core import build_tinycore
from repro.designs.tinycore.harness import run_gate_level
from repro.designs.tinycore.programs import default_dmem, program
from repro.netlist.graph import extract_graph
from repro.ser.beam import BeamConfig, run_beam_test
from repro.ser.derating import MaskingConfig, measure_masking_mc
from repro.sfi import plan_campaign, run_sfi_campaign

# One letter per trial in plan order: masked, sdc, unknown, due.
# 126 injections (seed 1) in passes of 21 lanes.
SFI = ("msssmmmmsmmssmsmsmmmmmssmmmmmmmsmsssmmsmmmmmmmmmmmsmmmssmmsmsmsm"
       "mmmmmmmmsmmmsummsmmmmmmmsmmmmmsmsmmmmmsmmmssmmmsmmmmmmmmmmmmss")
# 42 exposures at the default flux and seed, in passes of 7 lanes.
BEAM = "mssmsmmmmmmmmsmmsmmsmsmmmsmsmsmmmmmsmssmsm"
# The same exposures with the register file and data memory struck too,
# at flux 2e-6.
BEAM_ARRAYS = "uuuumuuuuumuusmuuuumummumuuuuuumuuuuumumus"
# 48 trials (seed 11) in passes of 16 lanes: 1 where the flip propagated.
MASKING = "000011011011110010110111100000100101111111110101"


@pytest.fixture(scope="module")
def fib():
    words, dmem = program("fib"), default_dmem("fib")
    netlist = build_tinycore(words, dmem)
    golden = run_gate_level(words, dmem, netlist=netlist)
    seqs = extract_graph(netlist.module).seq_nets()
    return words, dmem, netlist, plan_campaign(seqs, golden.cycles - 2, 126, seed=1)


def _sfi_run(fib, workers: int, lanes_per_pass: int = 21):
    words, dmem, netlist, plans = fib
    return run_sfi_campaign(words, dmem, plans, netlist=netlist,
                            lanes_per_pass=lanes_per_pass, workers=workers)


def _sfi(fib, workers: int) -> str:
    return _letters(_sfi_run(fib, workers))


def _letters(result) -> str:
    return "".join(o.outcome[0] for o in result.outcomes)


def _beam(fib, workers: int, **config) -> str:
    words, dmem, _netlist, _plans = fib
    result = run_beam_test(words, dmem,
                           BeamConfig(exposures=42, lanes_per_pass=7, **config),
                           workers=workers)
    return "".join(verdict[0] for verdict in result.outcomes)


def _masking(fib, workers: int) -> str:
    words, dmem, netlist, _plans = fib
    result = measure_masking_mc(words, dmem,
                                MaskingConfig(trials=48, lanes_per_pass=16),
                                netlist=netlist, workers=workers)
    return "".join("1" if hit else "0" for hit in result.outcomes)


@pytest.mark.parametrize("workers", [1, 2])
def test_sfi_outcomes_are_pinned(fib, workers):
    result = _sfi_run(fib, workers)
    assert _letters(result) == SFI
    # Six passes of fib's 166 cycles counted from reset; forked passes
    # step fewer, how many fewer depending on the worker count.
    assert result.simulated_cycles == 6 * 166
    assert result.stepped_cycles < result.simulated_cycles
    if workers == 1:
        assert result.stepped_cycles == 577


def test_a_lone_pass_steps_from_reset(fib):
    # No pass before it recorded a golden state to start from.
    result = _sfi_run(fib, 1, lanes_per_pass=126)
    assert _letters(result) == SFI
    assert result.stepped_cycles == result.simulated_cycles == 166


@pytest.mark.parametrize("workers", [1, 2])
def test_beam_outcomes_are_pinned(fib, workers):
    assert _beam(fib, workers) == BEAM
    assert _beam(fib, workers, include_arrays=True, flux=2e-6) == BEAM_ARRAYS


@pytest.mark.parametrize("workers", [1, 2])
def test_masking_outcomes_are_pinned(fib, workers):
    assert _masking(fib, workers) == MASKING


def test_a_pass_starting_one_cycle_late_breaks_every_pin(fib, monkeypatch):
    original = lanes.pass_start

    def late(first_cycles):
        start = original(first_cycles)
        return None if start is None else start + 1

    monkeypatch.setattr(lanes, "pass_start", late)
    assert _sfi(fib, 1) != SFI
    assert _beam(fib, 1) != BEAM
    assert _masking(fib, 1) != MASKING
